#include "mht/smt.h"

#include <algorithm>
#include <stdexcept>
#include <cstring>
#include <utility>

#include "common/thread_pool.h"
#include "crypto/sha256_batch.h"
#include "mht/node_hash.h"

namespace dcert::mht {

namespace {

constexpr int kDepth = SparseMerkleTree::kDepth;

/// Returns `h` with every bit from position `level` onward cleared, i.e. the
/// canonical encoding of the length-`level` path prefix.
Hash256 PrefixAt(const Hash256& h, int level) {
  Hash256 out = h;
  int full_bytes = level / 8;
  int rem_bits = level % 8;
  if (full_bytes < 32) {
    if (rem_bits != 0) {
      out[static_cast<std::size_t>(full_bytes)] &=
          static_cast<std::uint8_t>(0xff << (8 - rem_bits));
      ++full_bytes;
    }
    for (int i = full_bytes; i < 32; ++i) out[static_cast<std::size_t>(i)] = 0;
  }
  return out;
}

/// Flips bit `level-1` of a level-`level` prefix (the partner node's prefix).
Hash256 FlipBit(const Hash256& prefix, int bit) {
  Hash256 out = prefix;
  out[static_cast<std::size_t>(bit / 8)] ^=
      static_cast<std::uint8_t>(0x80 >> (bit % 8));
  return out;
}

/// True iff two keys address the same leaf slot (same first kDepth bits).
bool SamePath(const Hash256& a, const Hash256& b) {
  return PrefixAt(a, kDepth) == PrefixAt(b, kDepth);
}

/// First bit position in [from, kDepth) where the keys' paths differ, or -1.
int FirstDiffBit(const Hash256& a, const Hash256& b, int from) {
  for (int i = from; i < kDepth; ++i) {
    if (a.Bit(static_cast<std::size_t>(i)) != b.Bit(static_cast<std::size_t>(i))) {
      return i;
    }
  }
  return -1;
}

}  // namespace

struct SparseMerkleTree::Node {
  Hash256 hash;  // SMT-equivalent hash of this subtree at its level
  bool is_leaf = false;
  bool dirty = false;  // hash is stale (deferred-hash bulk update in flight)
  // Leaf payload (singleton subtree).
  Hash256 key;
  Hash256 value_hash;
  // Branch children (either may be null = all-default subtree). Arena-owned:
  // the tree's arena outlives every node.
  NodePtr left;
  NodePtr right;
};

SparseMerkleTree::SparseMerkleTree()
    : arena_(std::make_unique<common::Arena<Node>>()) {}

std::size_t SparseMerkleTree::ArenaSlots() const {
  return arena_ ? arena_->SlotCount() : 0;
}
SparseMerkleTree::~SparseMerkleTree() = default;
SparseMerkleTree::SparseMerkleTree(SparseMerkleTree&&) noexcept = default;
SparseMerkleTree& SparseMerkleTree::operator=(SparseMerkleTree&& o) noexcept {
  if (this != &o) {
    root_.reset();  // our nodes must die before our arena (member-wise
                    // assignment would free the arena first)
    arena_ = std::move(o.arena_);
    root_ = std::move(o.root_);
    size_ = o.size_;
    o.size_ = 0;
  }
  return *this;
}

SparseMerkleTree::NodePtr SparseMerkleTree::MakeNode() {
  return common::MakeArenaPtr(*arena_);
}

const Hash256& SparseMerkleTree::DefaultHash(int level) {
  static const std::vector<Hash256> defaults = [] {
    std::vector<Hash256> d(static_cast<std::size_t>(kDepth) + 1);
    d[kDepth] = TaggedDigest(NodeTag::kSmtLeaf, {});
    for (int l = kDepth - 1; l >= 0; --l) {
      d[static_cast<std::size_t>(l)] =
          TaggedDigest2(NodeTag::kSmtInternal, d[static_cast<std::size_t>(l) + 1],
                        d[static_cast<std::size_t>(l) + 1]);
    }
    return d;
  }();
  if (level < 0 || level > kDepth) {
    throw std::out_of_range("SparseMerkleTree::DefaultHash: bad level");
  }
  return defaults[static_cast<std::size_t>(level)];
}

Hash256 SparseMerkleTree::LeafNodeHash(const Hash256& key, const Hash256& value_hash) {
  Bytes payload = key.ToBytes();
  Append(payload, value_hash);
  return TaggedDigest(NodeTag::kSmtLeaf, payload);
}

namespace {

/// SMT hash of a singleton subtree holding (key, vh), rooted at `level`.
Hash256 FoldLeaf(const Hash256& key, const Hash256& vh, int level) {
  Hash256 h = SparseMerkleTree::LeafNodeHash(key, vh);
  for (int l = kDepth - 1; l >= level; --l) {
    const Hash256& def = SparseMerkleTree::DefaultHash(l + 1);
    h = key.Bit(static_cast<std::size_t>(l))
            ? TaggedDigest2(NodeTag::kSmtInternal, def, h)
            : TaggedDigest2(NodeTag::kSmtInternal, h, def);
  }
  return h;
}

}  // namespace

SparseMerkleTree::NodePtr SparseMerkleTree::InsertRec(
    NodePtr node, int level, const Hash256& key, const Hash256& value_hash,
    bool defer_hash) {
  if (!node) {
    NodePtr leaf = MakeNode();
    leaf->is_leaf = true;
    leaf->key = key;
    leaf->value_hash = value_hash;
    if (defer_hash) {
      leaf->dirty = true;
    } else {
      leaf->hash = FoldLeaf(key, value_hash, level);
    }
    ++size_;
    return leaf;
  }
  if (node->is_leaf) {
    if (SamePath(node->key, key)) {
      node->key = key;
      node->value_hash = value_hash;
      if (defer_hash) {
        node->dirty = true;
      } else {
        node->hash = FoldLeaf(key, value_hash, level);
      }
      return node;
    }
    // Split the singleton: push the existing leaf one level down and insert
    // the new key into the same branch.
    NodePtr branch = MakeNode();
    bool old_bit = node->key.Bit(static_cast<std::size_t>(level));
    if (defer_hash) {
      node->dirty = true;  // leaf folds from a deeper level now
    } else {
      node->hash = FoldLeaf(node->key, node->value_hash, level + 1);
    }
    (old_bit ? branch->right : branch->left) = std::move(node);
    bool new_bit = key.Bit(static_cast<std::size_t>(level));
    auto& slot = new_bit ? branch->right : branch->left;
    slot = InsertRec(std::move(slot), level + 1, key, value_hash, defer_hash);
    if (defer_hash) {
      branch->dirty = true;
    } else {
      const Hash256& lh =
          branch->left ? branch->left->hash : DefaultHash(level + 1);
      const Hash256& rh =
          branch->right ? branch->right->hash : DefaultHash(level + 1);
      branch->hash = TaggedDigest2(NodeTag::kSmtInternal, lh, rh);
    }
    return branch;
  }
  auto& child = key.Bit(static_cast<std::size_t>(level)) ? node->right : node->left;
  child = InsertRec(std::move(child), level + 1, key, value_hash, defer_hash);
  if (defer_hash) {
    node->dirty = true;
  } else {
    const Hash256& lh = node->left ? node->left->hash : DefaultHash(level + 1);
    const Hash256& rh = node->right ? node->right->hash : DefaultHash(level + 1);
    node->hash = TaggedDigest2(NodeTag::kSmtInternal, lh, rh);
  }
  return node;
}

SparseMerkleTree::NodePtr SparseMerkleTree::RemoveRec(
    NodePtr node, int level, const Hash256& key, bool& removed,
    bool defer_hash) {
  if (!node) return nullptr;
  if (node->is_leaf) {
    if (SamePath(node->key, key)) {
      removed = true;
      --size_;
      return nullptr;
    }
    return node;
  }
  auto& child = key.Bit(static_cast<std::size_t>(level)) ? node->right : node->left;
  child = RemoveRec(std::move(child), level + 1, key, removed, defer_hash);
  if (!removed) return node;
  // Collapse a branch whose only remaining child is a leaf — hash-neutral
  // (fold of a leaf at level equals the branch hash with a default sibling),
  // but it keeps storage proportional to the key count.
  Node* only = nullptr;
  if (node->left && !node->right) only = node->left.get();
  if (node->right && !node->left) only = node->right.get();
  if (only != nullptr && only->is_leaf) {
    auto lifted = node->left ? std::move(node->left) : std::move(node->right);
    if (defer_hash) {
      lifted->dirty = true;  // folds from a shallower level now
    } else {
      lifted->hash = FoldLeaf(lifted->key, lifted->value_hash, level);
    }
    return lifted;
  }
  if (!node->left && !node->right) return nullptr;  // cannot happen, but safe
  if (defer_hash) {
    node->dirty = true;
  } else {
    const Hash256& lh = node->left ? node->left->hash : DefaultHash(level + 1);
    const Hash256& rh = node->right ? node->right->hash : DefaultHash(level + 1);
    node->hash = TaggedDigest2(NodeTag::kSmtInternal, lh, rh);
  }
  return node;
}

void SparseMerkleTree::Update(const Hash256& key, const Hash256& value_hash) {
  if (value_hash.IsZero()) {
    bool removed = false;
    root_ = RemoveRec(std::move(root_), 0, key, removed, /*defer_hash=*/false);
    return;
  }
  root_ = InsertRec(std::move(root_), 0, key, value_hash, /*defer_hash=*/false);
}

void SparseMerkleTree::RehashRec(Node* node, int level, common::ThreadPool* pool,
                                 int par_levels) {
  if (node == nullptr || !node->dirty) return;
  if (node->is_leaf) {
    node->hash = FoldLeaf(node->key, node->value_hash, level);
    node->dirty = false;
    return;
  }
  Node* left = node->left.get();
  Node* right = node->right.get();
  const bool both_dirty =
      left != nullptr && left->dirty && right != nullptr && right->dirty;
  if (pool != nullptr && par_levels > 0 && both_dirty) {
    // Sibling subtrees are disjoint; hash them concurrently. The hash of a
    // subtree is a pure function of its content, so scheduling cannot change
    // the result.
    pool->ParallelFor(2, [&](std::size_t i) {
      RehashRec(i == 0 ? left : right, level + 1, pool, par_levels - 1);
    });
  } else {
    RehashRec(left, level + 1, pool, par_levels);
    RehashRec(right, level + 1, pool, par_levels);
  }
  const Hash256& lh = left != nullptr ? left->hash : DefaultHash(level + 1);
  const Hash256& rh = right != nullptr ? right->hash : DefaultHash(level + 1);
  node->hash = TaggedDigest2(NodeTag::kSmtInternal, lh, rh);
  node->dirty = false;
}

namespace {

/// Hashes sibling-pair jobs, sharding across the pool when the level is
/// large enough for the task handoff to pay for itself. Jobs are disjoint
/// (each writes only its own out), so sharding cannot change any result.
void HashPairsSharded(NodeTag tag, std::vector<NodePairJob>& jobs,
                      common::ThreadPool* pool) {
  constexpr std::size_t kMinJobsPerShard = 512;
  if (jobs.empty()) return;
  const std::size_t shards =
      pool == nullptr ? 1
                      : std::min<std::size_t>(pool->WorkerCount() + 1,
                                              jobs.size() / kMinJobsPerShard);
  if (shards <= 1) {
    TaggedDigest2Many(tag, jobs.data(), jobs.size());
    return;
  }
  pool->ParallelFor(shards, [&](std::size_t s) {
    const std::size_t begin = jobs.size() * s / shards;
    const std::size_t end = jobs.size() * (s + 1) / shards;
    TaggedDigest2Many(tag, jobs.data() + begin, end - begin);
  });
}

/// One leaf whose singleton-subtree hash is being folded up the default
/// chain: `h` starts at LeafNodeHash(key, vh) and merges with level-default
/// siblings until `stop_level` is reached.
struct LeafFold {
  const Hash256* key;
  const Hash256* value_hash;
  int stop_level;
  Hash256* out;  // receives the completed fold
  Hash256 h;     // working value while the chain runs
};

/// Runs every fold to completion, batching across folds level by level (one
/// multi-buffer dispatch per level instead of one streaming hash per step).
/// Computes exactly the chain FoldLeaf computes for each entry.
///
/// Each fold owns one persistent pre-padded 128-byte message slot. A level's
/// digest is stored directly into the position the next level reads it from
/// (left or right half, by the key's next path bit), so the per-level work
/// beyond the hash itself is a single 32-byte default-sibling copy.
void BatchFolds(std::vector<LeafFold>& folds, common::ThreadPool* pool) {
  if (folds.empty()) return;
  // Seed every fold with its leaf hash (same 65-byte geometry as a pair).
  {
    std::vector<NodePairJob> jobs(folds.size());
    for (std::size_t i = 0; i < folds.size(); ++i) {
      jobs[i] = {folds[i].key, folds[i].value_hash, &folds[i].h};
    }
    HashPairsSharded(NodeTag::kSmtLeaf, jobs, pool);
  }
  // Ascending stop level => the active set is a shrinking prefix as the fold
  // walks from the bottom of the tree toward the root.
  std::sort(folds.begin(), folds.end(),
            [](const LeafFold& a, const LeafFold& b) {
              return a.stop_level < b.stop_level;
            });
  // At level l the working value sits in the left half when the key's bit l
  // is 0 and the right half when it is 1 (the default sibling takes the
  // other half) — the same orientation FoldLeaf uses.
  const auto pos = [](const LeafFold& f, int l) {
    return f.key->Bit(static_cast<std::size_t>(l)) ? 33 : 1;
  };
  std::vector<std::uint8_t> slots(folds.size() * 128);
  std::vector<crypto::PaddedJob> jobs(folds.size());
  // cur_pos[i] caches pos(folds[i], l) for the level about to be hashed, so
  // the hot loop reads one byte instead of re-deriving two key bits.
  std::vector<std::uint8_t> cur_pos(folds.size());
  for (std::size_t i = 0; i < folds.size(); ++i) {
    std::uint8_t* slot = slots.data() + i * 128;
    PrePadPairSlot(slot, NodeTag::kSmtInternal);
    jobs[i].blocks = slot;  // never changes; only .out moves per level
    if (folds[i].stop_level >= kDepth) {
      *folds[i].out = folds[i].h;  // no chain: the seed is the result
    } else {
      cur_pos[i] = static_cast<std::uint8_t>(pos(folds[i], kDepth - 1));
      std::memcpy(slot + cur_pos[i], folds[i].h.data().data(), 32);
    }
  }
  std::size_t active = folds.size();
  for (int l = kDepth - 1; l >= 0 && active > 0; --l) {
    while (active > 0 && folds[active - 1].stop_level > l) --active;
    if (active == 0) break;
    const Hash256& def = SparseMerkleTree::DefaultHash(l + 1);
    for (std::size_t i = 0; i < active; ++i) {
      LeafFold& f = folds[i];
      std::uint8_t* slot = slots.data() + i * 128;
      std::memcpy(slot + (34 - cur_pos[i]), def.data().data(), 32);
      if (l == f.stop_level) {
        jobs[i].out = f.out->begin();
      } else {
        cur_pos[i] = static_cast<std::uint8_t>(pos(f, l - 1));
        jobs[i].out = slot + cur_pos[i];
      }
    }
    constexpr std::size_t kMinJobsPerShard = 512;
    const std::size_t shards =
        pool == nullptr ? 1
                        : std::min<std::size_t>(pool->WorkerCount() + 1,
                                                active / kMinJobsPerShard);
    if (shards <= 1) {
      crypto::HashPadded(jobs.data(), active, /*m=*/2);
    } else {
      pool->ParallelFor(shards, [&](std::size_t s) {
        const std::size_t begin = active * s / shards;
        const std::size_t end = active * (s + 1) / shards;
        crypto::HashPadded(jobs.data() + begin, end - begin, /*m=*/2);
      });
    }
  }
}

}  // namespace

void SparseMerkleTree::RehashBatched(Node* root, common::ThreadPool* pool) {
  if (root == nullptr || !root->dirty) return;
  // Phase 1: collect the dirty frontier — leaves (with their levels) and
  // branches bucketed by depth. Only dirty nodes are visited; Insert/Remove
  // marked every ancestor of a change dirty, so this reaches all stale
  // hashes.
  std::vector<std::pair<Node*, int>> leaves;
  std::vector<std::vector<Node*>> branches(static_cast<std::size_t>(kDepth));
  std::vector<std::pair<Node*, int>> stack{{root, 0}};
  while (!stack.empty()) {
    auto [node, level] = stack.back();
    stack.pop_back();
    if (node->is_leaf) {
      leaves.emplace_back(node, level);
      continue;
    }
    branches[static_cast<std::size_t>(level)].push_back(node);
    if (node->left && node->left->dirty) {
      stack.emplace_back(node->left.get(), level + 1);
    }
    if (node->right && node->right->dirty) {
      stack.emplace_back(node->right.get(), level + 1);
    }
  }

  // Phase 2: fold all dirty leaves level-by-level across the batch; each
  // fold writes straight into its node's hash.
  std::vector<LeafFold> leaf_folds;
  leaf_folds.reserve(leaves.size());
  for (const auto& [node, level] : leaves) {
    leaf_folds.push_back(
        {&node->key, &node->value_hash, level, &node->hash, Hash256()});
    node->dirty = false;
  }
  BatchFolds(leaf_folds, pool);

  // Phase 3: dirty branches, deepest level first; children (dirty or not)
  // have final hashes by the time their parents are batched.
  std::vector<NodePairJob> jobs;
  for (int level = kDepth - 1; level >= 0; --level) {
    auto& bucket = branches[static_cast<std::size_t>(level)];
    if (bucket.empty()) continue;
    jobs.resize(bucket.size());
    const Hash256& def = DefaultHash(level + 1);
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      Node* node = bucket[i];
      jobs[i] = {node->left ? &node->left->hash : &def,
                 node->right ? &node->right->hash : &def, &node->hash};
    }
    HashPairsSharded(NodeTag::kSmtInternal, jobs, pool);
    for (Node* node : bucket) node->dirty = false;
  }
}

void SparseMerkleTree::UpdateBatchWith(const std::map<Hash256, Hash256>& entries,
                                       common::ThreadPool& pool,
                                       RehashMode mode) {
  for (const auto& [key, value_hash] : entries) {
    if (value_hash.IsZero()) {
      bool removed = false;
      root_ = RemoveRec(std::move(root_), 0, key, removed, /*defer_hash=*/true);
    } else {
      root_ = InsertRec(std::move(root_), 0, key, value_hash, /*defer_hash=*/true);
    }
  }
  common::ThreadPool* pool_ptr = pool.WorkerCount() > 1 ? &pool : nullptr;
  if (mode == RehashMode::kBatched) {
    RehashBatched(root_.get(), pool_ptr);
  } else {
    RehashRec(root_.get(), 0, pool_ptr, /*par_levels=*/4);
  }
}

void SparseMerkleTree::UpdateBatch(const std::map<Hash256, Hash256>& entries) {
  // Below this size the deferred pass costs more than it saves (the
  // multi-buffer hasher needs a few lanes' worth of independent work); the
  // cutover keeps single-tx blocks on the straight path.
  constexpr std::size_t kBatchThreshold = 8;
  if (entries.size() < kBatchThreshold) {
    for (const auto& [key, value_hash] : entries) Update(key, value_hash);
    return;
  }
  UpdateBatchWith(entries, common::ThreadPool::Shared());
}

Hash256 SparseMerkleTree::Get(const Hash256& key) const {
  const Node* node = root_.get();
  int level = 0;
  while (node != nullptr && !node->is_leaf) {
    node = key.Bit(static_cast<std::size_t>(level)) ? node->right.get()
                                                    : node->left.get();
    ++level;
  }
  if (node != nullptr && SamePath(node->key, key)) return node->value_hash;
  return Hash256();
}

Hash256 SparseMerkleTree::Root() const {
  return root_ ? root_->hash : DefaultHash(0);
}

namespace {

/// Sorted, deduped leaf paths of a proof's key set; "is this node id an
/// ancestor of some proof key" is then a binary search.
std::vector<Hash256> CanonicalPaths(const std::vector<Hash256>& keys) {
  std::vector<Hash256> paths;
  paths.reserve(keys.size());
  for (const Hash256& k : keys) paths.push_back(PrefixAt(k, kDepth));
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  return paths;
}

bool CoveredBy(const std::vector<Hash256>& paths, const SmtNodeId& id) {
  auto it = std::lower_bound(paths.begin(), paths.end(), id.prefix);
  return it != paths.end() && PrefixAt(*it, id.level) == id.prefix;
}

}  // namespace

void SparseMerkleTree::ResolveFolds(std::vector<PendingFold>& folds,
                                    std::map<SmtNodeId, Hash256>& sink) {
  if (folds.empty()) return;
  std::vector<Hash256> results(folds.size());
  std::vector<LeafFold> chains;
  chains.reserve(folds.size());
  for (std::size_t i = 0; i < folds.size(); ++i) {
    chains.push_back({&folds[i].key, &folds[i].value_hash, folds[i].id.level,
                      &results[i], Hash256()});
  }
  BatchFolds(chains, nullptr);
  // emplace keeps the first value per id, matching the eager-hash behaviour
  // (duplicate ids come from the same resident leaf, so values agree anyway).
  for (std::size_t i = 0; i < folds.size(); ++i) {
    sink.emplace(folds[i].id, results[i]);
  }
}

void SparseMerkleTree::CollectSiblings(
    const Hash256& key, const std::vector<Hash256>& paths,
    std::map<SmtNodeId, Hash256>& sink,
    std::vector<PendingFold>& folds) const {
  const Node* node = root_.get();
  int level = 0;
  while (node != nullptr) {
    if (node->is_leaf) {
      if (SamePath(node->key, key)) break;  // siblings below are all default
      int diff = FirstDiffBit(node->key, key, level);
      if (diff < 0) break;
      // The resident leaf's subtree becomes the sibling at the divergence;
      // its default-chain fold is deferred so all folds batch together.
      SmtNodeId id{static_cast<std::uint16_t>(diff + 1),
                   PrefixAt(node->key, diff + 1)};
      if (!CoveredBy(paths, id)) {
        folds.push_back({id, node->key, node->value_hash});
      }
      break;
    }
    bool bit = key.Bit(static_cast<std::size_t>(level));
    const Node* sibling = bit ? node->left.get() : node->right.get();
    if (sibling != nullptr) {
      SmtNodeId id{static_cast<std::uint16_t>(level + 1),
                   FlipBit(PrefixAt(key, level + 1), level)};
      if (!CoveredBy(paths, id)) sink.emplace(id, sibling->hash);
    }
    node = bit ? node->right.get() : node->left.get();
    ++level;
  }
}

SmtMultiProof SparseMerkleTree::ProveKeysSerial(
    const std::vector<Hash256>& keys) const {
  const std::vector<Hash256> paths = CanonicalPaths(keys);
  SmtMultiProof proof;
  std::vector<PendingFold> folds;
  for (const Hash256& key : keys) {
    CollectSiblings(key, paths, proof.siblings, folds);
  }
  ResolveFolds(folds, proof.siblings);
  return proof;
}

SmtMultiProof SparseMerkleTree::ProveKeysParallel(
    const std::vector<Hash256>& keys, common::ThreadPool& pool) const {
  const std::vector<Hash256> paths = CanonicalPaths(keys);
  // Chunk the key set across the pool; each chunk descends the (read-only)
  // tree into its own sibling map. A given node id always maps to the same
  // hash (it is a function of the tree alone), so merging the chunk maps
  // yields exactly the serial proof regardless of scheduling.
  const std::size_t chunks = std::min<std::size_t>(
      pool.WorkerCount() + 1, (keys.size() + kMinKeysPerChunk - 1) / kMinKeysPerChunk);
  if (chunks <= 1) return ProveKeysSerial(keys);
  std::vector<std::map<SmtNodeId, Hash256>> partial(chunks);
  pool.ParallelFor(chunks, [&](std::size_t c) {
    const std::size_t begin = keys.size() * c / chunks;
    const std::size_t end = keys.size() * (c + 1) / chunks;
    std::vector<PendingFold> folds;
    for (std::size_t i = begin; i < end; ++i) {
      CollectSiblings(keys[i], paths, partial[c], folds);
    }
    ResolveFolds(folds, partial[c]);
  });
  SmtMultiProof proof;
  proof.siblings = std::move(partial[0]);
  for (std::size_t c = 1; c < chunks; ++c) {
    proof.siblings.merge(partial[c]);
  }
  return proof;
}

SmtMultiProof SparseMerkleTree::ProveKeys(const std::vector<Hash256>& keys) const {
  if (keys.size() < kMinKeysPerChunk * 2 ||
      common::ThreadPool::Shared().WorkerCount() <= 1) {
    return ProveKeysSerial(keys);
  }
  return ProveKeysParallel(keys, common::ThreadPool::Shared());
}

Hash256 SparseMerkleTree::ComputeRootFromProof(
    const SmtMultiProof& proof, const std::map<Hash256, Hash256>& leaves) {
  // Frontier: sorted (canonical prefix, subtree hash) pairs at the current
  // level, merged in place level by level. Entries computed from the
  // caller's leaves always take precedence over proof entries, so a
  // malicious proof cannot override a covered subtree.
  std::vector<std::pair<Hash256, Hash256>> frontier;
  frontier.reserve(leaves.size());  // reserved: jobs point into the vector
  std::vector<NodePairJob> leaf_jobs;
  for (const auto& [key, vh] : leaves) {
    frontier.emplace_back(PrefixAt(key, kDepth), DefaultHash(kDepth));
    if (!vh.IsZero()) {
      // LeafNodeHash(key, vh) == H(kSmtLeaf || key || vh): pair geometry.
      leaf_jobs.push_back({&key, &vh, &frontier.back().second});
    }
  }
  TaggedDigest2Many(NodeTag::kSmtLeaf, leaf_jobs.data(), leaf_jobs.size());
  // leaves is an ordered map and PrefixAt preserves order, except that two
  // keys sharing a path collapse; dedupe defensively.
  frontier.erase(std::unique(frontier.begin(), frontier.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 frontier.end());
  if (frontier.empty()) return DefaultHash(0);

  // Per level: gather every parent's (left, right) pair, then hash the whole
  // level in one multi-buffer dispatch instead of one streaming hash per node.
  std::vector<std::pair<Hash256, Hash256>> next;
  std::vector<Hash256> lefts, rights;
  std::vector<NodePairJob> jobs;
  for (int level = kDepth; level > 0; --level) {
    next.clear();
    next.reserve(frontier.size());
    lefts.clear();
    rights.clear();
    lefts.reserve(frontier.size());
    rights.reserve(frontier.size());
    const int bit_index = level - 1;
    for (std::size_t i = 0; i < frontier.size();) {
      const Hash256& prefix = frontier[i].first;
      bool bit = prefix.Bit(static_cast<std::size_t>(bit_index));
      Hash256 parent = PrefixAt(prefix, bit_index);

      if (!bit && i + 1 < frontier.size() &&
          frontier[i + 1].first == FlipBit(prefix, bit_index)) {
        // Both children are on the frontier (keys diverging here).
        lefts.push_back(frontier[i].second);
        rights.push_back(frontier[i + 1].second);
        i += 2;
      } else {
        Hash256 partner = FlipBit(prefix, bit_index);
        auto sib = proof.siblings.find(
            SmtNodeId{static_cast<std::uint16_t>(level), partner});
        const Hash256& sibling_hash =
            sib != proof.siblings.end() ? sib->second : DefaultHash(level);
        lefts.push_back(bit ? sibling_hash : frontier[i].second);
        rights.push_back(bit ? frontier[i].second : sibling_hash);
        i += 1;
      }
      next.emplace_back(parent, Hash256());
    }
    jobs.resize(next.size());
    for (std::size_t i = 0; i < next.size(); ++i) {
      jobs[i] = {&lefts[i], &rights[i], &next[i].second};
    }
    TaggedDigest2Many(NodeTag::kSmtInternal, jobs.data(), jobs.size());
    frontier.swap(next);
  }
  return frontier.front().second;
}

Bytes SmtMultiProof::Serialize() const {
  Encoder enc;
  enc.U32(static_cast<std::uint32_t>(siblings.size()));
  for (const auto& [id, hash] : siblings) {
    enc.U16(id.level);
    enc.HashField(id.prefix);
    enc.HashField(hash);
  }
  return enc.Take();
}

Result<SmtMultiProof> SmtMultiProof::Deserialize(ByteView data) {
  try {
    Decoder dec(data);
    SmtMultiProof proof;
    std::uint32_t n = dec.U32();
    for (std::uint32_t i = 0; i < n; ++i) {
      SmtNodeId id;
      id.level = dec.U16();
      id.prefix = dec.HashField();
      Hash256 h = dec.HashField();
      if (id.level > SparseMerkleTree::kDepth) {
        return Result<SmtMultiProof>::Error("SmtMultiProof: level out of range");
      }
      proof.siblings.emplace(id, h);
    }
    dec.ExpectEnd();
    return proof;
  } catch (const DecodeError& e) {
    return Result<SmtMultiProof>::Error(std::string("SmtMultiProof: ") + e.what());
  }
}

}  // namespace dcert::mht
