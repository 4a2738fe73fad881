#include "mht/smt.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "crypto/sha256_batch.h"
#include "mht/node_hash.h"

namespace dcert::mht {

namespace {

constexpr int kDepth = SparseMerkleTree::kDepth;

/// What a subtree holds, as its parent's tag records it.
enum Kind : std::uint8_t { kEmpty = 0, kLeaf = 1, kInternal = 2 };

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

/// One node hash: out = H(tag || left || right), over a leaf's key and value
/// hash or an internal node's two children.
struct PairJob {
  const Hash256* left;
  const Hash256* right;
  NodeTag tag;
  Hash256* out;
};

/// Hashes every job as a pre-padded two-block message, a chunk of jobs per
/// multi-buffer dispatch.
void HashPairs(const PairJob* jobs, std::size_t n) {
  constexpr std::size_t kChunk = 64;
  std::uint8_t msgs[kChunk][128];
  crypto::PaddedJob padded[kChunk];
  for (std::size_t start = 0; start < n; start += kChunk) {
    const std::size_t take = std::min(kChunk, n - start);
    for (std::size_t i = 0; i < take; ++i) {
      const PairJob& job = jobs[start + i];
      PrePadPairSlot(msgs[i], job.tag);
      std::memcpy(msgs[i] + 1, job.left->begin(), 32);
      std::memcpy(msgs[i] + 33, job.right->begin(), 32);
      padded[i] = {msgs[i], job.out->begin()};
    }
    crypto::HashPadded(padded, take, /*m=*/2);
  }
}

Hash256 PairHash(NodeTag tag, const Hash256& left, const Hash256& right) {
  Hash256 out;
  const PairJob job{&left, &right, tag, &out};
  HashPairs(&job, 1);
  return out;
}

/// Tag of a subtree of two or more keys: binds its children's kinds.
NodeTag InternalTag(Kind left, Kind right) {
  return static_cast<NodeTag>(static_cast<int>(NodeTag::kSmtInternal) +
                              3 * left + right);
}

}  // namespace

struct SparseMerkleTree::Node {
  Hash256 hash;  // LeafNodeHash of the payload, or the children's tagged hash
  bool is_leaf = false;
  bool dirty = false;  // hash is stale (deferred-hash bulk update in flight)
  // Leaf payload (the subtree's one key).
  Hash256 key;
  Hash256 value_hash;
  // Branch children (null = empty subtree). Arena-owned: the tree's arena
  // outlives every node.
  NodePtr left;
  NodePtr right;

  static Kind KindOf(const Node* n) {
    return n == nullptr ? kEmpty : n->is_leaf ? kLeaf : kInternal;
  }
  static const Hash256& HashOf(const Node* n) {
    return n == nullptr ? EmptyHash() : n->hash;
  }
  /// The job that recomputes `hash` from the payload or the children.
  PairJob HashJob() {
    if (is_leaf) return {&key, &value_hash, NodeTag::kSmtLeaf, &hash};
    return {&HashOf(left.get()), &HashOf(right.get()),
            InternalTag(KindOf(left.get()), KindOf(right.get())), &hash};
  }
  void Seal() {
    const PairJob job = HashJob();
    HashPairs(&job, 1);
    dirty = false;
  }
  /// A changed node: hashed now, or left to the deferred pass.
  void Touch(bool defer_hash) {
    if (defer_hash) {
      dirty = true;
    } else {
      Seal();
    }
  }
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

const Hash256& SparseMerkleTree::EmptyHash() {
  static const Hash256 empty = TaggedDigest(NodeTag::kSmtLeaf, {});
  return empty;
}

Hash256 SparseMerkleTree::LeafNodeHash(const Hash256& key, const Hash256& value_hash) {
  return PairHash(NodeTag::kSmtLeaf, key, value_hash);
}

SparseMerkleTree::NodePtr SparseMerkleTree::InsertRec(
    NodePtr node, int level, const Hash256& key, const Hash256& value_hash,
    bool defer_hash) {
  if (!node || (node->is_leaf && SamePath(node->key, key))) {
    if (!node) {
      node = MakeNode();
      node->is_leaf = true;
      ++size_;
    }
    node->key = key;
    node->value_hash = value_hash;
    node->Touch(defer_hash);
    return node;
  }
  if (node->is_leaf) {
    // Split: the resident leaf moves one level down under a new branch (its
    // hash does not depend on the level) and the key descends beside it.
    NodePtr branch = MakeNode();
    auto& slot = node->key.Bit(static_cast<std::size_t>(level)) ? branch->right
                                                                : branch->left;
    slot = std::move(node);
    node = std::move(branch);
  }
  auto& child = key.Bit(static_cast<std::size_t>(level)) ? node->right : node->left;
  child = InsertRec(std::move(child), level + 1, key, value_hash, defer_hash);
  node->Touch(defer_hash);
  return node;
}

SparseMerkleTree::NodePtr SparseMerkleTree::RemoveRec(
    NodePtr node, int level, const Hash256& key, bool& removed,
    bool defer_hash) {
  if (!node) return nullptr;
  if (node->is_leaf) {
    if (!SamePath(node->key, key)) return node;
    removed = true;
    --size_;
    return nullptr;
  }
  auto& child = key.Bit(static_cast<std::size_t>(level)) ? node->right : node->left;
  child = RemoveRec(std::move(child), level + 1, key, removed, defer_hash);
  if (!removed) return node;
  // A branch left holding one key is that key's leaf: lift the leaf, whose
  // hash stays as it is.
  if (!node->left || !node->right) {
    NodePtr& only = node->left ? node->left : node->right;
    if (!only || only->is_leaf) return std::move(only);
  }
  node->Touch(defer_hash);
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

void SparseMerkleTree::Rehash(Node* root) {
  // The dirty nodes by depth: Insert/Remove marked every ancestor of a
  // change dirty, so descending through dirty nodes reaches them all.
  std::vector<std::vector<Node*>> by_level;
  std::vector<std::pair<Node*, std::size_t>> stack;
  if (root != nullptr && root->dirty) stack.emplace_back(root, 0);
  while (!stack.empty()) {
    const auto [node, level] = stack.back();
    stack.pop_back();
    if (by_level.size() <= level) by_level.resize(level + 1);
    by_level[level].push_back(node);
    for (Node* child : {node->left.get(), node->right.get()}) {
      if (child != nullptr && child->dirty) stack.emplace_back(child, level + 1);
    }
  }
  // Deepest level first, one batch per level: children are final before
  // their parents hash.
  std::vector<PairJob> jobs;
  for (auto level = by_level.rbegin(); level != by_level.rend(); ++level) {
    jobs.clear();
    for (Node* node : *level) {
      jobs.push_back(node->HashJob());
      node->dirty = false;
    }
    HashPairs(jobs.data(), jobs.size());
  }
}

void SparseMerkleTree::UpdateBatch(const std::map<Hash256, Hash256>& entries) {
  for (const auto& [key, value_hash] : entries) {
    if (value_hash.IsZero()) {
      bool removed = false;
      root_ = RemoveRec(std::move(root_), 0, key, removed, /*defer_hash=*/true);
    } else {
      root_ = InsertRec(std::move(root_), 0, key, value_hash, /*defer_hash=*/true);
    }
  }
  Rehash(root_.get());
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

Hash256 SparseMerkleTree::Root() const { return Node::HashOf(root_.get()); }

namespace {

/// True iff one of the sorted `paths` runs through node `id`.
bool CoveredBy(std::span<const Hash256> paths, const SmtNodeId& id) {
  auto it = std::lower_bound(paths.begin(), paths.end(), id.prefix);
  return it != paths.end() && PrefixAt(*it, id.level) == id.prefix;
}

/// True iff `key`'s path is one of the sorted `paths`.
bool IsCovered(std::span<const Hash256> paths, const Hash256& key) {
  return std::binary_search(paths.begin(), paths.end(), PrefixAt(key, kDepth));
}

/// How many of `paths` (sorted, sharing their first `level` bits) have bit
/// `level` clear: they come first.
std::size_t SplitAt(std::span<const Hash256> paths, int level) {
  return static_cast<std::size_t>(
      std::partition_point(paths.begin(), paths.end(),
                           [level](const Hash256& p) {
                             return !p.Bit(static_cast<std::size_t>(level));
                           }) -
      paths.begin());
}

}  // namespace

void SparseMerkleTree::Prove(const Node* node, int level,
                             std::span<const Hash256> paths, SmtMultiProof& proof) {
  if (node == nullptr) return;
  if (node->is_leaf) {
    // The leaf a covered path ends at: proof material unless it is covered.
    if (!IsCovered(paths, node->key)) {
      proof.leaves.emplace(node->key, node->value_hash);
    }
    return;
  }
  const std::size_t split = SplitAt(paths, level);
  const Node* children[2] = {node->left.get(), node->right.get()};
  const std::span<const Hash256> parts[2] = {paths.first(split),
                                             paths.subspan(split)};
  for (int side = 0; side < 2; ++side) {
    const Node* child = children[side];
    if (!parts[side].empty()) {
      Prove(child, level + 1, parts[side], proof);
    } else if (child != nullptr && child->is_leaf) {
      proof.leaves.emplace(child->key, child->value_hash);
    } else if (child != nullptr) {
      // No covered path enters it: it travels as its hash.
      proof.siblings.emplace(
          SmtNodeId{static_cast<std::uint16_t>(level + 1),
                    FlipBit(PrefixAt(paths.front(), level + 1), level)},
          child->hash);
    }
  }
}

SmtMultiProof SparseMerkleTree::ProveKeys(const std::vector<Hash256>& keys) const {
  std::vector<Hash256> paths;
  paths.reserve(keys.size());
  for (const Hash256& k : keys) paths.push_back(PrefixAt(k, kDepth));
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());
  SmtMultiProof proof;
  if (!paths.empty()) Prove(root_.get(), 0, paths, proof);
  return proof;
}

namespace {

/// A subtree a proof check knows outright: a covered key's leaf, a proof
/// leaf, or a proof subtree of two or more keys.
struct KnownSubtree {
  Hash256 path;  // the key, or the node's prefix
  int level;     // the node's level; kLeafLevel for a leaf
  Hash256 hash;
};
constexpr int kLeafLevel = std::numeric_limits<int>::max();  // after any node

struct Folded {
  Kind kind;
  Hash256 hash;
};

/// The subtree at `level` holding known[b, e), which share its prefix and
/// are sorted by (path, level); nullopt when they contradict each other.
std::optional<Folded> Fold(const std::vector<KnownSubtree>& known, std::size_t b,
                           std::size_t e, int level) {
  if (b == e) return Folded{kEmpty, SparseMerkleTree::EmptyHash()};
  const KnownSubtree& first = known[b];
  if (first.level == level) {
    // A proof subtree sits exactly here: nothing else may lie inside it.
    if (e - b != 1) return std::nullopt;
    return Folded{kInternal, first.hash};
  }
  if (e - b == 1 && first.level == kLeafLevel) return Folded{kLeaf, first.hash};
  if (level == kDepth) return std::nullopt;  // two entries on one path
  const auto mid = std::partition_point(
      known.begin() + static_cast<std::ptrdiff_t>(b),
      known.begin() + static_cast<std::ptrdiff_t>(e),
      [level](const KnownSubtree& k) {
        return !k.path.Bit(static_cast<std::size_t>(level));
      });
  const auto m = static_cast<std::size_t>(mid - known.begin());
  const std::optional<Folded> left = Fold(known, b, m, level + 1);
  if (!left) return std::nullopt;
  const std::optional<Folded> right = Fold(known, m, e, level + 1);
  if (!right) return std::nullopt;
  return Folded{kInternal, PairHash(InternalTag(left->kind, right->kind),
                                    left->hash, right->hash)};
}

}  // namespace

Hash256 SparseMerkleTree::ComputeRootFromProof(
    const SmtMultiProof& proof, const std::map<Hash256, Hash256>& leaves) {
  // The covered paths, each once. A proof entry on or around one of them
  // would let the proof speak for a covered key: refused.
  std::vector<Hash256> covered;
  covered.reserve(leaves.size());
  for (const auto& [key, vh] : leaves) {
    Hash256 path = PrefixAt(key, kDepth);
    if (!covered.empty() && covered.back() == path) return Hash256();
    covered.push_back(path);
  }
  std::vector<KnownSubtree> known;  // reserved: leaf jobs point into it
  known.reserve(leaves.size() + proof.leaves.size() + proof.siblings.size());
  std::vector<PairJob> leaf_jobs;
  const auto add_leaf = [&](const Hash256& key, const Hash256& vh) {
    known.push_back({key, kLeafLevel, Hash256()});
    leaf_jobs.push_back({&key, &vh, NodeTag::kSmtLeaf, &known.back().hash});
  };
  for (const auto& [key, vh] : leaves) {
    if (!vh.IsZero()) add_leaf(key, vh);
  }
  for (const auto& [key, vh] : proof.leaves) {
    if (vh.IsZero() || IsCovered(covered, key)) return Hash256();
    add_leaf(key, vh);
  }
  for (const auto& [id, hash] : proof.siblings) {
    if (id.level > kDepth || PrefixAt(id.prefix, id.level) != id.prefix ||
        CoveredBy(covered, id)) {
      return Hash256();
    }
    known.push_back({id.prefix, id.level, hash});
  }
  HashPairs(leaf_jobs.data(), leaf_jobs.size());
  std::sort(known.begin(), known.end(),
            [](const KnownSubtree& a, const KnownSubtree& b) {
              return std::tie(a.path, a.level) < std::tie(b.path, b.level);
            });
  const std::optional<Folded> root = Fold(known, 0, known.size(), 0);
  return root ? root->hash : Hash256();
}

Bytes SmtMultiProof::Serialize() const {
  Encoder enc;
  enc.U32(static_cast<std::uint32_t>(siblings.size()));
  for (const auto& [id, hash] : siblings) {
    enc.U16(id.level);
    enc.HashField(id.prefix);
    enc.HashField(hash);
  }
  enc.U32(static_cast<std::uint32_t>(leaves.size()));
  for (const auto& [key, vh] : leaves) {
    enc.HashField(key);
    enc.HashField(vh);
  }
  return enc.Take();
}

Result<SmtMultiProof> SmtMultiProof::Deserialize(ByteView data) {
  using R = Result<SmtMultiProof>;
  try {
    Decoder dec(data);
    SmtMultiProof proof;
    for (std::uint32_t n = dec.U32(); n > 0; --n) {
      SmtNodeId id;
      id.level = dec.U16();
      id.prefix = dec.HashField();
      Hash256 hash = dec.HashField();
      if (id.level > SparseMerkleTree::kDepth ||
          PrefixAt(id.prefix, id.level) != id.prefix) {
        return R::Error("SmtMultiProof: malformed subtree node");
      }
      if (!proof.siblings.empty() && !(proof.siblings.rbegin()->first < id)) {
        return R::Error("SmtMultiProof: subtrees out of order");
      }
      proof.siblings.emplace_hint(proof.siblings.end(), id, hash);
    }
    for (std::uint32_t n = dec.U32(); n > 0; --n) {
      Hash256 key = dec.HashField();
      Hash256 vh = dec.HashField();
      if (vh.IsZero()) return R::Error("SmtMultiProof: zero leaf value");
      if (!proof.leaves.empty() && !(proof.leaves.rbegin()->first < key)) {
        return R::Error("SmtMultiProof: leaves out of order");
      }
      proof.leaves.emplace_hint(proof.leaves.end(), key, vh);
    }
    dec.ExpectEnd();
    return proof;
  } catch (const DecodeError& e) {
    return R::Error(std::string("SmtMultiProof: ") + e.what());
  }
}

}  // namespace dcert::mht
