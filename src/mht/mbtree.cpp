#include "mht/mbtree.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/sha256.h"
#include "crypto/sha256_batch.h"
#include "mht/node_hash.h"

namespace dcert::mht {

std::uint64_t MbValueWord(const Bytes& value) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < 8 && i < value.size(); ++i) {
    word |= static_cast<std::uint64_t>(value[i]) << (8 * i);
  }
  return word;
}

namespace {

constexpr int kMaxProofDepth = 64;

/// (hash, min, max, agg) summary of a subtree — the unit hashed into parents.
struct Triple {
  Hash256 hash;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  MbAggregate agg;
};

/// Leaf entry in hashable form.
struct LeafTuple {
  std::uint64_t key = 0;
  Hash256 value_hash;
  std::uint64_t value_word = 0;
};

Hash256 LeafHash(const std::vector<LeafTuple>& entries) {
  Encoder enc;
  enc.U32(static_cast<std::uint32_t>(entries.size()));
  for (const LeafTuple& e : entries) {
    enc.U64(e.key);
    enc.HashField(e.value_hash);
    enc.U64(e.value_word);
  }
  return TaggedDigest(NodeTag::kMbLeaf, enc.bytes());
}

MbAggregate LeafAggregate(const std::vector<LeafTuple>& entries) {
  MbAggregate agg;
  for (const LeafTuple& e : entries) {
    agg.count += 1;
    agg.sum += e.value_word;
  }
  return agg;
}

Hash256 InternalHash(const std::vector<Triple>& children) {
  Encoder enc;
  enc.U32(static_cast<std::uint32_t>(children.size()));
  for (const Triple& c : children) {
    enc.U64(c.min);
    enc.U64(c.max);
    enc.U64(c.agg.count);
    enc.U64(c.agg.sum);
    enc.HashField(c.hash);
  }
  return TaggedDigest(NodeTag::kMbInternal, enc.bytes());
}

MbAggregate SumAggregates(const std::vector<Triple>& children) {
  MbAggregate agg;
  for (const Triple& c : children) agg += c.agg;
  return agg;
}

}  // namespace

struct MbTree::Node {
  bool is_leaf = true;
  // Leaf payload (parallel arrays, sorted by key).
  std::vector<std::uint64_t> keys;
  std::vector<Bytes> values;
  std::vector<Hash256> value_hashes;
  // Internal payload (children sorted by min key).
  std::vector<common::ArenaPtr<Node>> children;

  Hash256 hash;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  MbAggregate agg;

  std::vector<LeafTuple> LeafTuples() const {
    std::vector<LeafTuple> tuples;
    tuples.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      tuples.push_back({keys[i], value_hashes[i], MbValueWord(values[i])});
    }
    return tuples;
  }

  void Recompute() {
    if (is_leaf) {
      std::vector<LeafTuple> tuples = LeafTuples();
      hash = LeafHash(tuples);
      agg = LeafAggregate(tuples);
      if (!keys.empty()) {
        min = keys.front();
        max = keys.back();
      }
    } else {
      std::vector<Triple> triples;
      triples.reserve(children.size());
      for (const auto& c : children) {
        triples.push_back({c->hash, c->min, c->max, c->agg});
      }
      hash = InternalHash(triples);
      agg = SumAggregates(triples);
      min = children.front()->min;
      max = children.back()->max;
    }
  }
};

MbTree::MbTree() : arena_(std::make_unique<common::Arena<Node>>()) {}
MbTree::~MbTree() = default;

std::size_t MbTree::ArenaSlots() const {
  return arena_ ? arena_->SlotCount() : 0;
}
MbTree::MbTree(MbTree&&) noexcept = default;
MbTree& MbTree::operator=(MbTree&& o) noexcept {
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

Hash256 MbTree::EmptyRoot() { return LeafHash({}); }

Hash256 MbTree::Root() const { return root_ ? root_->hash : EmptyRoot(); }

MbAggregate MbTree::TotalAggregate() const {
  return root_ ? root_->agg : MbAggregate{};
}

std::optional<std::uint64_t> MbTree::MaxKey() const {
  if (!root_) return std::nullopt;
  return root_->max;
}

std::vector<MbEntry> MbTree::Entries() const {
  std::vector<MbEntry> out;
  out.reserve(size_);
  if (!root_) return out;
  // Iterative in-order walk; children and leaf keys are already sorted.
  std::vector<const Node*> stack{root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf) {
      for (std::size_t i = 0; i < node->keys.size(); ++i) {
        out.push_back({node->keys[i], node->values[i]});
      }
    } else {
      for (auto it = node->children.rbegin(); it != node->children.rend(); ++it) {
        stack.push_back(it->get());
      }
    }
  }
  return out;
}

namespace {

using MbNodePtr = common::ArenaPtr<MbTree::Node>;
using MbArena = common::Arena<MbTree::Node>;

/// Recursive insert; returns the split-off right sibling if the node overflowed.
MbNodePtr InsertRec(MbArena& arena, MbTree::Node* node, std::uint64_t key,
                    Bytes value, Hash256 value_hash);

}  // namespace

void MbTree::Insert(std::uint64_t key, Bytes value) {
  Hash256 vh = crypto::Sha256::Digest(value);
  InsertWithHash(key, std::move(value), vh);
}

void MbTree::InsertBatch(std::vector<MbEntry> entries) {
  // One multi-buffer dispatch for every value digest, then the structural
  // inserts reuse the precomputed hashes. Identical to sequential Inserts.
  std::vector<Hash256> hashes(entries.size());
  std::vector<crypto::HashJob> jobs(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    jobs[i] = {entries[i].value.data(), entries[i].value.size(), &hashes[i]};
  }
  crypto::HashMany(jobs.data(), jobs.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    InsertWithHash(entries[i].key, std::move(entries[i].value), hashes[i]);
  }
}

void MbTree::InsertWithHash(std::uint64_t key, Bytes value,
                            const Hash256& value_hash) {
  if (!root_) {
    root_ = common::MakeArenaPtr(*arena_);
    root_->is_leaf = true;
    root_->keys.push_back(key);
    root_->values.push_back(std::move(value));
    root_->value_hashes.push_back(value_hash);
    root_->Recompute();
    size_ = 1;
    return;
  }
  auto sibling = InsertRec(*arena_, root_.get(), key, std::move(value), value_hash);
  if (sibling) {
    auto new_root = common::MakeArenaPtr(*arena_);
    new_root->is_leaf = false;
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    new_root->Recompute();
    root_ = std::move(new_root);
  }
  ++size_;
}

namespace {

MbNodePtr SplitIfNeeded(MbArena& arena, MbTree::Node* node) {
  const std::size_t count = node->is_leaf ? node->keys.size() : node->children.size();
  if (count <= MbTree::kFanout) {
    node->Recompute();
    return nullptr;
  }
  // Deterministic split: left keeps ceil(n/2). ApplyAppend mirrors this rule.
  const std::size_t left_count = (count + 1) / 2;
  auto right = common::MakeArenaPtr(arena);
  right->is_leaf = node->is_leaf;
  if (node->is_leaf) {
    right->keys.assign(node->keys.begin() + static_cast<std::ptrdiff_t>(left_count),
                       node->keys.end());
    right->values.assign(
        std::make_move_iterator(node->values.begin() +
                                static_cast<std::ptrdiff_t>(left_count)),
        std::make_move_iterator(node->values.end()));
    right->value_hashes.assign(
        node->value_hashes.begin() + static_cast<std::ptrdiff_t>(left_count),
        node->value_hashes.end());
    node->keys.resize(left_count);
    node->values.resize(left_count);
    node->value_hashes.resize(left_count);
  } else {
    right->children.assign(
        std::make_move_iterator(node->children.begin() +
                                static_cast<std::ptrdiff_t>(left_count)),
        std::make_move_iterator(node->children.end()));
    node->children.resize(left_count);
  }
  node->Recompute();
  right->Recompute();
  return right;
}

MbNodePtr InsertRec(MbArena& arena, MbTree::Node* node, std::uint64_t key,
                    Bytes value, Hash256 value_hash) {
  if (node->is_leaf) {
    auto it = std::lower_bound(node->keys.begin(), node->keys.end(), key);
    if (it != node->keys.end() && *it == key) {
      throw std::invalid_argument("MbTree::Insert: duplicate key");
    }
    auto idx = static_cast<std::size_t>(it - node->keys.begin());
    node->keys.insert(it, key);
    node->values.insert(node->values.begin() + static_cast<std::ptrdiff_t>(idx),
                        std::move(value));
    node->value_hashes.insert(
        node->value_hashes.begin() + static_cast<std::ptrdiff_t>(idx), value_hash);
    return SplitIfNeeded(arena, node);
  }
  // Descend into the last child whose min does not exceed the key.
  std::size_t idx = 0;
  for (std::size_t i = 0; i < node->children.size(); ++i) {
    if (node->children[i]->min <= key) idx = i;
  }
  auto sibling =
      InsertRec(arena, node->children[idx].get(), key, std::move(value), value_hash);
  if (sibling) {
    node->children.insert(node->children.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
                          std::move(sibling));
  }
  return SplitIfNeeded(arena, node);
}

MbProofNode::Child StubOf(const MbTree::Node& child) {
  MbProofNode::Child c;
  c.min = child.min;
  c.max = child.max;
  c.agg = child.agg;
  c.hash = child.hash;
  return c;
}

void FillLeafEntries(const MbTree::Node& node, MbProofNode& out,
                     std::uint64_t lo, std::uint64_t hi, bool with_values) {
  for (std::size_t i = 0; i < node.keys.size(); ++i) {
    MbProofNode::LeafEntry e;
    e.key = node.keys[i];
    e.value_hash = node.value_hashes[i];
    e.value_word = MbValueWord(node.values[i]);
    if (with_values && e.key >= lo && e.key <= hi) e.value = node.values[i];
    out.entries.push_back(std::move(e));
  }
}

std::unique_ptr<MbProofNode> BuildRangeProof(const MbTree::Node* node,
                                             std::uint64_t lo, std::uint64_t hi) {
  auto out = std::make_unique<MbProofNode>();
  out->is_leaf = node->is_leaf;
  if (node->is_leaf) {
    FillLeafEntries(*node, *out, lo, hi, /*with_values=*/true);
    return out;
  }
  for (const auto& child : node->children) {
    MbProofNode::Child c = StubOf(*child);
    if (child->min <= hi && child->max >= lo) {
      c.node = BuildRangeProof(child.get(), lo, hi);
    }
    out->children.push_back(std::move(c));
  }
  return out;
}

/// Aggregate proofs keep fully covered subtrees pruned: their bound
/// (count, sum) stubs are the whole contribution.
std::unique_ptr<MbProofNode> BuildAggregateProof(const MbTree::Node* node,
                                                 std::uint64_t lo,
                                                 std::uint64_t hi) {
  auto out = std::make_unique<MbProofNode>();
  out->is_leaf = node->is_leaf;
  if (node->is_leaf) {
    // Values only for the in-range entries (the verifier cross-checks their
    // words); out-of-range entries stay hash+word only.
    FillLeafEntries(*node, *out, lo, hi, /*with_values=*/true);
    return out;
  }
  for (const auto& child : node->children) {
    MbProofNode::Child c = StubOf(*child);
    const bool overlaps = child->min <= hi && child->max >= lo;
    const bool fully_covered = child->min >= lo && child->max <= hi;
    if (overlaps && !fully_covered) {
      c.node = BuildAggregateProof(child.get(), lo, hi);
    }
    out->children.push_back(std::move(c));
  }
  return out;
}

/// Canonical descend index: the last child whose min does not exceed `key`
/// (0 when every min exceeds it) — exactly InsertRec's rule.
std::size_t DescendIndex(const std::vector<MbProofNode::Child>& children,
                         std::uint64_t key) {
  std::size_t idx = 0;
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (children[i].min <= key) idx = i;
  }
  return idx;
}

std::unique_ptr<MbProofNode> BuildInsertPath(const MbTree::Node* node,
                                             std::uint64_t key) {
  auto out = std::make_unique<MbProofNode>();
  out->is_leaf = node->is_leaf;
  if (node->is_leaf) {
    FillLeafEntries(*node, *out, 1, 0, /*with_values=*/false);
    return out;
  }
  std::size_t idx = 0;
  for (std::size_t i = 0; i < node->children.size(); ++i) {
    if (node->children[i]->min <= key) idx = i;
    out->children.push_back(StubOf(*node->children[i]));
  }
  out->children[idx].node = BuildInsertPath(node->children[idx].get(), key);
  return out;
}

std::unique_ptr<MbProofNode> BuildSpine(const MbTree::Node* node) {
  auto out = std::make_unique<MbProofNode>();
  out->is_leaf = node->is_leaf;
  if (node->is_leaf) {
    FillLeafEntries(*node, *out, 1, 0, /*with_values=*/false);  // empty range
    return out;
  }
  for (const auto& child : node->children) out->children.push_back(StubOf(*child));
  out->children.back().node = BuildSpine(node->children.back().get());
  return out;
}

}  // namespace

MbRangeProof MbTree::RangeQueryWithProof(std::uint64_t lo, std::uint64_t hi) const {
  MbRangeProof proof;
  proof.lo = lo;
  proof.hi = hi;
  if (root_) proof.root = BuildRangeProof(root_.get(), lo, hi);
  return proof;
}

MbRangeProof MbTree::AggregateQueryWithProof(std::uint64_t lo,
                                             std::uint64_t hi) const {
  MbRangeProof proof;
  proof.lo = lo;
  proof.hi = hi;
  if (root_) proof.root = BuildAggregateProof(root_.get(), lo, hi);
  return proof;
}

MbAppendProof MbTree::ProveAppend() const {
  MbAppendProof proof;
  if (root_) proof.root = BuildSpine(root_.get());
  return proof;
}

MbAppendProof MbTree::ProveInsert(std::uint64_t key) const {
  MbAppendProof proof;
  if (root_) proof.root = BuildInsertPath(root_.get(), key);
  return proof;
}

namespace {

enum class ProofMode {
  kRange,      // every overlapping subtree expanded; collect entries
  kAggregate,  // fully covered subtrees may stay pruned; collect aggregates
  kSpine,      // no range semantics (append verification)
};

/// Recomputes (hash, min, max, agg) of a proof node, enforcing structural
/// invariants and the mode's completeness rules. Collected range results go
/// to `results`; aggregate contributions to `agg_out` (either may be null).
Status CheckProofNode(const MbProofNode& n, std::uint64_t lo, std::uint64_t hi,
                      ProofMode mode, int depth, Triple& out,
                      std::vector<MbEntry>* results, MbAggregate* agg_out) {
  if (depth > kMaxProofDepth) return Status::Error("proof too deep");
  if (n.is_leaf) {
    if (n.entries.empty()) return Status::Error("empty leaf in proof");
    std::vector<LeafTuple> tuples;
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& e : n.entries) {
      if (!first && e.key <= prev) return Status::Error("leaf keys not ascending");
      first = false;
      prev = e.key;
      const bool in_range = mode != ProofMode::kSpine && e.key >= lo && e.key <= hi;
      if (e.value.has_value()) {
        if (crypto::Sha256::Digest(*e.value) != e.value_hash) {
          return Status::Error("leaf value does not match its hash");
        }
        if (MbValueWord(*e.value) != e.value_word) {
          return Status::Error("leaf value word does not match its value");
        }
      }
      if (in_range) {
        if (mode == ProofMode::kRange) {
          if (!e.value.has_value()) {
            return Status::Error("in-range entry missing value");
          }
          if (results != nullptr) results->push_back({e.key, *e.value});
        }
        if (agg_out != nullptr) {
          agg_out->count += 1;
          agg_out->sum += e.value_word;
        }
      }
      tuples.push_back({e.key, e.value_hash, e.value_word});
    }
    out = {LeafHash(tuples), n.entries.front().key, n.entries.back().key,
           LeafAggregate(tuples)};
    return Status::Ok();
  }

  if (n.children.empty()) return Status::Error("internal proof node without children");
  std::vector<Triple> triples;
  std::uint64_t prev_max = 0;
  bool first = true;
  for (const auto& c : n.children) {
    Triple t;
    if (c.node) {
      Status st = CheckProofNode(*c.node, lo, hi, mode, depth + 1, t, results,
                                 agg_out);
      if (!st) return st;
      // The computed summary is authoritative; declared stub fields for an
      // expanded child are ignored.
    } else {
      const bool overlaps =
          mode != ProofMode::kSpine && c.min <= hi && c.max >= lo;
      const bool fully_covered =
          mode != ProofMode::kSpine && c.min >= lo && c.max <= hi;
      if (mode == ProofMode::kRange && overlaps) {
        return Status::Error("pruned subtree overlaps the query range");
      }
      if (mode == ProofMode::kAggregate && overlaps && !fully_covered) {
        return Status::Error("pruned subtree straddles the aggregate window");
      }
      if (mode == ProofMode::kAggregate && fully_covered && agg_out != nullptr) {
        *agg_out += c.agg;
      }
      t = {c.hash, c.min, c.max, c.agg};
    }
    if (t.min > t.max) return Status::Error("child range inverted");
    if (!first && t.min <= prev_max) return Status::Error("children out of order");
    first = false;
    prev_max = t.max;
    triples.push_back(t);
  }
  out = {InternalHash(triples), triples.front().min, triples.back().max,
         SumAggregates(triples)};
  return Status::Ok();
}

}  // namespace

Result<std::vector<MbEntry>> MbTree::VerifyRange(const Hash256& root,
                                                 std::uint64_t lo, std::uint64_t hi,
                                                 const MbRangeProof& proof) {
  using R = Result<std::vector<MbEntry>>;
  if (proof.lo != lo || proof.hi != hi) {
    return R::Error("proof was generated for a different range");
  }
  if (!proof.root) {
    if (root != EmptyRoot()) return R::Error("empty proof for non-empty tree");
    return std::vector<MbEntry>{};
  }
  std::vector<MbEntry> results;
  Triple t;
  Status st = CheckProofNode(*proof.root, lo, hi, ProofMode::kRange, 0, t,
                             &results, nullptr);
  if (!st) return R(st);
  if (t.hash != root) return R::Error("proof does not reconstruct the root");
  return results;
}

Result<MbAggregate> MbTree::VerifyAggregate(const Hash256& root, std::uint64_t lo,
                                            std::uint64_t hi,
                                            const MbRangeProof& proof) {
  using R = Result<MbAggregate>;
  if (proof.lo != lo || proof.hi != hi) {
    return R::Error("proof was generated for a different window");
  }
  if (!proof.root) {
    if (root != EmptyRoot()) return R::Error("empty proof for non-empty tree");
    return MbAggregate{};
  }
  MbAggregate agg;
  Triple t;
  Status st = CheckProofNode(*proof.root, lo, hi, ProofMode::kAggregate, 0, t,
                             nullptr, &agg);
  if (!st) return R(st);
  if (t.hash != root) return R::Error("proof does not reconstruct the root");
  return agg;
}

namespace {

/// Mirror of Insert's append path over proof nodes: appends the new entry to
/// the rightmost leaf, splitting with the same ceil(n/2) rule. Returns the
/// new (hash, min, max, agg) and, when the node split, the right sibling's
/// summary.
struct ApplyResult {
  Triple main;
  std::optional<Triple> split;
};

/// Shared by appends and general inserts: the expanded child sits at
/// `expanded_idx` of each internal node; the leaf inserts at sorted position.
Result<ApplyResult> ApplyInsertRec(const MbProofNode& n, std::uint64_t key,
                                   const Hash256& value_hash,
                                   std::uint64_t value_word) {
  using R = Result<ApplyResult>;
  if (n.is_leaf) {
    std::vector<LeafTuple> entries;
    entries.reserve(n.entries.size() + 1);
    for (const auto& e : n.entries) {
      if (e.key == key) return R::Error("insert key already present");
      entries.push_back({e.key, e.value_hash, e.value_word});
    }
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), key,
        [](const LeafTuple& t, std::uint64_t k) { return t.key < k; });
    entries.insert(pos, {key, value_hash, value_word});
    if (entries.size() <= MbTree::kFanout) {
      return ApplyResult{{LeafHash(entries), entries.front().key,
                          entries.back().key, LeafAggregate(entries)},
                         std::nullopt};
    }
    std::size_t left_count = (entries.size() + 1) / 2;
    std::vector<LeafTuple> left(entries.begin(),
                                entries.begin() +
                                    static_cast<std::ptrdiff_t>(left_count));
    std::vector<LeafTuple> right(
        entries.begin() + static_cast<std::ptrdiff_t>(left_count), entries.end());
    return ApplyResult{
        {LeafHash(left), left.front().key, left.back().key, LeafAggregate(left)},
        Triple{LeafHash(right), right.front().key, right.back().key,
               LeafAggregate(right)}};
  }

  // Locate the (single) expanded child; CheckInsertShape already enforced it
  // sits at the canonical descend index.
  std::size_t expanded_idx = n.children.size();
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    if (n.children[i].node) expanded_idx = i;
  }
  if (expanded_idx >= n.children.size()) {
    return R::Error("insert path missing expanded child");
  }

  std::vector<Triple> triples;
  triples.reserve(n.children.size() + 1);
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    if (i == expanded_idx) {
      auto child_result =
          ApplyInsertRec(*n.children[i].node, key, value_hash, value_word);
      if (!child_result) return child_result;
      triples.push_back(child_result.value().main);
      if (child_result.value().split) {
        triples.push_back(*child_result.value().split);
      }
    } else {
      const auto& c = n.children[i];
      triples.push_back({c.hash, c.min, c.max, c.agg});
    }
  }

  if (triples.size() <= MbTree::kFanout) {
    return ApplyResult{{InternalHash(triples), triples.front().min,
                        triples.back().max, SumAggregates(triples)},
                       std::nullopt};
  }
  std::size_t left_count = (triples.size() + 1) / 2;
  std::vector<Triple> left(triples.begin(),
                           triples.begin() + static_cast<std::ptrdiff_t>(left_count));
  std::vector<Triple> right(triples.begin() + static_cast<std::ptrdiff_t>(left_count),
                            triples.end());
  return ApplyResult{{InternalHash(left), left.front().min, left.back().max,
                      SumAggregates(left)},
                     Triple{InternalHash(right), right.front().min,
                            right.back().max, SumAggregates(right)}};
}

ApplyResult ApplyAppendRec(const MbProofNode& n, std::uint64_t key,
                           const Hash256& value_hash, std::uint64_t value_word) {
  // Appends always target the rightmost path, which CheckSpineShape enforced
  // is the expanded one — reuse the general machinery.
  return ApplyInsertRec(n, key, value_hash, value_word).value();
}

/// Structural check for general insert paths: exactly one expanded child per
/// internal node, located at the canonical descend index for `key`.
Status CheckInsertShape(const MbProofNode& n, std::uint64_t key, int depth) {
  if (depth > kMaxProofDepth) return Status::Error("insert path too deep");
  if (n.is_leaf) return Status::Ok();
  if (n.children.empty()) return Status::Error("internal node without children");
  std::size_t expected = DescendIndex(n.children, key);
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    const bool expanded = n.children[i].node != nullptr;
    if (expanded != (i == expected)) {
      return Status::Error("insert path does not follow the canonical descent");
    }
  }
  return CheckInsertShape(*n.children[expected].node, key, depth + 1);
}

/// Structural check for append spines: exactly the last child of every
/// internal node is expanded.
Status CheckSpineShape(const MbProofNode& n, int depth) {
  if (depth > kMaxProofDepth) return Status::Error("spine too deep");
  if (n.is_leaf) return Status::Ok();
  if (n.children.empty()) return Status::Error("internal spine node without children");
  for (std::size_t i = 0; i + 1 < n.children.size(); ++i) {
    if (n.children[i].node) return Status::Error("non-rightmost child expanded");
  }
  if (!n.children.back().node) return Status::Error("rightmost child not expanded");
  return CheckSpineShape(*n.children.back().node, depth + 1);
}

}  // namespace

Result<Hash256> MbTree::ApplyAppend(const Hash256& old_root,
                                    const MbAppendProof& proof, std::uint64_t key,
                                    const Hash256& value_hash,
                                    std::uint64_t value_word) {
  using R = Result<Hash256>;
  if (!proof.root) {
    if (old_root != EmptyRoot()) {
      return R::Error("empty append proof for non-empty tree");
    }
    return LeafHash({{key, value_hash, value_word}});
  }
  Status shape = CheckSpineShape(*proof.root, 0);
  if (!shape) return R(shape);

  Triple current;
  Status st = CheckProofNode(*proof.root, 0, 0, ProofMode::kSpine, 0, current,
                             nullptr, nullptr);
  if (!st) return R(st.WithContext("append spine"));
  if (current.hash != old_root) {
    return R::Error("append spine does not reconstruct the old root");
  }
  if (key <= current.max) {
    return R::Error("append key must exceed the current maximum");
  }

  ApplyResult applied = ApplyAppendRec(*proof.root, key, value_hash, value_word);
  if (!applied.split) return applied.main.hash;
  // Root split: a new root over both halves.
  return InternalHash({applied.main, *applied.split});
}

Result<Hash256> MbTree::ApplyInsert(const Hash256& old_root,
                                    const MbAppendProof& proof, std::uint64_t key,
                                    const Hash256& value_hash,
                                    std::uint64_t value_word) {
  using R = Result<Hash256>;
  if (!proof.root) {
    if (old_root != EmptyRoot()) {
      return R::Error("empty insert proof for non-empty tree");
    }
    return LeafHash({{key, value_hash, value_word}});
  }
  if (Status st = CheckInsertShape(*proof.root, key, 0); !st) return R(st);

  Triple current;
  Status st = CheckProofNode(*proof.root, 0, 0, ProofMode::kSpine, 0, current,
                             nullptr, nullptr);
  if (!st) return R(st.WithContext("insert path"));
  if (current.hash != old_root) {
    return R::Error("insert path does not reconstruct the old root");
  }

  auto applied = ApplyInsertRec(*proof.root, key, value_hash, value_word);
  if (!applied) return R(applied.status());
  if (!applied.value().split) return applied.value().main.hash;
  return InternalHash({applied.value().main, *applied.value().split});
}

void MbProofNode::Encode(Encoder& enc) const {
  enc.Bool(is_leaf);
  if (is_leaf) {
    enc.U32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& e : entries) {
      enc.U64(e.key);
      enc.HashField(e.value_hash);
      enc.U64(e.value_word);
      enc.Bool(e.value.has_value());
      if (e.value) enc.Blob(*e.value);
    }
    return;
  }
  enc.U32(static_cast<std::uint32_t>(children.size()));
  for (const auto& c : children) {
    enc.U64(c.min);
    enc.U64(c.max);
    enc.U64(c.agg.count);
    enc.U64(c.agg.sum);
    enc.HashField(c.hash);
    enc.Bool(c.node != nullptr);
    if (c.node) c.node->Encode(enc);
  }
}

std::unique_ptr<MbProofNode> MbProofNode::Decode(Decoder& dec, int depth) {
  if (depth > kMaxProofDepth) throw DecodeError("MbProofNode: nesting too deep");
  auto node = std::make_unique<MbProofNode>();
  node->is_leaf = dec.Bool();
  std::uint32_t n = dec.U32();
  if (node->is_leaf) {
    for (std::uint32_t i = 0; i < n; ++i) {
      LeafEntry e;
      e.key = dec.U64();
      e.value_hash = dec.HashField();
      e.value_word = dec.U64();
      if (dec.Bool()) e.value = dec.Blob();
      node->entries.push_back(std::move(e));
    }
    return node;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    Child c;
    c.min = dec.U64();
    c.max = dec.U64();
    c.agg.count = dec.U64();
    c.agg.sum = dec.U64();
    c.hash = dec.HashField();
    if (dec.Bool()) c.node = Decode(dec, depth + 1);
    node->children.push_back(std::move(c));
  }
  return node;
}

Bytes MbRangeProof::Serialize() const {
  Encoder enc;
  enc.U64(lo);
  enc.U64(hi);
  enc.Bool(root != nullptr);
  if (root) root->Encode(enc);
  return enc.Take();
}

Result<MbRangeProof> MbRangeProof::Deserialize(ByteView data) {
  try {
    Decoder dec(data);
    MbRangeProof proof;
    proof.lo = dec.U64();
    proof.hi = dec.U64();
    if (dec.Bool()) proof.root = MbProofNode::Decode(dec);
    dec.ExpectEnd();
    return proof;
  } catch (const DecodeError& e) {
    return Result<MbRangeProof>::Error(std::string("MbRangeProof: ") + e.what());
  }
}

Bytes MbAppendProof::Serialize() const {
  Encoder enc;
  enc.Bool(root != nullptr);
  if (root) root->Encode(enc);
  return enc.Take();
}

Result<MbAppendProof> MbAppendProof::Deserialize(ByteView data) {
  try {
    Decoder dec(data);
    MbAppendProof proof;
    if (dec.Bool()) proof.root = MbProofNode::Decode(dec);
    dec.ExpectEnd();
    return proof;
  } catch (const DecodeError& e) {
    return Result<MbAppendProof>::Error(std::string("MbAppendProof: ") + e.what());
  }
}

}  // namespace dcert::mht
