// Merkle B+-tree (MB-tree, Li et al. SIGMOD'06) keyed by 64-bit timestamps,
// with *authenticated aggregates*: every node binds the (count, sum) of its
// subtree into its hash, so COUNT/SUM queries verify in O(log n) without
// shipping the values (the "complex queries such as aggregations" the paper
// points to via Xu et al. [32]). The aggregated word of an entry is the
// little-endian 64-bit prefix of its value (exactly the encoding DCert's
// historical index stores).
//
// The lower level of DCert's two-level historical index (paper Fig. 5): each
// account owns one MB-tree of its time-stamped state versions.
//
// Authenticated operations:
//  * RangeQueryWithProof — returns the versions in [lo, hi] plus a pruned-
//    subtree proof whose min/max separators establish completeness.
//  * AggregateQueryWithProof — verifiable (count, sum) over [lo, hi]; fully
//    covered subtrees contribute their bound aggregates as stubs.
//  * ProveAppend / ApplyAppend — a rightmost-spine proof that lets the
//    *enclave* recompute the new root (and aggregates) after appending a
//    version without holding the tree (the index analogue of Alg. 4 lines
//    9-10).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/serialize.h"
#include "common/status.h"

namespace dcert::mht {

/// One queried version: timestamp key plus the stored value.
struct MbEntry {
  std::uint64_t key = 0;
  Bytes value;

  bool operator==(const MbEntry&) const = default;
};

/// Subtree aggregate bound into every node hash.
struct MbAggregate {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;  // wrapping sum of the entries' value words

  MbAggregate& operator+=(const MbAggregate& o) {
    count += o.count;
    sum += o.sum;
    return *this;
  }
  bool operator==(const MbAggregate&) const = default;
};

/// The aggregated word of a stored value: its little-endian u64 prefix
/// (0 when shorter than 8 bytes).
std::uint64_t MbValueWord(const Bytes& value);

/// Shared proof-node shape for range proofs, aggregate proofs, and append
/// spines. Pruned subtrees appear as (min, max, agg, hash) stubs; expanded
/// ones recurse.
struct MbProofNode {
  struct LeafEntry {
    std::uint64_t key = 0;
    Hash256 value_hash;
    /// Aggregated word of the value, bound by the leaf hash; when the full
    /// value is present the verifier cross-checks MbValueWord(value).
    std::uint64_t value_word = 0;
    std::optional<Bytes> value;  // present for in-range results only
  };
  struct Child {
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    MbAggregate agg;                     // bound by the parent hash
    Hash256 hash;                        // required for pruned children
    std::unique_ptr<MbProofNode> node;   // null = pruned stub
  };

  bool is_leaf = false;
  std::vector<LeafEntry> entries;   // leaf payload
  std::vector<Child> children;      // internal payload

  void Encode(Encoder& enc) const;
  static std::unique_ptr<MbProofNode> Decode(Decoder& dec, int depth = 0);
};

/// Proof for a range query [lo, hi].
struct MbRangeProof {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::unique_ptr<MbProofNode> root;  // null for the empty tree

  Bytes Serialize() const;
  static Result<MbRangeProof> Deserialize(ByteView data);
  std::size_t ByteSize() const { return Serialize().size(); }
};

/// Rightmost-spine proof enabling a stateless append.
struct MbAppendProof {
  std::unique_ptr<MbProofNode> root;  // null for the empty tree

  Bytes Serialize() const;
  static Result<MbAppendProof> Deserialize(ByteView data);
};

class MbTree {
 public:
  /// Maximum entries per leaf / children per internal node. Small enough to
  /// exercise splits constantly in tests, large enough to be realistic.
  static constexpr std::size_t kFanout = 8;

  MbTree();
  ~MbTree();
  MbTree(MbTree&&) noexcept;
  MbTree& operator=(MbTree&&) noexcept;
  MbTree(const MbTree&) = delete;
  MbTree& operator=(const MbTree&) = delete;

  /// Inserts a version. Keys must be unique; duplicate keys throw
  /// std::invalid_argument (a block never writes the same account twice at
  /// one timestamp).
  void Insert(std::uint64_t key, Bytes value);

  /// Bulk insert: identical to calling Insert per entry in order, but all
  /// value digests are computed in one multi-buffer hash dispatch first.
  void InsertBatch(std::vector<MbEntry> entries);

  Hash256 Root() const;
  std::size_t Size() const { return size_; }
  std::optional<std::uint64_t> MaxKey() const;
  /// Node slots the tree's arena has carved (memory footprint, for tests).
  std::size_t ArenaSlots() const;

  /// Every stored entry in key order (an in-order leaf walk, no proofs):
  /// the raw content a checkpoint serializes. Re-inserting the returned
  /// entries into a fresh tree (InsertBatch) reproduces Root() exactly.
  std::vector<MbEntry> Entries() const;

  /// Authenticated range query: all entries with key in [lo, hi].
  MbRangeProof RangeQueryWithProof(std::uint64_t lo, std::uint64_t hi) const;

  /// Verifies a range proof against a trusted root and extracts the results.
  /// Fails on tampered values, missing entries, or out-of-order structure.
  static Result<std::vector<MbEntry>> VerifyRange(const Hash256& root,
                                                  std::uint64_t lo,
                                                  std::uint64_t hi,
                                                  const MbRangeProof& proof);

  /// Authenticated aggregation: proof for (count, sum) over keys in
  /// [lo, hi]. Fully covered subtrees stay pruned — proof size is O(log n)
  /// regardless of how many entries the window covers.
  MbRangeProof AggregateQueryWithProof(std::uint64_t lo, std::uint64_t hi) const;

  /// Verifies an aggregate proof and returns the window's (count, sum).
  static Result<MbAggregate> VerifyAggregate(const Hash256& root,
                                             std::uint64_t lo, std::uint64_t hi,
                                             const MbRangeProof& proof);

  /// Aggregate of the whole tree.
  MbAggregate TotalAggregate() const;

  /// Builds the rightmost-spine proof for the *current* tree (before append).
  MbAppendProof ProveAppend() const;

  /// Path proof for a *general* stateless insert of `key` (which need not
  /// exceed existing keys): the canonical descend path Insert() would take,
  /// with every off-path child as a stub. Same wire shape as append spines.
  MbAppendProof ProveInsert(std::uint64_t key) const;

  /// Stateless append: recomputes the root after appending (key, value_hash,
  /// value_word), verifying the spine against `old_root` first. `key` must
  /// exceed every existing key; `value_word` is MbValueWord of the appended
  /// value (the enclave derives it from the write data). Deterministically
  /// mirrors Insert()'s split rule, so the returned hash equals Root() after
  /// the equivalent Insert.
  static Result<Hash256> ApplyAppend(const Hash256& old_root,
                                     const MbAppendProof& proof,
                                     std::uint64_t key,
                                     const Hash256& value_hash,
                                     std::uint64_t value_word);

  /// Stateless *general* insert: verifies that `proof` is the canonical
  /// descend path for `key` against `old_root` (the expanded child of every
  /// internal node must sit exactly where Insert() would descend, which the
  /// verifier recomputes from the bound stub separators), that the key is
  /// absent, and returns the post-insert root. Mirrors Insert() exactly.
  static Result<Hash256> ApplyInsert(const Hash256& old_root,
                                     const MbAppendProof& proof,
                                     std::uint64_t key,
                                     const Hash256& value_hash,
                                     std::uint64_t value_word);

  /// Root hash of the empty tree (a fixed constant).
  static Hash256 EmptyRoot();

  /// Exposed for the implementation's free helper functions only.
  struct Node;

 private:
  void InsertWithHash(std::uint64_t key, Bytes value, const Hash256& value_hash);

  // The arena outlives root_ (declared first => destroyed last); see
  // common/arena.h for the lifetime rules.
  std::unique_ptr<common::Arena<Node>> arena_;
  common::ArenaPtr<Node> root_;
  std::size_t size_ = 0;
};

}  // namespace dcert::mht
