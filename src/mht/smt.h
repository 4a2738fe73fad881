// Sparse Merkle Tree over hashed keys — the commitment used for the chain's
// global state (H_state in the block header, the binary tree of the paper's
// Fig. 1/Fig. 4).
//
// The tree is conceptually a full binary tree of depth kDepth whose leaf slots
// are addressed by the first kDepth bits of the (hashed) key; empty subtrees
// hash to precomputed defaults. The in-memory representation is
// path-compressed (singleton subtrees are stored as a single leaf node), so
// storage is O(#keys) while hashes remain identical to the full-depth model.
//
// Two halves of the paper's protocol live here:
//  * the untrusted CI calls ProveKeys() to build the update proof π_i over the
//    read/write key set (Alg. 1 line 3), and
//  * the trusted enclave calls ComputeRootFromProof() twice — once with the
//    old leaf values to implement verify_mht (Alg. 2 line 17/22) and once with
//    the written values to implement update (Alg. 2 line 23) — without ever
//    holding the full state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/serialize.h"
#include "common/status.h"

namespace dcert::common {
class ThreadPool;
}

namespace dcert::mht {

/// Identifies one node of the conceptual full-depth tree: the node at `level`
/// whose path from the root is the first `level` bits of `prefix` (remaining
/// bits zero). Level 0 is the root, level kDepth the leaves.
struct SmtNodeId {
  std::uint16_t level = 0;
  Hash256 prefix;

  auto operator<=>(const SmtNodeId&) const = default;
};

/// Sibling hashes needed to recompute the root for a covered key set.
/// Entries equal to the level's default hash are omitted.
struct SmtMultiProof {
  std::map<SmtNodeId, Hash256> siblings;

  Bytes Serialize() const;
  static Result<SmtMultiProof> Deserialize(ByteView data);
  std::size_t ByteSize() const { return siblings.size() * (2 + 32 + 32) + 4; }
};

class SparseMerkleTree {
 public:
  /// Path depth in bits. 160 key-prefix bits keep second-preimage resistance
  /// at the usual 160-bit level while costing 60% of the full-depth hashing.
  static constexpr int kDepth = 160;

  SparseMerkleTree();
  ~SparseMerkleTree();
  SparseMerkleTree(SparseMerkleTree&&) noexcept;
  SparseMerkleTree& operator=(SparseMerkleTree&&) noexcept;
  SparseMerkleTree(const SparseMerkleTree&) = delete;
  SparseMerkleTree& operator=(const SparseMerkleTree&) = delete;

  /// Sets the value hash stored under `key`. A zero value hash deletes the
  /// key (an empty slot and a zero-valued slot are the same thing).
  void Update(const Hash256& key, const Hash256& value_hash);

  /// Deferred-rehash strategy for bulk updates. kBatched collects dirty
  /// nodes per level and feeds sibling-pair jobs through the multi-buffer
  /// hasher (crypto::HashMany lanes); kPerNode is the legacy recursive
  /// per-node walk, kept as the equivalence baseline for tests and A/B
  /// benches. Both produce byte-identical trees.
  enum class RehashMode { kBatched, kPerNode };

  /// Bulk update: applies every (key, value-hash) entry (zero value hash =
  /// delete), deferring internal-node hashing to one bottom-up pass at the
  /// end; large batches fan independent dirty subtrees out across `pool`.
  /// The resulting tree (hashes, structure) is identical to calling Update
  /// per entry in map order.
  void UpdateBatch(const std::map<Hash256, Hash256>& entries);
  void UpdateBatchWith(const std::map<Hash256, Hash256>& entries,
                       common::ThreadPool& pool,
                       RehashMode mode = RehashMode::kBatched);

  /// Returns the stored value hash, or the zero hash when absent.
  Hash256 Get(const Hash256& key) const;

  Hash256 Root() const;
  std::size_t Size() const { return size_; }
  /// Node slots the tree's arena has carved (memory footprint, for tests).
  std::size_t ArenaSlots() const;

  /// Builds a multiproof covering every key in `keys` (present or absent —
  /// absence is provable). Duplicates are fine. Large key sets are proved in
  /// parallel over the shared pool; the proof is byte-identical to the
  /// serial one (sibling sets are merged into one ordered map).
  SmtMultiProof ProveKeys(const std::vector<Hash256>& keys) const;
  SmtMultiProof ProveKeysSerial(const std::vector<Hash256>& keys) const;
  SmtMultiProof ProveKeysParallel(const std::vector<Hash256>& keys,
                                  common::ThreadPool& pool) const;

  /// Stateless root recomputation: given a multiproof and the claimed leaf
  /// values for the covered keys (zero hash = absent), recomputes the root.
  /// Used by the enclave both to *verify* claimed values against a trusted
  /// root and to *update* the root after overwriting some of the leaves.
  /// The proof must cover exactly the keys of `leaves` (missing siblings make
  /// the computed root wrong, which the caller's comparison then catches).
  static Hash256 ComputeRootFromProof(
      const SmtMultiProof& proof, const std::map<Hash256, Hash256>& leaves);

  /// Default (all-empty) subtree hash at `level` in [0, kDepth].
  static const Hash256& DefaultHash(int level);

  /// Hash of an occupied leaf slot; binds the full key, not just the path.
  static Hash256 LeafNodeHash(const Hash256& key, const Hash256& value_hash);

 private:
  struct Node;
  using NodePtr = common::ArenaPtr<Node>;

  /// Smallest per-thread share of a multiproof key set worth a task handoff.
  static constexpr std::size_t kMinKeysPerChunk = 16;

  /// A deferred sibling fold discovered during proof collection; the actual
  /// hash chain runs batched across all pending folds afterwards.
  struct PendingFold {
    SmtNodeId id;
    Hash256 key;
    Hash256 value_hash;
  };

  /// Appends the proof siblings for one key to `sink`; resident-leaf
  /// siblings that need a default-fold are deferred into `folds` (ids
  /// covered by other proof keys, per `paths`, are skipped).
  void CollectSiblings(const Hash256& key, const std::vector<Hash256>& paths,
                       std::map<SmtNodeId, Hash256>& sink,
                       std::vector<PendingFold>& folds) const;

  /// Batch-resolves deferred folds into `sink` (multi-buffer hashing across
  /// all pending chains), preserving the first-insertion-wins map semantics.
  static void ResolveFolds(std::vector<PendingFold>& folds,
                           std::map<SmtNodeId, Hash256>& sink);

  NodePtr MakeNode();
  NodePtr InsertRec(NodePtr node, int level, const Hash256& key,
                    const Hash256& value_hash, bool defer_hash);
  NodePtr RemoveRec(NodePtr node, int level, const Hash256& key, bool& removed,
                    bool defer_hash);
  /// Recomputes the hashes of dirty subtrees bottom-up, per-node (legacy).
  /// With a pool, dirty sibling subtrees in the top `par_levels` levels run
  /// concurrently.
  static void RehashRec(Node* node, int level, common::ThreadPool* pool,
                        int par_levels);
  /// Level-batched rehash: dirty leaves fold level-by-level across the whole
  /// batch, dirty branches hash per depth, all through the multi-buffer
  /// hasher; large levels shard over `pool`.
  static void RehashBatched(Node* root, common::ThreadPool* pool);

  // The arena outlives root_ (declared first => destroyed last), which is
  // what makes the ArenaPtr-based tree safe to tear down member-wise.
  std::unique_ptr<common::Arena<Node>> arena_;
  NodePtr root_;
  std::size_t size_ = 0;
};

}  // namespace dcert::mht
