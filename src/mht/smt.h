// Sparse Merkle Tree over hashed keys — the commitment used for the chain's
// global state (H_state in the block header, the binary tree of the paper's
// Fig. 1/Fig. 4).
//
// Keys address a binary trie by their first kDepth bits. A subtree's hash
// depends only on the keys it holds:
//  * none: the constant EmptyHash();
//  * exactly one: LeafNodeHash(key, value_hash), at whatever level the key
//    becomes alone — where the paper's Ethereum MPT and Diem's Jellyfish
//    Merkle tree end a path;
//  * two or more: H(tag || left || right), the tag binding each child's kind
//    (empty, leaf or internal; see NodeTag::kSmtInternal).
// A path therefore costs about log2(#keys) hashes, not kDepth. The tree
// stores exactly these nodes: one leaf where its key becomes alone, and a
// branch for every subtree of two or more keys, so deleting a key lifts a
// leaf left alone up to where it is alone again.
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
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/serialize.h"
#include "common/status.h"

namespace dcert::mht {

/// Identifies one node of the trie: the node at `level` whose path from the
/// root is the first `level` bits of `prefix` (remaining bits zero). Level 0
/// is the root.
struct SmtNodeId {
  std::uint16_t level = 0;
  Hash256 prefix;

  auto operator<=>(const SmtNodeId&) const = default;
};

/// Everything beside the covered keys' paths that the root depends on: each
/// nonempty subtree hanging off a covered path, and the leaf a covered key's
/// path ends at when another key sits there. A subtree holding one key
/// travels as that key's (key, value hash), so a verifier can split it (a
/// covered key inserted into its slot), lift it (its covered neighbours
/// deleted) or prove a covered key absent; one with two or more keys
/// travels as its hash.
struct SmtMultiProof {
  /// Subtrees of two or more keys, by node.
  std::map<SmtNodeId, Hash256> siblings;
  /// Subtrees of one key: key -> value hash (never zero).
  std::map<Hash256, Hash256> leaves;

  /// Canonical: entries in map order. Deserialize accepts only that order
  /// (strictly ascending, canonical prefixes, nonzero values), so any bytes
  /// it accepts re-serialize to themselves.
  Bytes Serialize() const;
  static Result<SmtMultiProof> Deserialize(ByteView data);
  std::size_t ByteSize() const {
    return 4 + siblings.size() * (2 + 32 + 32) + 4 + leaves.size() * (32 + 32);
  }
};

class SparseMerkleTree {
 public:
  /// Path depth in bits: keys whose first 160 bits agree address one slot.
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

  /// Bulk update: applies every (key, value-hash) entry (zero value hash =
  /// delete), deferring hashing to one bottom-up pass over the changed
  /// nodes at the end. The resulting tree (hashes, structure) is identical to
  /// calling Update per entry in map order.
  void UpdateBatch(const std::map<Hash256, Hash256>& entries);

  /// Returns the stored value hash, or the zero hash when absent.
  Hash256 Get(const Hash256& key) const;

  Hash256 Root() const;
  std::size_t Size() const { return size_; }
  /// Node slots the tree's arena has carved (memory footprint, for tests).
  std::size_t ArenaSlots() const;

  /// Builds a multiproof covering every key in `keys` (present or absent —
  /// absence is provable). Duplicates are fine.
  SmtMultiProof ProveKeys(const std::vector<Hash256>& keys) const;

  /// Stateless root recomputation: given a multiproof and the claimed leaf
  /// values for the covered keys (zero hash = absent), recomputes the root.
  /// Used by the enclave both to *verify* claimed values against a trusted
  /// root and to *update* the root after overwriting some of the leaves.
  /// Missing or wrong proof entries make the computed root wrong, which the
  /// caller's comparison then catches. A proof that contradicts the covered
  /// keys — a proof leaf on a covered key's path, a proof subtree a covered
  /// path runs into, an entry inside a proof subtree, or two entries on one
  /// path — yields the zero hash, which is no tree's root.
  static Hash256 ComputeRootFromProof(
      const SmtMultiProof& proof, const std::map<Hash256, Hash256>& leaves);

  /// Root of the empty tree (and hash of every empty subtree).
  static const Hash256& EmptyHash();

  /// Hash of a subtree holding exactly one key; binds the full key.
  static Hash256 LeafNodeHash(const Hash256& key, const Hash256& value_hash);

 private:
  struct Node;
  using NodePtr = common::ArenaPtr<Node>;

  /// Adds to `proof` what the subtree at `node` (level `level`) contributes
  /// for the sorted covered `paths` that run through it.
  static void Prove(const Node* node, int level, std::span<const Hash256> paths,
                    SmtMultiProof& proof);

  NodePtr MakeNode();
  NodePtr InsertRec(NodePtr node, int level, const Hash256& key,
                    const Hash256& value_hash, bool defer_hash);
  NodePtr RemoveRec(NodePtr node, int level, const Hash256& key, bool& removed,
                    bool defer_hash);
  /// Recomputes the hashes of the dirty nodes under `root`, level by level
  /// from the deepest, each level in one batch.
  static void Rehash(Node* root);

  // The arena outlives root_ (declared first => destroyed last), which is
  // what makes the ArenaPtr-based tree safe to tear down member-wise.
  std::unique_ptr<common::Arena<Node>> arena_;
  NodePtr root_;
  std::size_t size_ = 0;
};

}  // namespace dcert::mht
