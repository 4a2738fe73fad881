// Domain-separated hashing conventions shared by every authenticated data
// structure in DCert. Each node kind gets its own tag byte so that a leaf of
// one structure can never be confused with an internal node of another.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace dcert::mht {

enum class NodeTag : std::uint8_t {
  kMerkleLeaf = 0x00,      // binary MHT leaf
  kMerkleInternal = 0x01,  // binary MHT internal node
  kSmtLeaf = 0x02,         // sparse Merkle tree leaf
  kMbLeaf = 0x04,          // Merkle B-tree leaf node
  kMbInternal = 0x05,      // Merkle B-tree internal node
  kMptLeaf = 0x06,         // Merkle Patricia trie leaf
  kMptBranch = 0x07,       // Merkle Patricia trie branch
  kSkipNode = 0x08,        // authenticated skip list node
  kChainStep = 0x09,       // hash-chain bucket step (inverted index)
  // Sparse Merkle tree internal node: 0x10 + 3 * kind(left) + kind(right),
  // kinds 0 = empty, 1 = leaf, 2 = internal (0x10..0x18), so a parent binds
  // what each child is as well as its hash.
  kSmtInternal = 0x10,
};

/// H(tag || payload).
Hash256 TaggedDigest(NodeTag tag, ByteView payload);

/// H(tag || left || right) — the two-child internal node idiom.
Hash256 TaggedDigest2(NodeTag tag, const Hash256& left, const Hash256& right);

/// One sibling-pair hash job for the batched internal-node idiom. `out` may
/// alias `left` or `right`: the message is materialized before any digest is
/// written back.
struct NodePairJob {
  const Hash256* left = nullptr;
  const Hash256* right = nullptr;
  Hash256* out = nullptr;
};

/// Batched TaggedDigest2: out[i] = H(tag || *left[i] || *right[i]), fed
/// through the multi-buffer SHA-256 backend (the 65-byte message is exactly
/// two padded blocks). Byte-identical to calling TaggedDigest2 per job.
void TaggedDigest2Many(NodeTag tag, const NodePairJob* jobs, std::size_t n);

/// One 32-byte-payload hash job (the leaf idiom over a digest).
struct NodeLeafJob {
  const Hash256* payload = nullptr;
  Hash256* out = nullptr;
};

/// Batched TaggedDigest over 32-byte payloads: out[i] = H(tag || *payload[i])
/// (a 33-byte message, exactly one padded block).
void TaggedDigestMany32(NodeTag tag, const NodeLeafJob* jobs, std::size_t n);

/// Writes the constant bytes of the 128-byte pre-padded H(tag || l || r)
/// message into `slot`: tag at 0, 0x80 terminator, zeros, and the 520-bit
/// length. The caller fills bytes [1,33) and [33,65) with the operands and
/// hands the slot to crypto::HashPadded with m=2. Lets long fold chains keep
/// one persistent slot per chain and store each level's digest directly into
/// the next message (see SMT batch rehash).
void PrePadPairSlot(std::uint8_t* slot, NodeTag tag);

}  // namespace dcert::mht
