// Classic binary Merkle Hash Tree over a fixed leaf list (Fig. 1 of the
// paper). Used for the per-block transaction root and anywhere a static list
// needs a commitment. Odd nodes are promoted unchanged (no duplication, which
// avoids the well-known Bitcoin CVE-2012-2459 mutation).
#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.h"

namespace dcert::mht {

/// Immutable binary MHT built over precomputed leaf hashes.
class MerkleTree {
 public:
  /// Leaves are raw item digests; the tree applies its own leaf tag.
  explicit MerkleTree(std::vector<Hash256> leaf_hashes);

  /// Root of the empty tree is the tagged digest of nothing (a fixed constant).
  Hash256 Root() const { return root_; }
  std::size_t LeafCount() const { return leaf_count_; }

  /// Convenience: root over item digests without keeping the tree.
  static Hash256 ComputeRoot(const std::vector<Hash256>& leaf_hashes);

  /// Leaf-level hash for an item digest (tagged).
  static Hash256 LeafHash(const Hash256& item_digest);

 private:
  Hash256 root_;
  std::size_t leaf_count_;
};

}  // namespace dcert::mht
