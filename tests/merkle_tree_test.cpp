// Binary Merkle Hash Tree: roots, tamper sensitivity, and the tree's shape
// (odd-node promotion) against a recursive reference.
#include "mht/merkle_tree.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "mht/node_hash.h"

namespace dcert::mht {
namespace {

std::vector<Hash256> MakeLeaves(int n) {
  std::vector<Hash256> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(crypto::Sha256::Digest(StrBytes("leaf-" + std::to_string(i))));
  }
  return out;
}

TEST(MerkleTreeTest, EmptyTreeHasFixedRoot) {
  MerkleTree a({});
  MerkleTree b({});
  EXPECT_EQ(a.Root(), b.Root());
  EXPECT_EQ(a.LeafCount(), 0u);
}

TEST(MerkleTreeTest, SingleLeaf) {
  auto leaves = MakeLeaves(1);
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), MerkleTree::LeafHash(leaves[0]));
}

TEST(MerkleTreeTest, RootDependsOnEveryLeaf) {
  auto leaves = MakeLeaves(8);
  Hash256 root = MerkleTree(leaves).Root();
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i][0] ^= 1;
    EXPECT_NE(MerkleTree(mutated).Root(), root) << "leaf " << i;
  }
}

TEST(MerkleTreeTest, RootDependsOnLeafOrder) {
  auto leaves = MakeLeaves(4);
  Hash256 root = MerkleTree(leaves).Root();
  std::swap(leaves[1], leaves[2]);
  EXPECT_NE(MerkleTree(leaves).Root(), root);
}

TEST(MerkleTreeTest, ComputeRootMatchesTree) {
  auto leaves = MakeLeaves(10);
  EXPECT_EQ(MerkleTree::ComputeRoot(leaves), MerkleTree(leaves).Root());
}

/// Split point of a range of `n` > 1 leaves: the largest power of two
/// below `n`. Pairing level by level and promoting odd nodes unchanged gives
/// this shape (the RFC 6962 one).
std::size_t Split(std::size_t n) {
  std::size_t k = 1;
  while (2 * k < n) k *= 2;
  return k;
}

/// Recursive reference root of leaves [lo, hi), with `leaf` standing in at
/// position `at` (pass `at` = hi to change nothing).
Hash256 RefRoot(const std::vector<Hash256>& leaves, std::size_t lo,
                std::size_t hi, std::size_t at, const Hash256& leaf) {
  if (hi - lo == 1) return MerkleTree::LeafHash(lo == at ? leaf : leaves[lo]);
  const std::size_t mid = lo + Split(hi - lo);
  return TaggedDigest2(NodeTag::kMerkleInternal, RefRoot(leaves, lo, mid, at, leaf),
                       RefRoot(leaves, mid, hi, at, leaf));
}

// Property sweep over many sizes (including awkward odd shapes): the root is
// the recursive reference's, so every leaf is provable by the reference's
// audit path, and no other leaf at that position reconstructs the root.
class MerkleTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(MerkleTreeSweep, AllLeavesProvable) {
  const auto n = static_cast<std::size_t>(GetParam());
  auto leaves = MakeLeaves(GetParam());
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), RefRoot(leaves, 0, n, n, Hash256())) << "n=" << n;
  for (std::size_t i = 0; i < n && n > 1; ++i) {
    EXPECT_NE(RefRoot(leaves, 0, n, i, leaves[(i + 1) % n]), tree.Root())
        << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleTreeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33,
                                           64, 100));

}  // namespace
}  // namespace dcert::mht
