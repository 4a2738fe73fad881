// Binary Merkle Hash Tree: roots, audit paths, tamper rejection.
#include "mht/merkle_tree.h"

#include <gtest/gtest.h>

#include "crypto/sha256.h"

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
  MerklePath path = tree.Prove(0);
  EXPECT_TRUE(path.steps.empty());
  EXPECT_TRUE(MerkleTree::VerifyPath(tree.Root(), leaves[0], path).ok());
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

TEST(MerkleTreeTest, ProveOutOfRangeThrows) {
  MerkleTree tree(MakeLeaves(3));
  EXPECT_THROW(tree.Prove(3), std::out_of_range);
}

TEST(MerkleTreeTest, WrongLeafRejected) {
  auto leaves = MakeLeaves(6);
  MerkleTree tree(leaves);
  MerklePath path = tree.Prove(2);
  EXPECT_TRUE(MerkleTree::VerifyPath(tree.Root(), leaves[2], path).ok());
  EXPECT_FALSE(MerkleTree::VerifyPath(tree.Root(), leaves[3], path).ok());
}

TEST(MerkleTreeTest, TamperedPathRejected) {
  auto leaves = MakeLeaves(6);
  MerkleTree tree(leaves);
  MerklePath path = tree.Prove(4);
  ASSERT_FALSE(path.steps.empty());
  path.steps[0].sibling[5] ^= 0xff;
  EXPECT_FALSE(MerkleTree::VerifyPath(tree.Root(), leaves[4], path).ok());
}

TEST(MerkleTreeTest, PathSerializationRoundTrip) {
  auto leaves = MakeLeaves(13);
  MerkleTree tree(leaves);
  MerklePath path = tree.Prove(7);
  Encoder enc;
  path.Encode(enc);
  Decoder dec(enc.bytes());
  MerklePath decoded = MerklePath::Decode(dec);
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_TRUE(MerkleTree::VerifyPath(tree.Root(), leaves[7], decoded).ok());
}

TEST(MerkleTreeTest, PathWithNonCanonicalFlagByteFailsToDecode) {
  // Each step ends with its sibling_on_left flag; read as "true", a 0x02
  // there would give the same path a second byte form that verifies.
  auto leaves = MakeLeaves(13);
  MerkleTree tree(leaves);
  Encoder enc;
  tree.Prove(7).Encode(enc);
  Bytes bytes = enc.Take();
  const std::size_t first_flag = 8 + 4 + 32;  // leaf_index, count, sibling
  ASSERT_GT(bytes.size(), first_flag);
  ASSERT_LE(bytes[first_flag], 1);
  bytes[first_flag] = 0x02;
  Decoder dec(bytes);
  EXPECT_THROW(MerklePath::Decode(dec), DecodeError);
}

TEST(MerkleTreeTest, ComputeRootMatchesTree) {
  auto leaves = MakeLeaves(10);
  EXPECT_EQ(MerkleTree::ComputeRoot(leaves), MerkleTree(leaves).Root());
}

// Property sweep: every leaf of trees of many sizes (including awkward odd
// shapes) has a valid audit path, and no leaf validates at another's path.
class MerkleTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(MerkleTreeSweep, AllLeavesProvable) {
  const int n = GetParam();
  auto leaves = MakeLeaves(n);
  MerkleTree tree(leaves);
  for (int i = 0; i < n; ++i) {
    MerklePath path = tree.Prove(static_cast<std::size_t>(i));
    EXPECT_TRUE(
        MerkleTree::VerifyPath(tree.Root(), leaves[static_cast<std::size_t>(i)], path)
            .ok())
        << "n=" << n << " i=" << i;
    if (n > 1) {
      const auto& other = leaves[static_cast<std::size_t>((i + 1) % n)];
      EXPECT_FALSE(MerkleTree::VerifyPath(tree.Root(), other, path).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleTreeSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33,
                                           64, 100));

}  // namespace
}  // namespace dcert::mht
