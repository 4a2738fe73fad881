// Merkle B-tree: range queries with completeness, stateless appends.
#include "mht/mbtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "crypto/sha256.h"

namespace dcert::mht {
namespace {

Bytes Val(std::uint64_t k) { return StrBytes("value-" + std::to_string(k)); }

MbTree BuildSequential(std::uint64_t n) {
  MbTree tree;
  for (std::uint64_t k = 1; k <= n; ++k) tree.Insert(k, Val(k));
  return tree;
}

TEST(MbTreeTest, EmptyTree) {
  MbTree tree;
  EXPECT_EQ(tree.Root(), MbTree::EmptyRoot());
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_FALSE(tree.MaxKey().has_value());

  MbRangeProof proof = tree.RangeQueryWithProof(1, 10);
  auto results = MbTree::VerifyRange(tree.Root(), 1, 10, proof);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results.value().empty());
}

TEST(MbTreeTest, OneEntryTreeCarvesFewArenaSlots) {
  // A HistoricalIndex holds one MB-tree per account, most of them tiny: the
  // fixed heap of a small tree is what its arena carves up front.
  MbTree tree;
  EXPECT_EQ(tree.ArenaSlots(), 0u);
  tree.Insert(1, Val(1));
  EXPECT_GE(tree.ArenaSlots(), 1u);
  EXPECT_LE(tree.ArenaSlots(), 4u);
  // A full tree still grows geometrically: slots stay within a small factor
  // of the node count.
  MbTree big = BuildSequential(5000);
  EXPECT_GE(big.ArenaSlots(), 5000u / MbTree::kFanout);
  EXPECT_LE(big.ArenaSlots(), 4 * 5000u / MbTree::kFanout);
}

TEST(MbTreeTest, InsertAndQuerySmall) {
  MbTree tree = BuildSequential(5);
  EXPECT_EQ(tree.Size(), 5u);
  EXPECT_EQ(tree.MaxKey(), 5u);
  MbRangeProof proof = tree.RangeQueryWithProof(2, 4);
  auto results = MbTree::VerifyRange(tree.Root(), 2, 4, proof);
  ASSERT_TRUE(results.ok()) << results.message();
  ASSERT_EQ(results.value().size(), 3u);
  EXPECT_EQ(results.value()[0], (MbEntry{2, Val(2)}));
  EXPECT_EQ(results.value()[2], (MbEntry{4, Val(4)}));
}

TEST(MbTreeTest, DuplicateKeyThrows) {
  MbTree tree = BuildSequential(3);
  EXPECT_THROW(tree.Insert(2, Val(2)), std::invalid_argument);
}

TEST(MbTreeTest, NonSequentialInsertOrder) {
  // Root hash must be a function of contents, not insertion order.
  std::vector<std::uint64_t> keys{5, 1, 9, 3, 7, 2, 8, 4, 6, 10};
  MbTree a;
  for (std::uint64_t k : keys) a.Insert(k, Val(k));
  MbTree b = BuildSequential(10);
  // Different insertion orders can produce different tree *shapes* in a
  // B-tree, so compare query results rather than roots.
  for (auto* t : {&a, &b}) {
    auto res = MbTree::VerifyRange(t->Root(), 3, 8, t->RangeQueryWithProof(3, 8));
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res.value().size(), 6u);
    for (std::uint64_t k = 3; k <= 8; ++k) {
      EXPECT_EQ(res.value()[k - 3].key, k);
    }
  }
}

TEST(MbTreeTest, EmptyRangeBetweenKeys) {
  MbTree tree;
  tree.Insert(10, Val(10));
  tree.Insert(20, Val(20));
  MbRangeProof proof = tree.RangeQueryWithProof(12, 18);
  auto results = MbTree::VerifyRange(tree.Root(), 12, 18, proof);
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results.value().empty());
}

TEST(MbTreeTest, ProofBoundToRange) {
  MbTree tree = BuildSequential(50);
  MbRangeProof proof = tree.RangeQueryWithProof(10, 20);
  EXPECT_FALSE(MbTree::VerifyRange(tree.Root(), 10, 25, proof).ok());
  EXPECT_FALSE(MbTree::VerifyRange(tree.Root(), 5, 20, proof).ok());
}

TEST(MbTreeTest, TamperedValueRejected) {
  MbTree tree = BuildSequential(30);
  MbRangeProof proof = tree.RangeQueryWithProof(5, 10);
  // Find an in-range leaf entry and corrupt its value.
  std::function<bool(MbProofNode*)> corrupt = [&](MbProofNode* node) {
    if (node->is_leaf) {
      for (auto& e : node->entries) {
        if (e.value) {
          (*e.value)[0] ^= 1;
          return true;
        }
      }
      return false;
    }
    for (auto& c : node->children) {
      if (c.node && corrupt(c.node.get())) return true;
    }
    return false;
  };
  ASSERT_TRUE(corrupt(proof.root.get()));
  EXPECT_FALSE(MbTree::VerifyRange(tree.Root(), 5, 10, proof).ok());
}

TEST(MbTreeTest, DroppedResultRejected) {
  // Completeness: removing an in-range entry from the proof breaks the root.
  MbTree tree = BuildSequential(30);
  MbRangeProof proof = tree.RangeQueryWithProof(5, 10);
  std::function<bool(MbProofNode*)> drop = [&](MbProofNode* node) {
    if (node->is_leaf) {
      for (std::size_t i = 0; i < node->entries.size(); ++i) {
        if (node->entries[i].value) {
          node->entries.erase(node->entries.begin() + static_cast<std::ptrdiff_t>(i));
          return true;
        }
      }
      return false;
    }
    for (auto& c : node->children) {
      if (c.node && drop(c.node.get())) return true;
    }
    return false;
  };
  ASSERT_TRUE(drop(proof.root.get()));
  EXPECT_FALSE(MbTree::VerifyRange(tree.Root(), 5, 10, proof).ok());
}

TEST(MbTreeTest, PrunedOverlappingSubtreeRejected) {
  // A malicious SP pruning a subtree that intersects the range is caught.
  MbTree tree = BuildSequential(100);
  MbRangeProof proof = tree.RangeQueryWithProof(40, 60);
  // Prune the first expanded child of the root.
  ASSERT_FALSE(proof.root->is_leaf);
  bool pruned = false;
  for (auto& c : proof.root->children) {
    if (c.node) {
      c.node.reset();
      pruned = true;
      break;
    }
  }
  ASSERT_TRUE(pruned);
  EXPECT_FALSE(MbTree::VerifyRange(tree.Root(), 40, 60, proof).ok());
}

TEST(MbTreeTest, WrongRootRejected) {
  MbTree tree = BuildSequential(20);
  MbRangeProof proof = tree.RangeQueryWithProof(1, 5);
  Hash256 wrong = tree.Root();
  wrong[0] ^= 1;
  EXPECT_FALSE(MbTree::VerifyRange(wrong, 1, 5, proof).ok());
}

TEST(MbTreeTest, ProofSerializationRoundTrip) {
  MbTree tree = BuildSequential(64);
  MbRangeProof proof = tree.RangeQueryWithProof(30, 40);
  Bytes wire = proof.Serialize();
  auto decoded = MbRangeProof::Deserialize(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.message();
  auto results = MbTree::VerifyRange(tree.Root(), 30, 40, decoded.value());
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results.value().size(), 11u);

  Bytes truncated(wire.begin(), wire.end() - 3);
  EXPECT_FALSE(MbRangeProof::Deserialize(truncated).ok());
}

TEST(MbTreeTest, ApplyAppendMatchesInsertFromEmpty) {
  MbTree tree;
  Hash256 root = MbTree::EmptyRoot();
  for (std::uint64_t k = 1; k <= 100; ++k) {
    MbAppendProof spine = tree.ProveAppend();
    Bytes value = Val(k);
    Hash256 vh = crypto::Sha256::Digest(value);
    auto predicted = MbTree::ApplyAppend(root, spine, k, vh, MbValueWord(value));
    ASSERT_TRUE(predicted.ok()) << "k=" << k << ": " << predicted.message();
    tree.Insert(k, value);
    EXPECT_EQ(predicted.value(), tree.Root()) << "k=" << k;
    root = predicted.value();
  }
}

TEST(MbTreeTest, ApplyAppendRejectsNonIncreasingKey) {
  MbTree tree = BuildSequential(10);
  MbAppendProof spine = tree.ProveAppend();
  Hash256 vh = crypto::Sha256::Digest(Val(5));
  std::uint64_t vw = MbValueWord(Val(5));
  EXPECT_FALSE(MbTree::ApplyAppend(tree.Root(), spine, 10, vh, vw).ok());
  EXPECT_FALSE(MbTree::ApplyAppend(tree.Root(), spine, 5, vh, vw).ok());
  EXPECT_TRUE(MbTree::ApplyAppend(tree.Root(), spine, 11, vh, vw).ok());
}

TEST(MbTreeTest, ApplyAppendRejectsWrongOldRoot) {
  MbTree tree = BuildSequential(10);
  MbAppendProof spine = tree.ProveAppend();
  Hash256 wrong = tree.Root();
  wrong[3] ^= 1;
  EXPECT_FALSE(MbTree::ApplyAppend(wrong, spine, 11,
                                   crypto::Sha256::Digest(Val(11)),
                                   MbValueWord(Val(11)))
                   .ok());
}

TEST(MbTreeTest, ApplyAppendRejectsTamperedSpine) {
  MbTree tree = BuildSequential(40);
  MbAppendProof spine = tree.ProveAppend();
  ASSERT_FALSE(spine.root->is_leaf);
  spine.root->children[0].hash[0] ^= 1;
  EXPECT_FALSE(MbTree::ApplyAppend(tree.Root(), spine, 41,
                                   crypto::Sha256::Digest(Val(41)),
                                   MbValueWord(Val(41)))
                   .ok());
}

TEST(MbTreeTest, AppendProofSerializationRoundTrip) {
  MbTree tree = BuildSequential(25);
  MbAppendProof spine = tree.ProveAppend();
  auto decoded = MbAppendProof::Deserialize(spine.Serialize());
  ASSERT_TRUE(decoded.ok());
  auto applied = MbTree::ApplyAppend(tree.Root(), decoded.value(), 26,
                                     crypto::Sha256::Digest(Val(26)),
                                     MbValueWord(Val(26)));
  ASSERT_TRUE(applied.ok());
  tree.Insert(26, Val(26));
  EXPECT_EQ(applied.value(), tree.Root());
}

// Property sweep over tree sizes: every window of a random tree verifies and
// returns exactly the expected keys.
class MbTreeRangeSweep : public ::testing::TestWithParam<int> {};

TEST_P(MbTreeRangeSweep, WindowsReturnExactKeys) {
  const std::uint64_t n = static_cast<std::uint64_t>(GetParam());
  MbTree tree = BuildSequential(n);
  Rng rng(n);
  for (int trial = 0; trial < 20; ++trial) {
    std::uint64_t lo = rng.NextRange(0, n + 2);
    std::uint64_t hi = rng.NextRange(lo, n + 2);
    auto res = MbTree::VerifyRange(tree.Root(), lo, hi,
                                   tree.RangeQueryWithProof(lo, hi));
    ASSERT_TRUE(res.ok()) << "n=" << n << " [" << lo << "," << hi
                          << "]: " << res.message();
    std::vector<std::uint64_t> expected;
    for (std::uint64_t k = std::max<std::uint64_t>(lo, 1); k <= std::min(hi, n); ++k) {
      expected.push_back(k);
    }
    ASSERT_EQ(res.value().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(res.value()[i].key, expected[i]);
      EXPECT_EQ(res.value()[i].value, Val(expected[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MbTreeRangeSweep,
                         ::testing::Values(1, 2, 7, 8, 9, 17, 64, 65, 200, 500));

}  // namespace
}  // namespace dcert::mht
