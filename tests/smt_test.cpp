// Sparse Merkle Tree: root semantics, multiproofs, and the stateless
// verify/update path the enclave depends on.
#include "mht/smt.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"

namespace dcert::mht {
namespace {

Hash256 Key(const std::string& s) { return crypto::Sha256::Digest(StrBytes(s)); }
Hash256 Val(const std::string& s) {
  return crypto::Sha256::Digest(StrBytes("value:" + s));
}

TEST(SmtTest, EmptyTreeRootIsDefault) {
  SparseMerkleTree tree;
  EXPECT_EQ(tree.Root(), SparseMerkleTree::DefaultHash(0));
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_TRUE(tree.Get(Key("missing")).IsZero());
}

TEST(SmtTest, OneEntryTreeCarvesFewArenaSlots) {
  SparseMerkleTree tree;
  EXPECT_EQ(tree.ArenaSlots(), 0u);
  tree.Update(Key("only"), Val("only"));
  EXPECT_GE(tree.ArenaSlots(), 1u);
  EXPECT_LE(tree.ArenaSlots(), 4u);
  EXPECT_EQ(tree.Get(Key("only")), Val("only"));
}

TEST(SmtTest, InsertGetRoundTrip) {
  SparseMerkleTree tree;
  tree.Update(Key("a"), Val("a"));
  tree.Update(Key("b"), Val("b"));
  EXPECT_EQ(tree.Get(Key("a")), Val("a"));
  EXPECT_EQ(tree.Get(Key("b")), Val("b"));
  EXPECT_TRUE(tree.Get(Key("c")).IsZero());
  EXPECT_EQ(tree.Size(), 2u);
}

TEST(SmtTest, OverwriteChangesRootAndValue) {
  SparseMerkleTree tree;
  tree.Update(Key("k"), Val("v1"));
  Hash256 r1 = tree.Root();
  tree.Update(Key("k"), Val("v2"));
  EXPECT_NE(tree.Root(), r1);
  EXPECT_EQ(tree.Get(Key("k")), Val("v2"));
  EXPECT_EQ(tree.Size(), 1u);
}

TEST(SmtTest, DeleteRestoresPreviousRoot) {
  SparseMerkleTree tree;
  tree.Update(Key("x"), Val("x"));
  Hash256 with_x = tree.Root();
  tree.Update(Key("y"), Val("y"));
  tree.Update(Key("y"), Hash256());  // zero value deletes
  EXPECT_EQ(tree.Root(), with_x);
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_TRUE(tree.Get(Key("y")).IsZero());

  tree.Update(Key("x"), Hash256());
  EXPECT_EQ(tree.Root(), SparseMerkleTree::DefaultHash(0));
  EXPECT_EQ(tree.Size(), 0u);
}

TEST(SmtTest, RootIsInsertionOrderIndependent) {
  std::vector<std::pair<Hash256, Hash256>> kvs;
  for (int i = 0; i < 50; ++i) {
    kvs.emplace_back(Key("k" + std::to_string(i)), Val("v" + std::to_string(i)));
  }
  SparseMerkleTree forward, backward;
  for (const auto& [k, v] : kvs) forward.Update(k, v);
  for (auto it = kvs.rbegin(); it != kvs.rend(); ++it) {
    backward.Update(it->first, it->second);
  }
  EXPECT_EQ(forward.Root(), backward.Root());
}

TEST(SmtTest, MembershipProofVerifies) {
  SparseMerkleTree tree;
  for (int i = 0; i < 20; ++i) {
    tree.Update(Key("k" + std::to_string(i)), Val("v" + std::to_string(i)));
  }
  SmtMultiProof proof = tree.ProveKeys({Key("k3"), Key("k7")});
  std::map<Hash256, Hash256> leaves{{Key("k3"), Val("v3")}, {Key("k7"), Val("v7")}};
  EXPECT_EQ(SparseMerkleTree::ComputeRootFromProof(proof, leaves), tree.Root());
}

TEST(SmtTest, NonMembershipProofVerifies) {
  SparseMerkleTree tree;
  for (int i = 0; i < 20; ++i) {
    tree.Update(Key("k" + std::to_string(i)), Val("v" + std::to_string(i)));
  }
  SmtMultiProof proof = tree.ProveKeys({Key("absent")});
  std::map<Hash256, Hash256> leaves{{Key("absent"), Hash256()}};
  EXPECT_EQ(SparseMerkleTree::ComputeRootFromProof(proof, leaves), tree.Root());
}

TEST(SmtTest, WrongValueDoesNotReconstructRoot) {
  SparseMerkleTree tree;
  tree.Update(Key("a"), Val("a"));
  tree.Update(Key("b"), Val("b"));
  SmtMultiProof proof = tree.ProveKeys({Key("a")});
  std::map<Hash256, Hash256> lie{{Key("a"), Val("not-a")}};
  EXPECT_NE(SparseMerkleTree::ComputeRootFromProof(proof, lie), tree.Root());
  std::map<Hash256, Hash256> absent_lie{{Key("a"), Hash256()}};
  EXPECT_NE(SparseMerkleTree::ComputeRootFromProof(proof, absent_lie), tree.Root());
}

TEST(SmtTest, TamperedProofDoesNotReconstructRoot) {
  SparseMerkleTree tree;
  for (int i = 0; i < 10; ++i) {
    tree.Update(Key("k" + std::to_string(i)), Val("v" + std::to_string(i)));
  }
  SmtMultiProof proof = tree.ProveKeys({Key("k0")});
  ASSERT_FALSE(proof.siblings.empty());
  proof.siblings.begin()->second[0] ^= 1;
  std::map<Hash256, Hash256> leaves{{Key("k0"), Val("v0")}};
  EXPECT_NE(SparseMerkleTree::ComputeRootFromProof(proof, leaves), tree.Root());
}

TEST(SmtTest, MaliciousSiblingCannotOverrideCoveredSubtree) {
  // A proof entry that conflicts with a frontier-computed node is ignored.
  SparseMerkleTree tree;
  tree.Update(Key("a"), Val("a"));
  tree.Update(Key("b"), Val("b"));
  SmtMultiProof proof = tree.ProveKeys({Key("a"), Key("b")});
  SmtMultiProof dirty = proof;
  // Inject garbage entries at every level along key a's path.
  for (int lvl = 1; lvl <= 8; ++lvl) {
    SmtNodeId id{static_cast<std::uint16_t>(lvl), Hash256()};
    dirty.siblings[id] = Val("garbage");
  }
  std::map<Hash256, Hash256> leaves{{Key("a"), Val("a")}, {Key("b"), Val("b")}};
  // The genuine leaves must still reconstruct the true root (garbage entries
  // that do not sit on required sibling positions are simply unused, and
  // covered positions prefer the frontier).
  Hash256 root = SparseMerkleTree::ComputeRootFromProof(proof, leaves);
  EXPECT_EQ(root, tree.Root());
}

TEST(SmtTest, StatelessUpdateMatchesInTreeUpdate) {
  SparseMerkleTree tree;
  for (int i = 0; i < 30; ++i) {
    tree.Update(Key("k" + std::to_string(i)), Val("v" + std::to_string(i)));
  }
  Hash256 old_root = tree.Root();

  // The enclave-style flow: prove the touched keys (one existing, one new),
  // verify old values, then recompute the root with new values.
  std::vector<Hash256> touched{Key("k5"), Key("new-key")};
  SmtMultiProof proof = tree.ProveKeys(touched);
  std::map<Hash256, Hash256> old_leaves{{Key("k5"), Val("v5")},
                                        {Key("new-key"), Hash256()}};
  ASSERT_EQ(SparseMerkleTree::ComputeRootFromProof(proof, old_leaves), old_root);

  std::map<Hash256, Hash256> new_leaves{{Key("k5"), Val("v5-updated")},
                                        {Key("new-key"), Val("fresh")}};
  Hash256 predicted = SparseMerkleTree::ComputeRootFromProof(proof, new_leaves);

  tree.Update(Key("k5"), Val("v5-updated"));
  tree.Update(Key("new-key"), Val("fresh"));
  EXPECT_EQ(predicted, tree.Root());
}

TEST(SmtTest, StatelessDeleteMatchesInTreeDelete) {
  SparseMerkleTree tree;
  for (int i = 0; i < 10; ++i) {
    tree.Update(Key("k" + std::to_string(i)), Val("v" + std::to_string(i)));
  }
  SmtMultiProof proof = tree.ProveKeys({Key("k4")});
  std::map<Hash256, Hash256> deleted{{Key("k4"), Hash256()}};
  Hash256 predicted = SparseMerkleTree::ComputeRootFromProof(proof, deleted);
  tree.Update(Key("k4"), Hash256());
  EXPECT_EQ(predicted, tree.Root());
}

TEST(SmtTest, ProofSerializationRoundTrip) {
  SparseMerkleTree tree;
  for (int i = 0; i < 25; ++i) {
    tree.Update(Key("k" + std::to_string(i)), Val("v" + std::to_string(i)));
  }
  SmtMultiProof proof = tree.ProveKeys({Key("k1"), Key("k2"), Key("gone")});
  Bytes wire = proof.Serialize();
  auto decoded = SmtMultiProof::Deserialize(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().siblings, proof.siblings);

  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(SmtMultiProof::Deserialize(truncated).ok());
}

TEST(SmtTest, DefaultHashLevelsChain) {
  // defaults[l] = H(internal, defaults[l+1], defaults[l+1]) — spot check via
  // an insert/delete cycle returning to the default root, plus bounds.
  EXPECT_THROW(SparseMerkleTree::DefaultHash(-1), std::out_of_range);
  EXPECT_THROW(SparseMerkleTree::DefaultHash(SparseMerkleTree::kDepth + 1),
               std::out_of_range);
  EXPECT_NE(SparseMerkleTree::DefaultHash(0),
            SparseMerkleTree::DefaultHash(SparseMerkleTree::kDepth));
}

// Randomized property sweep: a shadow std::map is the oracle for Get and for
// multiproof contents across interleaved inserts, overwrites, and deletes.
class SmtRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtRandomSweep, MatchesShadowModel) {
  Rng rng(GetParam());
  SparseMerkleTree tree;
  std::map<Hash256, Hash256> shadow;
  std::vector<Hash256> universe;
  for (int i = 0; i < 40; ++i) universe.push_back(Key("u" + std::to_string(i)));

  for (int step = 0; step < 300; ++step) {
    const Hash256& k = universe[rng.NextBelow(universe.size())];
    std::uint64_t action = rng.NextBelow(3);
    if (action == 0) {
      tree.Update(k, Hash256());
      shadow.erase(k);
    } else {
      Hash256 v = Val("r" + std::to_string(rng.NextU64()));
      tree.Update(k, v);
      shadow[k] = v;
    }
  }
  EXPECT_EQ(tree.Size(), shadow.size());
  for (const Hash256& k : universe) {
    auto it = shadow.find(k);
    EXPECT_EQ(tree.Get(k), it == shadow.end() ? Hash256() : it->second);
  }
  // Multiproof over a random subset (mixing present and absent keys).
  std::vector<Hash256> subset;
  std::map<Hash256, Hash256> leaves;
  for (int i = 0; i < 8; ++i) {
    const Hash256& k = universe[rng.NextBelow(universe.size())];
    subset.push_back(k);
    auto it = shadow.find(k);
    leaves[k] = it == shadow.end() ? Hash256() : it->second;
  }
  SmtMultiProof proof = tree.ProveKeys(subset);
  EXPECT_EQ(SparseMerkleTree::ComputeRootFromProof(proof, leaves), tree.Root());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtRandomSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// The batched (multi-buffer hash) rehash and the legacy per-node rehash must
// be observationally identical: same roots, byte-identical serialized
// multiproofs, across rounds of overlapping inserts, overwrites, and
// deletes — with and without a thread pool sharding the levels.
TEST(SmtTest, BatchedAndPerNodeRehashAreByteIdentical) {
  Rng rng(0xD0CE);
  common::ThreadPool pool(2);
  SparseMerkleTree per_node;
  SparseMerkleTree batched;
  SparseMerkleTree batched_pooled;
  std::vector<Hash256> universe;
  for (int i = 0; i < 120; ++i) universe.push_back(Key("eq" + std::to_string(i)));

  for (int round = 0; round < 6; ++round) {
    std::map<Hash256, Hash256> entries;
    const std::size_t writes = 10 + rng.NextBelow(60);
    for (std::size_t w = 0; w < writes; ++w) {
      const Hash256& k = universe[rng.NextBelow(universe.size())];
      // A third of the writes are deletes (zero value tombstones).
      entries[k] = rng.NextBelow(3) == 0
                       ? Hash256()
                       : Val("eqv" + std::to_string(rng.NextU64()));
    }
    per_node.UpdateBatchWith(entries, pool,
                             SparseMerkleTree::RehashMode::kPerNode);
    batched.UpdateBatch(entries);
    batched_pooled.UpdateBatchWith(entries, pool,
                                   SparseMerkleTree::RehashMode::kBatched);
    ASSERT_EQ(per_node.Root(), batched.Root()) << "round " << round;
    ASSERT_EQ(per_node.Root(), batched_pooled.Root()) << "round " << round;

    std::vector<Hash256> subset;
    for (int i = 0; i < 12; ++i) {
      subset.push_back(universe[rng.NextBelow(universe.size())]);
    }
    EXPECT_EQ(per_node.ProveKeys(subset).Serialize(),
              batched.ProveKeys(subset).Serialize())
        << "round " << round;
  }
}

}  // namespace
}  // namespace dcert::mht
