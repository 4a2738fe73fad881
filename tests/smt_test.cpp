// Sparse Merkle Tree: root semantics, multiproofs, and the stateless
// verify/update path the enclave depends on.
#include "mht/smt.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "mht/node_hash.h"

namespace dcert::mht {
namespace {

Hash256 Key(const std::string& s) { return crypto::Sha256::Digest(StrBytes(s)); }
Hash256 Val(const std::string& s) {
  return crypto::Sha256::Digest(StrBytes("value:" + s));
}

/// `prefix` followed by decimal `i`. Appending to a named string keeps GCC
/// 12's -Wrestrict false positive on `const char* + string&&` out of the
/// build.
std::string Numbered(const char* prefix, std::uint64_t i) {
  std::string s = prefix;
  s += std::to_string(i);
  return s;
}

TEST(SmtTest, EmptyTreeRootIsDefault) {
  SparseMerkleTree tree;
  EXPECT_EQ(tree.Root(), SparseMerkleTree::EmptyHash());
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
  EXPECT_EQ(tree.Root(), SparseMerkleTree::EmptyHash());
  EXPECT_EQ(tree.Size(), 0u);
}

TEST(SmtTest, RootIsInsertionOrderIndependent) {
  std::vector<std::pair<Hash256, Hash256>> kvs;
  for (int i = 0; i < 50; ++i) {
    kvs.emplace_back(Key(Numbered("k", i)), Val(Numbered("v", i)));
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
    tree.Update(Key(Numbered("k", i)), Val(Numbered("v", i)));
  }
  SmtMultiProof proof = tree.ProveKeys({Key("k3"), Key("k7")});
  std::map<Hash256, Hash256> leaves{{Key("k3"), Val("v3")}, {Key("k7"), Val("v7")}};
  EXPECT_EQ(SparseMerkleTree::ComputeRootFromProof(proof, leaves), tree.Root());
}

TEST(SmtTest, NonMembershipProofVerifies) {
  SparseMerkleTree tree;
  for (int i = 0; i < 20; ++i) {
    tree.Update(Key(Numbered("k", i)), Val(Numbered("v", i)));
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
    tree.Update(Key(Numbered("k", i)), Val(Numbered("v", i)));
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
    tree.Update(Key(Numbered("k", i)), Val(Numbered("v", i)));
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
    tree.Update(Key(Numbered("k", i)), Val(Numbered("v", i)));
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
    tree.Update(Key(Numbered("k", i)), Val(Numbered("v", i)));
  }
  SmtMultiProof proof = tree.ProveKeys({Key("k1"), Key("k2"), Key("gone")});
  Bytes wire = proof.Serialize();
  auto decoded = SmtMultiProof::Deserialize(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().siblings, proof.siblings);

  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(SmtMultiProof::Deserialize(truncated).ok());
}

// Randomized property sweep: a shadow std::map is the oracle for Get and for
// multiproof contents across interleaved inserts, overwrites, and deletes.
class SmtRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtRandomSweep, MatchesShadowModel) {
  Rng rng(GetParam());
  SparseMerkleTree tree;
  std::map<Hash256, Hash256> shadow;
  std::vector<Hash256> universe;
  for (int i = 0; i < 40; ++i) universe.push_back(Key(Numbered("u", i)));

  for (int step = 0; step < 300; ++step) {
    const Hash256& k = universe[rng.NextBelow(universe.size())];
    std::uint64_t action = rng.NextBelow(3);
    if (action == 0) {
      tree.Update(k, Hash256());
      shadow.erase(k);
    } else {
      Hash256 v = Val(Numbered("r", rng.NextU64()));
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

// --- Reference model -------------------------------------------------------

/// A subtree under the hash definition, written out over a sorted list with
/// none of the tree's machinery: kind 0 = empty, 1 = one key, 2 = more.
struct RefSubtree {
  int kind;
  Hash256 hash;
};

RefSubtree RefHash(const std::vector<std::pair<Hash256, Hash256>>& kvs, int level) {
  if (kvs.empty()) return {0, TaggedDigest(NodeTag::kSmtLeaf, {})};
  if (kvs.size() == 1) {
    Bytes payload = kvs[0].first.ToBytes();
    Append(payload, kvs[0].second);
    return {1, TaggedDigest(NodeTag::kSmtLeaf, payload)};
  }
  std::vector<std::pair<Hash256, Hash256>> zero, one;
  for (const auto& kv : kvs) {
    (kv.first.Bit(static_cast<std::size_t>(level)) ? one : zero).push_back(kv);
  }
  const RefSubtree l = RefHash(zero, level + 1);
  const RefSubtree r = RefHash(one, level + 1);
  const auto tag = static_cast<NodeTag>(0x10 + 3 * l.kind + r.kind);
  return {2, TaggedDigest2(tag, l.hash, r.hash)};
}

Hash256 RefRoot(const std::map<Hash256, Hash256>& model) {
  return RefHash({model.begin(), model.end()}, 0).hash;
}

Hash256 FlipKeyBit(Hash256 h, int bit) {
  h[static_cast<std::size_t>(bit / 8)] ^= static_cast<std::uint8_t>(0x80 >> (bit % 8));
  return h;
}

/// Bits `h` shares with `other` from the top.
int CommonBits(const Hash256& h, const Hash256& other) {
  int i = 0;
  while (i < 256 && h.Bit(static_cast<std::size_t>(i)) ==
                        other.Bit(static_cast<std::size_t>(i))) {
    ++i;
  }
  return i;
}

/// `h` with every bit from `level` on cleared (an SmtNodeId prefix).
Hash256 PrefixOf(const Hash256& h, int level) {
  Hash256 out;
  for (int i = 0; i < level; ++i) {
    if (h.Bit(static_cast<std::size_t>(i))) out = FlipKeyBit(out, i);
  }
  return out;
}

/// The keys of `model` under the node (level, prefix of `key`), by the model.
std::vector<std::pair<Hash256, Hash256>> Under(
    const std::map<Hash256, Hash256>& model, const Hash256& key, int level) {
  std::vector<std::pair<Hash256, Hash256>> out;
  for (const auto& kv : model) {
    if (CommonBits(kv.first, key) >= level) out.push_back(kv);
  }
  return out;
}

/// The level at which `key` is alone in `model` (its leaf's level).
int LeafLevel(const std::map<Hash256, Hash256>& model, const Hash256& key) {
  int deepest = 0;
  for (const auto& kv : model) {
    if (kv.first != key) deepest = std::max(deepest, CommonBits(kv.first, key) + 1);
  }
  return deepest;
}

// Seeded rounds of inserts, overwrites and deletes, applied to the tree (one
// UpdateBatch or one Update per key, alternating) and to a std::map whose
// root is the naive recursion above. Keys include near-twins that share 20,
// 100 or 159 path bits, so long single-child chains form and collapse. Each
// round first proves a covered set (written keys plus present and absent
// reads) on the old tree; the stateless roots from that one proof must equal
// the in-tree roots before and after.
class SmtReferenceModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SmtReferenceModelTest, RoundsMatchTreeAndStatelessRoots) {
  Rng rng(GetParam());
  std::vector<Hash256> universe;
  for (int i = 0; i < 96; ++i) {
    universe.push_back(Key(Numbered("model", rng.NextU64())));
  }
  for (int i = 0; i < 8; ++i) {
    for (int bit : {20, 100, 159}) universe.push_back(FlipKeyBit(universe[i], bit));
  }
  SparseMerkleTree tree;
  std::map<Hash256, Hash256> model;
  for (int round = 0; round < 40; ++round) {
    const bool clear_all = round == 39;
    std::map<Hash256, Hash256> batch;
    if (clear_all) {
      for (const auto& [k, v] : model) batch[k] = Hash256();
    } else {
      const std::size_t writes = 1 + rng.NextBelow(40);
      for (std::size_t w = 0; w < writes; ++w) {
        batch[universe[rng.NextBelow(universe.size())]] =
            rng.NextBelow(3) == 0 ? Hash256() : Val(Numbered("mv", rng.NextU64()));
      }
    }
    std::vector<Hash256> covered;
    std::map<Hash256, Hash256> old_leaves;
    const auto cover = [&](const Hash256& k) {
      covered.push_back(k);
      auto it = model.find(k);
      old_leaves[k] = it == model.end() ? Hash256() : it->second;
    };
    for (const auto& [k, v] : batch) cover(k);
    for (int r = 0; r < 6; ++r) cover(universe[rng.NextBelow(universe.size())]);

    const SmtMultiProof proof = tree.ProveKeys(covered);
    ASSERT_EQ(SparseMerkleTree::ComputeRootFromProof(proof, old_leaves), tree.Root())
        << "round " << round;
    const Bytes wire = proof.Serialize();
    auto decoded = SmtMultiProof::Deserialize(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.message();
    EXPECT_EQ(decoded.value().Serialize(), wire);

    std::map<Hash256, Hash256> new_leaves = old_leaves;
    for (const auto& [k, v] : batch) {
      new_leaves[k] = v;
      if (v.IsZero()) {
        model.erase(k);
      } else {
        model[k] = v;
      }
    }
    if (round % 2 == 0) {
      tree.UpdateBatch(batch);
    } else {
      for (const auto& [k, v] : batch) tree.Update(k, v);
    }
    ASSERT_EQ(tree.Root(), RefRoot(model)) << "round " << round;
    ASSERT_EQ(tree.Size(), model.size());
    for (const Hash256& k : universe) {
      auto it = model.find(k);
      ASSERT_EQ(tree.Get(k), it == model.end() ? Hash256() : it->second);
    }
    EXPECT_EQ(SparseMerkleTree::ComputeRootFromProof(decoded.value(), new_leaves),
              tree.Root())
        << "round " << round;
  }
  EXPECT_EQ(tree.Root(), SparseMerkleTree::EmptyHash());
  EXPECT_EQ(tree.Size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SmtReferenceModelTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Adversarial proofs ------------------------------------------------------
//
// Each case starts from an honest proof on a 64-key tree and forges one entry;
// the forged proof must not reproduce the trusted root.

struct AdversarialRig {
  SparseMerkleTree tree;
  std::map<Hash256, Hash256> model;

  AdversarialRig() {
    for (int i = 0; i < 64; ++i) {
      model[Key(Numbered("adv", static_cast<std::uint64_t>(i)))] =
          Val(Numbered("adv", static_cast<std::uint64_t>(i)));
    }
    for (const auto& [k, v] : model) tree.Update(k, v);
  }

  /// A present key whose sibling at its leaf level holds exactly one key
  /// (`one_key_sibling`) or two or more.
  Hash256 KeyWithSibling(bool one_key_sibling) const {
    for (const auto& [k, v] : model) {
      const int level = LeafLevel(model, k);
      const std::size_t n = Under(model, FlipKeyBit(k, level - 1), level).size();
      if ((n == 1) == one_key_sibling) return k;
    }
    ADD_FAILURE() << "no key with the wanted sibling";
    return Hash256();
  }

  Hash256 Root(const SmtMultiProof& proof, const Hash256& key,
               const Hash256& vh) const {
    return SparseMerkleTree::ComputeRootFromProof(proof, {{key, vh}});
  }
};

TEST(SmtAdversarialProofTest, WrongDisplacedLeafRefused) {
  // c is absent and its path ends at k's leaf (they share 150 bits), so
  // inserting c splits k's leaf: the proof must carry k as (key, value).
  AdversarialRig rig;
  const Hash256 k = rig.model.begin()->first;
  const Hash256 vk = rig.model.begin()->second;
  const Hash256 c = FlipKeyBit(k, 150);
  const SmtMultiProof honest = rig.tree.ProveKeys({c});
  ASSERT_EQ(honest.leaves.count(k), 1u);
  ASSERT_EQ(rig.Root(honest, c, Hash256()), rig.tree.Root());

  SmtMultiProof wrong_value = honest;
  wrong_value.leaves[k] = Val("not-k");
  EXPECT_NE(rig.Root(wrong_value, c, Hash256()), rig.tree.Root());

  // Same path, same value, another key: the leaf hash binds the full key.
  SmtMultiProof wrong_key = honest;
  wrong_key.leaves.erase(k);
  wrong_key.leaves[FlipKeyBit(k, 200)] = vk;
  EXPECT_NE(rig.Root(wrong_key, c, Hash256()), rig.tree.Root());

  SmtMultiProof dropped = honest;
  dropped.leaves.erase(k);
  EXPECT_NE(rig.Root(dropped, c, Hash256()), rig.tree.Root());

  // The honest proof predicts the split.
  const Hash256 predicted = rig.Root(honest, c, Val("c"));
  rig.tree.Update(c, Val("c"));
  EXPECT_EQ(predicted, rig.tree.Root());
}

TEST(SmtAdversarialProofTest, PresentKeyClaimedAbsentRefused) {
  AdversarialRig rig;
  const Hash256 c = rig.KeyWithSibling(/*one_key_sibling=*/true);
  const Hash256 vc = rig.model.at(c);
  const SmtMultiProof honest = rig.tree.ProveKeys({c});
  ASSERT_EQ(rig.Root(honest, c, vc), rig.tree.Root());

  // c's own leaf handed over as a proof leaf, c claimed absent.
  SmtMultiProof own_leaf = honest;
  own_leaf.leaves[c] = vc;
  EXPECT_NE(rig.Root(own_leaf, c, Hash256()), rig.tree.Root());

  // c's parent handed over as an opaque subtree (its true hash), c claimed
  // absent.
  const int parent = LeafLevel(rig.model, c) - 1;
  SmtMultiProof opaque_parent = honest;
  for (const auto& kv : Under(rig.model, c, parent)) opaque_parent.leaves.erase(kv.first);
  opaque_parent.siblings[{static_cast<std::uint16_t>(parent), PrefixOf(c, parent)}] =
      RefHash(Under(rig.model, c, parent), parent).hash;
  EXPECT_NE(rig.Root(opaque_parent, c, Hash256()), rig.tree.Root());
}

TEST(SmtAdversarialProofTest, LeafAtWrongLevelOrPrefixRefused) {
  AdversarialRig rig;
  // A subtree of two or more keys claimed to hold one of them alone.
  const Hash256 c = rig.KeyWithSibling(/*one_key_sibling=*/false);
  const int level = LeafLevel(rig.model, c);
  const Hash256 s = FlipKeyBit(c, level - 1);
  const SmtNodeId sib{static_cast<std::uint16_t>(level), PrefixOf(s, level)};
  const SmtMultiProof honest = rig.tree.ProveKeys({c});
  ASSERT_EQ(honest.siblings.count(sib), 1u);
  ASSERT_EQ(rig.Root(honest, c, rig.model.at(c)), rig.tree.Root());
  SmtMultiProof too_high = honest;
  too_high.siblings.erase(sib);
  const auto inside = Under(rig.model, s, level);
  too_high.leaves[inside.front().first] = inside.front().second;
  EXPECT_NE(rig.Root(too_high, c, rig.model.at(c)), rig.tree.Root());

  // A one-key sibling swapped for a genuine leaf that lives elsewhere.
  const Hash256 d = rig.KeyWithSibling(/*one_key_sibling=*/true);
  const SmtMultiProof honest_d = rig.tree.ProveKeys({d});
  const Hash256 d_sib = Under(rig.model, FlipKeyBit(d, LeafLevel(rig.model, d) - 1),
                              LeafLevel(rig.model, d)).front().first;
  ASSERT_EQ(honest_d.leaves.count(d_sib), 1u);
  SmtMultiProof moved = honest_d;
  moved.leaves.erase(d_sib);
  for (const auto& [k, v] : rig.model) {
    if (k != d && k != d_sib && honest_d.leaves.count(k) == 0) {
      moved.leaves[k] = v;
      break;
    }
  }
  EXPECT_NE(rig.Root(moved, d, rig.model.at(d)), rig.tree.Root());
}

TEST(SmtAdversarialProofTest, OpaqueOneKeySiblingOnDeleteRefused) {
  // c's sibling holds one key k. Handed over as an opaque hash instead of
  // (k, value), a verifier could not lift k when c is deleted and would
  // produce a root no honest node computes; the parent's tag binds that the
  // sibling is a leaf, so the old root no longer matches.
  AdversarialRig rig;
  const Hash256 c = rig.KeyWithSibling(/*one_key_sibling=*/true);
  const int level = LeafLevel(rig.model, c);
  const auto sibling = Under(rig.model, FlipKeyBit(c, level - 1), level);
  ASSERT_EQ(sibling.size(), 1u);
  const auto& [k, vk] = sibling.front();
  const SmtMultiProof honest = rig.tree.ProveKeys({c});
  ASSERT_EQ(honest.leaves.count(k), 1u);

  SmtMultiProof forged = honest;
  forged.leaves.erase(k);
  forged.siblings[{static_cast<std::uint16_t>(level), PrefixOf(k, level)}] =
      SparseMerkleTree::LeafNodeHash(k, vk);
  EXPECT_NE(rig.Root(forged, c, rig.model.at(c)), rig.tree.Root());

  const Hash256 honest_after = rig.Root(honest, c, Hash256());
  const Hash256 forged_after = rig.Root(forged, c, Hash256());
  rig.tree.Update(c, Hash256());
  EXPECT_EQ(honest_after, rig.tree.Root());
  EXPECT_NE(forged_after, rig.tree.Root());
}

TEST(SmtAdversarialProofTest, EntryInsideAProofSubtreeRefused) {
  // A proof subtree with another entry inside it, or two proof leaves on one
  // path, contradicts itself: refused with the zero hash.
  AdversarialRig rig;
  const Hash256 c = rig.KeyWithSibling(/*one_key_sibling=*/false);
  const int level = LeafLevel(rig.model, c);
  SmtMultiProof nested = rig.tree.ProveKeys({c});
  const auto inside = Under(rig.model, FlipKeyBit(c, level - 1), level);
  nested.leaves[inside.front().first] = inside.front().second;
  EXPECT_TRUE(rig.Root(nested, c, rig.model.at(c)).IsZero());

  const Hash256 d = rig.KeyWithSibling(/*one_key_sibling=*/true);
  const int d_level = LeafLevel(rig.model, d);
  const Hash256 k =
      Under(rig.model, FlipKeyBit(d, d_level - 1), d_level).front().first;
  SmtMultiProof twins = rig.tree.ProveKeys({d});
  ASSERT_EQ(twins.leaves.count(k), 1u);
  twins.leaves[FlipKeyBit(k, 200)] = Val("twin");
  EXPECT_TRUE(rig.Root(twins, d, rig.model.at(d)).IsZero());
}

TEST(SmtAdversarialProofTest, NonCanonicalProofBytesRejected) {
  AdversarialRig rig;
  std::vector<Hash256> keys;
  int i = 0;
  for (const auto& [k, v] : rig.model) {
    if (i++ % 10 == 0) keys.push_back(k);
  }
  const SmtMultiProof proof = rig.tree.ProveKeys(keys);
  ASSERT_GE(proof.siblings.size(), 2u);
  ASSERT_GE(proof.leaves.size(), 2u);
  // Entries swapped out of map order.
  const auto swap_entries = [](Bytes wire, std::size_t at, std::size_t size) {
    std::swap_ranges(wire.begin() + static_cast<std::ptrdiff_t>(at),
                     wire.begin() + static_cast<std::ptrdiff_t>(at + size),
                     wire.begin() + static_cast<std::ptrdiff_t>(at + size));
    return wire;
  };
  const Bytes wire = proof.Serialize();
  EXPECT_FALSE(SmtMultiProof::Deserialize(swap_entries(wire, 4, 66)).ok());
  const std::size_t leaves_at = 4 + proof.siblings.size() * 66 + 4;
  EXPECT_FALSE(SmtMultiProof::Deserialize(swap_entries(wire, leaves_at, 64)).ok());
  // A prefix with bits set below its level, and a zero leaf value.
  Bytes dirty_prefix = wire;
  dirty_prefix[4 + 2 + 31] ^= 1;
  EXPECT_FALSE(SmtMultiProof::Deserialize(dirty_prefix).ok());
  Bytes zero_value = wire;
  std::fill(zero_value.begin() + static_cast<std::ptrdiff_t>(leaves_at + 32),
            zero_value.begin() + static_cast<std::ptrdiff_t>(leaves_at + 64), 0);
  EXPECT_FALSE(SmtMultiProof::Deserialize(zero_value).ok());
}

}  // namespace
}  // namespace dcert::mht
