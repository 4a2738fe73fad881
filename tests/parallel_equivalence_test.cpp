// Equivalence of the SMT's bulk update with one Update per key: the deferred
// rehash must leave byte-identical roots, sizes and proofs.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "mht/smt.h"

namespace dcert {
namespace {

Hash256 RandomHash(Rng& rng) { return crypto::Sha256::Digest(rng.NextBytes(16)); }

mht::SparseMerkleTree RandomTree(Rng& rng, std::size_t n,
                                 std::vector<Hash256>* keys_out = nullptr) {
  mht::SparseMerkleTree tree;
  for (std::size_t i = 0; i < n; ++i) {
    Hash256 key = RandomHash(rng);
    tree.Update(key, RandomHash(rng));
    if (keys_out != nullptr) keys_out->push_back(key);
  }
  return tree;
}

TEST(ParallelEquivalenceTest, UpdateBatchMatchesSerialUpdates) {
  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    std::vector<Hash256> keys;
    mht::SparseMerkleTree serial = RandomTree(rng, 200, &keys);
    // Rebuild an identical tree for the batched run.
    mht::SparseMerkleTree batched;
    for (const Hash256& k : keys) batched.Update(k, serial.Get(k));
    ASSERT_EQ(serial.Root(), batched.Root());

    // A batch mixing overwrites, fresh inserts, and deletions.
    std::map<Hash256, Hash256> batch;
    for (int i = 0; i < 100; ++i) {
      batch[keys[rng.NextBelow(keys.size())]] = RandomHash(rng);  // overwrite
    }
    for (int i = 0; i < 100; ++i) batch[RandomHash(rng)] = RandomHash(rng);
    for (int i = 0; i < 50; ++i) {
      batch[keys[rng.NextBelow(keys.size())]] = Hash256();  // delete
    }

    for (const auto& [k, vh] : batch) serial.Update(k, vh);
    batched.UpdateBatch(batch);

    EXPECT_EQ(serial.Root(), batched.Root()) << "round " << round;
    EXPECT_EQ(serial.Size(), batched.Size());
    // Structure equality through proofs over every touched key.
    std::vector<Hash256> touched;
    for (const auto& [k, vh] : batch) touched.push_back(k);
    EXPECT_EQ(serial.ProveKeys(touched).Serialize(),
              batched.ProveKeys(touched).Serialize());
    // Subsequent single-key updates behave identically on both trees.
    Hash256 extra_key = RandomHash(rng);
    Hash256 extra_val = RandomHash(rng);
    serial.Update(extra_key, extra_val);
    batched.Update(extra_key, extra_val);
    EXPECT_EQ(serial.Root(), batched.Root());
  }
}

TEST(ParallelEquivalenceTest, UpdateBatchAutoPathMatches) {
  Rng rng(10);
  std::vector<Hash256> keys;
  mht::SparseMerkleTree a = RandomTree(rng, 100, &keys);
  mht::SparseMerkleTree b;
  for (const Hash256& k : keys) b.Update(k, a.Get(k));

  std::map<Hash256, Hash256> batch;
  for (int i = 0; i < 200; ++i) batch[RandomHash(rng)] = RandomHash(rng);
  for (const auto& [k, vh] : batch) a.Update(k, vh);
  b.UpdateBatch(batch);
  EXPECT_EQ(a.Root(), b.Root());
}

}  // namespace
}  // namespace dcert
