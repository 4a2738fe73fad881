// Robustness: every wire format must survive adversarial bytes — random
// truncations and bit flips either fail cleanly (error Result) or decode to
// something self-consistent; they must never crash or hang. Plus negative
// paths of the trusted index-certification entry points driven directly.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "chain/block.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "dcert/certificate.h"
#include "dcert/enclave_program.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "dcert/update_proof.h"
#include "mht/inverted_index.h"
#include "mht/mbtree.h"
#include "mht/mpt.h"
#include "mht/skiplist.h"
#include "mht/smt.h"
#include "query/historical_index.h"
#include "query/lineage_index.h"
#include "workloads/workloads.h"

namespace dcert {
namespace {

/// Applies `rounds` random mutations (flip / truncate / extend) and feeds
/// each mutant to `decode`, which must not crash.
template <typename DecodeFn>
void FuzzDecoder(const Bytes& genuine, DecodeFn decode, std::uint64_t seed,
                 int rounds = 200) {
  Rng rng(seed);
  for (int i = 0; i < rounds; ++i) {
    Bytes mutant = genuine;
    switch (rng.NextBelow(3)) {
      case 0: {  // bit flip(s)
        if (mutant.empty()) break;
        int flips = static_cast<int>(rng.NextRange(1, 4));
        for (int f = 0; f < flips; ++f) {
          mutant[rng.NextBelow(mutant.size())] ^=
              static_cast<std::uint8_t>(1u << rng.NextBelow(8));
        }
        break;
      }
      case 1:  // truncate
        mutant.resize(rng.NextBelow(mutant.size() + 1));
        break;
      default: {  // extend with garbage
        Bytes extra = rng.NextBytes(rng.NextRange(1, 16));
        mutant.insert(mutant.end(), extra.begin(), extra.end());
        break;
      }
    }
    decode(mutant);  // must not crash; outcome is irrelevant
  }
}

/// The hash of `prefix` followed by decimal `i`. Appending to a named string
/// keeps GCC 12's -Wrestrict false positive on `const char* + string&&` out
/// of the build.
Hash256 NumberedDigest(const char* prefix, int i) {
  std::string s = prefix;
  s += std::to_string(i);
  return crypto::Sha256::Digest(StrBytes(s));
}

workloads::AccountPool& Pool() {
  static workloads::AccountPool pool(4, 3001);
  return pool;
}

/// A mined 5-tx KVStore block. Its senders' nonces advance in `pool`, so a
/// test that mines on a fresh node passes a pool no other test has used.
chain::Block SampleBlock(workloads::AccountPool& pool = Pool()) {
  chain::ChainConfig config;
  config.difficulty_bits = 2;
  auto registry = workloads::MakeBlockbenchRegistry(1);
  chain::FullNode node(config, registry);
  chain::Miner miner(node);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kKvStore;
  params.instances_per_workload = 1;
  workloads::WorkloadGenerator gen(params, pool);
  auto block = miner.MineBlock(gen.NextBlockTxs(5), 100);
  return block.value();
}

TEST(WireFuzzTest, BlockAndHeader) {
  chain::Block blk = SampleBlock();
  FuzzDecoder(blk.Serialize(),
              [](const Bytes& b) { (void)chain::Block::Deserialize(b); }, 1);
  FuzzDecoder(blk.header.Serialize(),
              [](const Bytes& b) { (void)chain::BlockHeader::Deserialize(b); }, 2);
  FuzzDecoder(blk.txs[0].Serialize(),
              [](const Bytes& b) { (void)chain::Transaction::Deserialize(b); }, 3);
}

TEST(WireFuzzTest, Certificate) {
  core::BlockCertificate cert;
  cert.pk_enc = crypto::SecretKey::FromSeed(StrBytes("f")).Public();
  cert.digest = crypto::Sha256::Digest(StrBytes("d"));
  cert.sig = crypto::SecretKey::FromSeed(StrBytes("f")).Sign(cert.digest);
  sgxsim::Enclave enclave("p", "1");
  cert.report = sgxsim::AttestationService::Attest(enclave.MakeQuote(cert.digest));
  FuzzDecoder(cert.Serialize(),
              [](const Bytes& b) { (void)core::BlockCertificate::Deserialize(b); },
              4);
}

TEST(WireFuzzTest, MerkleProofs) {
  mht::SparseMerkleTree smt;
  for (int i = 0; i < 30; ++i) {
    smt.Update(NumberedDigest("k", i), NumberedDigest("v", i));
  }
  auto smt_proof = smt.ProveKeys({crypto::Sha256::Digest(StrBytes("k1"))});
  FuzzDecoder(smt_proof.Serialize(),
              [](const Bytes& b) { (void)mht::SmtMultiProof::Deserialize(b); }, 5);

  mht::MbTree mb;
  for (std::uint64_t k = 1; k <= 40; ++k) mb.Insert(k, StrBytes("v"));
  FuzzDecoder(mb.RangeQueryWithProof(5, 15).Serialize(),
              [](const Bytes& b) { (void)mht::MbRangeProof::Deserialize(b); }, 6);
  FuzzDecoder(mb.ProveAppend().Serialize(),
              [](const Bytes& b) { (void)mht::MbAppendProof::Deserialize(b); }, 7);

  mht::MptTrie mpt;
  for (int i = 0; i < 20; ++i) {
    mpt.Put(NumberedDigest("a", i), crypto::Sha256::Digest(StrBytes("r")));
  }
  FuzzDecoder(mpt.Prove(crypto::Sha256::Digest(StrBytes("a3"))).Serialize(),
              [](const Bytes& b) { (void)mht::MptProof::Deserialize(b); }, 8);

  mht::AuthSkipList list;
  for (std::uint64_t t = 1; t <= 40; ++t) list.Append(t, StrBytes("v"));
  FuzzDecoder(list.QueryWithProof(10, 20).Serialize(),
              [](const Bytes& b) { (void)mht::SkipRangeProof::Deserialize(b); }, 9);
}

TEST(WireFuzzTest, QueryProofs) {
  chain::ChainConfig config;
  config.difficulty_bits = 2;
  auto registry = workloads::MakeBlockbenchRegistry(1);
  chain::FullNode node(config, registry);
  chain::Miner miner(node);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kKvStore;
  params.instances_per_workload = 1;
  params.kv_keys = 5;
  workloads::AccountPool pool(4, 3002);
  workloads::WorkloadGenerator gen(params, pool);

  query::HistoricalIndex hist;
  query::LineageIndex lineage;
  mht::InvertedIndex inverted;
  for (int i = 0; i < 5; ++i) {
    auto block = miner.MineBlock(gen.NextBlockTxs(5), 100 + i);
    ASSERT_TRUE(block.ok());
    ASSERT_TRUE(node.SubmitBlock(block.value()).ok());
    hist.ApplyBlockCapturingAux(block.value());
    lineage.ApplyBlockCapturingAux(block.value());
    inverted.ApplyWrites(query::ExtractKeywordWrites(block.value()));
  }

  FuzzDecoder(hist.Query(1, 1, 5).Serialize(),
              [](const Bytes& b) { (void)query::HistoricalQueryProof::Deserialize(b); },
              10);
  FuzzDecoder(lineage.Query(1, 1, 5).Serialize(),
              [](const Bytes& b) { (void)query::LineageQueryProof::Deserialize(b); },
              11);
  FuzzDecoder(inverted.QueryConjunctive({"c3000"}).Serialize(),
              [](const Bytes& b) { (void)mht::KeywordQueryProof::Deserialize(b); },
              12);
}

TEST(WireFuzzTest, StateUpdateProof) {
  chain::ChainConfig config;
  config.difficulty_bits = 2;
  auto registry = workloads::MakeBlockbenchRegistry(1);
  chain::FullNode node(config, registry);
  workloads::AccountPool pool(4, 3003);
  chain::Block blk = SampleBlock(pool);
  auto exec = chain::ExecuteBlockTxs(blk.txs, *registry, node.State());
  ASSERT_TRUE(exec.ok()) << exec.message();
  core::StateUpdateProof proof = core::BuildStateUpdateProof(
      exec.value().reads, exec.value().writes, node.State());
  Bytes wire = proof.Serialize();
  auto decoded = core::StateUpdateProof::Deserialize(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().read_set, proof.read_set);
  // The codec is canonical: whatever decodes re-encodes to the same bytes.
  FuzzDecoder(wire,
              [](const Bytes& b) {
                auto d = core::StateUpdateProof::Deserialize(b);
                if (d.ok()) {
                  EXPECT_EQ(d.value().Serialize(), b);
                }
              },
              13);
}

TEST(WireFuzzTest, SmtMultiProofCanonical) {
  // A proof with both kinds of entries (one-key leaves and larger subtrees)
  // over present and absent keys. Every mutant that decodes must re-encode
  // to itself, and one that still verifies must be the genuine bytes.
  mht::SparseMerkleTree smt;
  for (int i = 0; i < 200; ++i) {
    smt.Update(NumberedDigest("k", i), NumberedDigest("v", i));
  }
  std::vector<Hash256> keys;
  std::map<Hash256, Hash256> leaves;
  for (int i = 0; i < 200; i += 25) {
    keys.push_back(NumberedDigest("k", i));
    leaves[keys.back()] = NumberedDigest("v", i);
  }
  for (int i = 0; i < 4; ++i) {
    keys.push_back(NumberedDigest("absent", i));
    leaves[keys.back()] = Hash256();
  }
  const mht::SmtMultiProof proof = smt.ProveKeys(keys);
  ASSERT_FALSE(proof.siblings.empty());
  ASSERT_FALSE(proof.leaves.empty());
  const Hash256 root = smt.Root();
  ASSERT_EQ(mht::SparseMerkleTree::ComputeRootFromProof(proof, leaves), root);
  const Bytes wire = proof.Serialize();
  FuzzDecoder(wire,
              [&](const Bytes& b) {
                auto d = mht::SmtMultiProof::Deserialize(b);
                if (!d.ok()) return;
                EXPECT_EQ(d.value().Serialize(), b);
                if (mht::SparseMerkleTree::ComputeRootFromProof(d.value(), leaves) ==
                    root) {
                  EXPECT_EQ(b, wire);
                }
              },
              14, 400);
}

TEST(RobustnessTest, CpuBombTransactionReverts) {
  // A transaction demanding more compute than the step limit reverts without
  // invalidating the block (DoS resistance of the executor — and of the
  // enclave replay, which uses the same limit).
  chain::ChainConfig config;
  config.difficulty_bits = 2;
  auto registry = workloads::MakeBlockbenchRegistry(1);
  chain::FullNode node(config, registry);
  workloads::AccountPool pool(1, 3003);
  std::uint64_t cpu = workloads::ContractId(workloads::Workload::kCpuHeavy, 0);
  std::vector<chain::Transaction> txs{
      pool.MakeTx(0, cpu, {1'000'000'000'000ull})};  // absurd iteration count
  auto result = chain::ExecuteBlockTxs(txs, *registry, node.State());
  ASSERT_TRUE(result.ok()) << result.message();
  EXPECT_FALSE(result.value().receipts[0].success);
  EXPECT_EQ(result.value().receipts[0].error, "step limit exceeded");
}

TEST(RobustnessTest, SuperlightIndexCertNegatives) {
  using core::CertificateIssuer;
  using core::ExpectedEnclaveMeasurement;
  using core::SuperlightClient;
  // Genuine chain + hierarchical index cert setup.
  chain::ChainConfig config;
  config.difficulty_bits = 2;
  auto registry = workloads::MakeBlockbenchRegistry(1);
  CertificateIssuer ci(config, registry);
  auto index = std::make_shared<query::HistoricalIndex>();
  ci.AttachIndex(index);
  chain::FullNode node(config, registry);
  chain::Miner miner(node);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kKvStore;
  params.instances_per_workload = 1;
  workloads::AccountPool pool(4, 3004);
  workloads::WorkloadGenerator gen(params, pool);

  auto block = miner.MineBlock(gen.NextBlockTxs(4), 100);
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(node.SubmitBlock(block.value()).ok());
  auto certs = ci.ProcessBlockHierarchical(block.value());
  ASSERT_TRUE(certs.ok());

  SuperlightClient client(ExpectedEnclaveMeasurement());
  ASSERT_TRUE(client.ValidateAndAccept(block.value().header, *ci.LatestCert()).ok());

  // Wrong digest claimed for a valid certificate: rejected.
  Hash256 wrong_digest = index->CurrentDigest();
  wrong_digest[0] ^= 1;
  EXPECT_FALSE(client
                   .AcceptIndexCert(block.value().header, certs.value()[0],
                                    wrong_digest, index->Id())
                   .ok());
  // Block certificate passed off as an index certificate: rejected (digest
  // shape differs).
  EXPECT_FALSE(client
                   .AcceptIndexCert(block.value().header, *ci.LatestCert(),
                                    index->CurrentDigest(), index->Id())
                   .ok());
  // The genuine binding is accepted.
  EXPECT_TRUE(client
                  .AcceptIndexCert(block.value().header, certs.value()[0],
                                   index->CurrentDigest(), index->Id())
                  .ok());
  EXPECT_EQ(client.CertifiedIndexDigest(index->Id()), index->CurrentDigest());
}

}  // namespace
}  // namespace dcert
