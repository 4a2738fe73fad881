// Golden certificates: a fixed seeded 10-block KVStore chain certified with
// the hierarchical scheme (historical index attached) must produce exactly
// the block and index certificates recorded below. Certificate signing is
// deterministic, so any change to execution, update proofs, index aux
// material or the enclave program that alters a single certificate byte
// shows up here.
#include <gtest/gtest.h>

#include "crypto/sha256.h"
#include "dcert/issuer.h"
#include "query/historical_index.h"
#include "workloads/workloads.h"

namespace dcert::core {
namespace {

// SHA-256 over every block certificate and index certificate, serialized, in
// block order. A change here means certificates are no longer byte-compatible
// with earlier issuers; CHANGES.md records each re-capture and its reason.
constexpr char kGoldenCertDigest[] =
    "cd4e2273d375d06a5e75cd934d2661b0c231165fc528e38712266e68308155e7";

TEST(GoldenCertTest, HierarchicalChainCertificatesAreByteIdentical) {
  chain::ChainConfig config;
  config.difficulty_bits = 2;
  auto registry = workloads::MakeBlockbenchRegistry(2);
  chain::FullNode miner_node(config, registry);
  chain::Miner miner(miner_node);
  workloads::AccountPool pool(8, 2024);
  workloads::WorkloadGenerator::Params params;
  params.kind = workloads::Workload::kKvStore;
  params.seed = 7;
  params.instances_per_workload = 2;
  params.kv_keys = 32;
  workloads::WorkloadGenerator gen(params, pool);

  CertificateIssuer ci(config, registry);
  auto index = std::make_shared<query::HistoricalIndex>("historical");
  ci.AttachIndex(index);

  crypto::Sha256 digest;
  for (int i = 0; i < 10; ++i) {
    auto blk = miner.MineBlock(gen.NextBlockTxs(12), 5000 + miner_node.Height());
    ASSERT_TRUE(blk.ok()) << blk.message();
    ASSERT_TRUE(miner_node.SubmitBlock(blk.value()).ok());
    auto icerts = ci.ProcessBlockHierarchical(blk.value());
    ASSERT_TRUE(icerts.ok()) << "block " << i << ": " << icerts.message();
    ASSERT_EQ(icerts.value().size(), 1u);
    ASSERT_TRUE(ci.LatestCert().has_value());
    digest.Update(ci.LatestCert()->Serialize());
    digest.Update(icerts.value()[0].Serialize());
  }
  EXPECT_EQ(ci.Node().Height(), 10u);
  EXPECT_EQ(digest.Finalize().ToHex(), kGoldenCertDigest);
}

}  // namespace
}  // namespace dcert::core
