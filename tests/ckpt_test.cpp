// Certified checkpoints: wire-format round trips and CRC rejection,
// VerifyCheckpoint's refusal of every tampered field, CheckpointStore
// durability (write/load/prune, corrupt files degrade to older checkpoints),
// CheckpointedIssuer cadence + log compaction + O(delta) recovery, SpServer
// checkpoint rehydration (including the immediately-verifying index
// certificate on an empty tail), and the superlight bootstrap-from-checkpoint
// path. The central claims under test: a tampered checkpoint can never
// produce a verifying state, and recovery through a checkpoint reproduces the
// exact certified chain the crash-free run had.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpointed_issuer.h"
#include "dcert/durable_issuer.h"
#include "dcert/superlight.h"
#include "query/extraction.h"
#include "query/historical_index.h"
#include "svc/sp_client.h"
#include "svc/sp_server.h"
#include "svc/transport.h"
#include "workloads/workloads.h"

namespace dcert::ckpt {
namespace {

/// A mined reference chain (not certified): every test drives its own issuer
/// over these blocks so checkpoint/recovery runs are comparable.
struct ChainRig {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::vector<chain::Block> blocks;  // heights 1..blocks.size()
  std::uint64_t hot_account = 0;     // account with historical writes

  explicit ChainRig(int count) {
    config.difficulty_bits = 2;
    registry = workloads::MakeBlockbenchRegistry(1);
    chain::FullNode node(config, registry);
    chain::Miner miner(node);
    workloads::AccountPool pool(4, 77);
    workloads::WorkloadGenerator::Params params;
    params.kind = workloads::Workload::kKvStore;
    params.instances_per_workload = 1;
    params.kv_keys = 8;
    workloads::WorkloadGenerator gen(params, pool);
    for (int i = 0; i < count; ++i) {
      auto block =
          miner.MineBlock(gen.NextBlockTxs(5), 1700000000 + node.Height() * 15);
      if (!block.ok() || !node.SubmitBlock(block.value())) {
        throw std::runtime_error("rig mining failed");
      }
      blocks.push_back(block.value());
      if (hot_account == 0) {
        auto writes = query::ExtractHistoricalWrites(block.value());
        if (!writes.empty()) hot_account = writes.front().account_word;
      }
    }
  }
};

const ChainRig& Rig() {
  static const ChainRig rig(12);
  return rig;
}

struct IssuerPaths {
  std::string dir;
  core::DurableIssuerOptions options;
  CheckpointConfig ckpt;
};

IssuerPaths FreshIssuerPaths(const std::string& tag, std::uint64_t segments,
                             std::uint64_t interval) {
  IssuerPaths p;
  p.dir = ::testing::TempDir() + tag;
  p.options.block_log_path = p.dir + "_blocks.log";
  p.options.cert_log_path = p.dir + "_certs.log";
  p.options.sealed_key_path = p.dir + "_key.sealed";
  p.options.segment_records = segments;
  p.ckpt.dir = p.dir + "_ckpt";
  p.ckpt.interval = interval;
  std::remove(p.options.sealed_key_path.c_str());
  for (const std::string& base :
       {p.options.block_log_path, p.options.cert_log_path}) {
    std::remove(base.c_str());
    std::remove((base + ".manifest").c_str());
    for (int first = 0; first < 64; ++first) {
      const std::string seg = base + ".seg." + std::to_string(first);
      std::remove(seg.c_str());
      std::remove((seg + ".idx").c_str());
    }
  }
  for (int h = 0; h < 64; ++h) {
    std::remove((p.ckpt.dir + "/ckpt-" + std::to_string(h) + ".dcp").c_str());
  }
  return p;
}

Result<CheckpointedIssuer> OpenIssuer(const IssuerPaths& p) {
  return CheckpointedIssuer::Open(Rig().config, Rig().registry, p.options,
                                  p.ckpt);
}

void FlipLastByte(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << path;
  f.seekp(-1, std::ios::end);
  f.put('\xA5');
}

/// An issuer checkpoint produced by a real cadenced run (body + state +
/// shadow-index content), loaded back from disk. The files are named after
/// the running test: ctest runs tests as parallel processes, which must not
/// share them.
Checkpoint MakeIssuerCheckpoint() {
  IssuerPaths p = FreshIssuerPaths(
      std::string("ckpt_make_") +
          ::testing::UnitTest::GetInstance()->current_test_info()->name(),
      0, 4);
  auto ci = OpenIssuer(p);
  if (!ci.ok()) throw std::runtime_error(ci.message());
  for (int i = 0; i < 8; ++i) {
    if (Status st = ci.value().CertifyBlock(Rig().blocks[i]); !st) {
      throw std::runtime_error(st.message());
    }
  }
  auto ck = ci.value().Store().Load(8);
  if (!ck.ok()) throw std::runtime_error(ck.message());
  return ck.value();
}

TEST(CheckpointFormatTest, SerializeDeserializeRoundTripsAllFields) {
  const Checkpoint ck = MakeIssuerCheckpoint();
  ASSERT_TRUE(ck.has_body);
  ASSERT_TRUE(ck.has_state);
  ASSERT_TRUE(ck.has_index);
  const Bytes bytes = ck.Serialize();
  auto back = Checkpoint::Deserialize(bytes);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().height, ck.height);
  EXPECT_EQ(back.value().header.Hash(), ck.header.Hash());
  EXPECT_EQ(back.value().block_cert.Serialize(), ck.block_cert.Serialize());
  EXPECT_EQ(back.value().txs.size(), ck.txs.size());
  EXPECT_EQ(back.value().state, ck.state);
  EXPECT_EQ(back.value().index_digest, ck.index_digest);
  EXPECT_EQ(back.value().index_content, ck.index_content);
  EXPECT_EQ(back.value().has_index_cert, ck.has_index_cert);
  // Round trip is byte-stable: re-serializing reproduces the input.
  EXPECT_EQ(back.value().Serialize(), bytes);
}

TEST(CheckpointFormatTest, CrcCatchesEveryByteFlipAndTruncation) {
  const Checkpoint ck = MakeIssuerCheckpoint();
  const Bytes bytes = ck.Serialize();
  // Flipping any of a few sampled bytes (header, middle, tail) must fail the
  // CRC before any field decoding is attempted.
  for (std::size_t pos : {std::size_t{0}, bytes.size() / 3, bytes.size() / 2,
                          bytes.size() - 1}) {
    Bytes bad = bytes;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(Checkpoint::Deserialize(bad).ok()) << "flipped byte " << pos;
  }
  Bytes truncated(bytes.begin(), bytes.end() - 5);
  EXPECT_FALSE(Checkpoint::Deserialize(truncated).ok());
  EXPECT_FALSE(Checkpoint::Deserialize(Bytes{}).ok());
}

TEST(CheckpointVerifyTest, AcceptsGenuineAndRejectsEveryTampering) {
  const Checkpoint genuine = MakeIssuerCheckpoint();
  const Hash256 measurement = core::ExpectedEnclaveMeasurement();
  ASSERT_TRUE(VerifyCheckpoint(genuine, measurement).ok());

  {  // Wrong enclave identity: the envelope check fails.
    Hash256 other = measurement;
    other[0] ^= 0xFF;
    EXPECT_FALSE(VerifyCheckpoint(genuine, other).ok());
  }
  {  // Height not matching the certified header.
    Checkpoint bad = genuine;
    bad.height += 1;
    EXPECT_FALSE(VerifyCheckpoint(bad, measurement).ok());
  }
  {  // Tampered state snapshot: SMT root no longer matches the header's.
    Checkpoint bad = genuine;
    ASSERT_FALSE(bad.state.empty());
    bad.state.begin()->second ^= 1;
    EXPECT_FALSE(VerifyCheckpoint(bad, measurement).ok());
  }
  {  // Smuggled extra state entry.
    Checkpoint bad = genuine;
    bad.state[chain::SlotKey(0xDEAD, 0xBEEF)] = 42;
    EXPECT_FALSE(VerifyCheckpoint(bad, measurement).ok());
  }
  {  // Tampered body: tx root mismatch.
    Checkpoint bad = genuine;
    ASSERT_FALSE(bad.txs.empty());
    bad.txs.pop_back();
    EXPECT_FALSE(VerifyCheckpoint(bad, measurement).ok());
  }
  {  // A doctored header invalidates the certificate's digest binding.
    Checkpoint bad = genuine;
    bad.header.state_root[0] ^= 0x01;
    EXPECT_FALSE(VerifyCheckpoint(bad, measurement).ok());
  }
}

TEST(CheckpointStoreTest, WriteLoadPruneAndCorruptFilesDegradeGracefully) {
  const std::string dir = ::testing::TempDir() + "ckpt_store_dir";
  for (int h = 0; h < 64; ++h) {
    std::remove((dir + "/ckpt-" + std::to_string(h) + ".dcp").c_str());
  }
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.message();

  const Checkpoint base = MakeIssuerCheckpoint();  // height 8
  Checkpoint at3 = base;
  at3.height = 3;  // only the file name derives from height here; Load checks
  at3.header.height = 3;
  ASSERT_TRUE(store.value().Write(base).ok());
  ASSERT_TRUE(store.value().Write(at3).ok());
  EXPECT_EQ(store.value().Heights(), (std::vector<std::uint64_t>{3, 8}));

  auto loaded = store.value().Load(8);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  EXPECT_EQ(loaded.value().header.Hash(), base.header.Hash());

  // LoadLatestValid: respects max_height, and skips files that fail
  // verification (at3's height was doctored, so its cert binding fails).
  const Hash256 measurement = core::ExpectedEnclaveMeasurement();
  auto best = store.value().LoadLatestValid(~std::uint64_t{0}, measurement);
  ASSERT_TRUE(best.ok());
  ASSERT_TRUE(best.value().has_value());
  EXPECT_EQ(best.value()->height, 8u);
  auto capped = store.value().LoadLatestValid(7, measurement);
  ASSERT_TRUE(capped.ok());
  EXPECT_FALSE(capped.value().has_value());  // only the doctored 3 remains

  // A corrupt newest file degrades to the older checkpoint, not a failure.
  Checkpoint at9 = base;
  at9.height = 9;
  ASSERT_TRUE(store.value().Write(at9).ok());
  FlipLastByte(dir + "/ckpt-9.dcp");
  auto fallback = store.value().LoadLatestValid(~std::uint64_t{0}, measurement);
  ASSERT_TRUE(fallback.ok());
  ASSERT_TRUE(fallback.value().has_value());
  EXPECT_EQ(fallback.value()->height, 8u);
  EXPECT_FALSE(store.value().Load(9).ok());

  // Prune keeps the newest files by height (validity is the readers' job).
  ASSERT_TRUE(store.value().Prune(2).ok());
  EXPECT_EQ(store.value().Heights(), (std::vector<std::uint64_t>{8, 9}));
  EXPECT_FALSE(store.value().Prune(0).ok());
}

TEST(CheckpointedIssuerTest, CadenceWritesPrunesAndCompactsLogs) {
  IssuerPaths p = FreshIssuerPaths("ckpt_cadence", 4, 3);
  auto ci = OpenIssuer(p);
  ASSERT_TRUE(ci.ok()) << ci.message();
  for (const chain::Block& blk : Rig().blocks) {
    ASSERT_TRUE(ci.value().CertifyBlock(blk).ok());
  }
  // Interval 3 over 12 blocks: checkpoints at 3, 6, 9, 12; keep=2 retains
  // {9, 12}; compaction below the OLDEST retained (9) drops whole segments
  // of 4 records -> both logs re-based at 8 (block 9's anchor cert, record
  // 8, survives with it).
  EXPECT_EQ(ci.value().LastCheckpointHeight(), 12u);
  EXPECT_EQ(ci.value().Store().Heights(), (std::vector<std::uint64_t>{9, 12}));
  EXPECT_EQ(ci.value().Durable().Blocks().BaseHeight(), 8u);
  EXPECT_EQ(ci.value().Durable().Blocks().Count(), 13u);
  EXPECT_EQ(ci.value().Durable().Certs().BaseIndex(), 8u);
  EXPECT_FALSE(ci.value().Durable().Blocks().Get(7).ok());
  EXPECT_TRUE(ci.value().Durable().Blocks().Get(9).ok());
}

TEST(CheckpointedIssuerTest, RecoveryReplaysOnlyTheTailAndMatchesReference) {
  const ChainRig& rig = Rig();
  IssuerPaths p = FreshIssuerPaths("ckpt_recover", 4, 3);
  Hash256 tip_hash;
  Bytes tip_cert;
  {
    auto ci = OpenIssuer(p);
    ASSERT_TRUE(ci.ok()) << ci.message();
    for (const chain::Block& blk : rig.blocks) {
      ASSERT_TRUE(ci.value().CertifyBlock(blk).ok());
    }
    tip_hash = ci.value().Durable().Issuer().Node().Tip().header.Hash();
    tip_cert = ci.value().Durable().Issuer().LatestCert()->Serialize();
  }
  {
    // Clean reopen: the newest checkpoint (height 12) IS the tip; zero
    // blocks replayed, state and cert chain identical.
    auto ci = OpenIssuer(p);
    ASSERT_TRUE(ci.ok()) << ci.message();
    EXPECT_EQ(ci.value().BootstrapHeight(), 12u);
    EXPECT_EQ(ci.value().Durable().Recovery().blocks_replayed, 0u);
    EXPECT_EQ(ci.value().Durable().Issuer().Node().Tip().header.Hash(),
              tip_hash);
    EXPECT_EQ(ci.value().Durable().Issuer().LatestCert()->Serialize(),
              tip_cert);
    // The restored shadow index reproduced the certified digest and kept
    // serving; its digest matches the one sealed into the checkpoint.
    auto ck = ci.value().Store().Load(12);
    ASSERT_TRUE(ck.ok());
    EXPECT_EQ(ci.value().ShadowIndex().CurrentDigest(), ck.value().index_digest);
  }
  {
    // Newest checkpoint rots: recovery falls back to the OLDER retained one
    // (height 9) and replays exactly the 3-block tail — which compaction
    // deliberately preserved.
    FlipLastByte(p.ckpt.dir + "/ckpt-12.dcp");
    auto ci = OpenIssuer(p);
    ASSERT_TRUE(ci.ok()) << ci.message();
    EXPECT_EQ(ci.value().BootstrapHeight(), 9u);
    EXPECT_EQ(ci.value().Durable().Recovery().blocks_replayed, 3u);
    EXPECT_EQ(ci.value().Durable().Issuer().Node().Tip().header.Hash(),
              tip_hash);
    EXPECT_EQ(ci.value().Durable().Issuer().LatestCert()->Serialize(),
              tip_cert);
    // Recovery re-sealed the overdue checkpoint at the tip (cadence crossed
    // while "down"), so the next open is O(0) again.
    EXPECT_EQ(ci.value().LastCheckpointHeight(), 12u);
  }
  {
    // No usable checkpoint at all + compacted history: recovery must refuse
    // loudly rather than silently serve a truncated chain.
    std::remove((p.ckpt.dir + "/ckpt-9.dcp").c_str());
    std::remove((p.ckpt.dir + "/ckpt-12.dcp").c_str());
    auto ci = OpenIssuer(p);
    ASSERT_FALSE(ci.ok());
    EXPECT_NE(ci.message().find("checkpoint"), std::string::npos)
        << ci.message();
  }
}

TEST(SuperlightBootstrapTest, AcceptsCheckpointAndRejectsTamperedDigest) {
  const Checkpoint ck = MakeIssuerCheckpoint();
  core::SuperlightClient client(core::ExpectedEnclaveMeasurement());
  ASSERT_TRUE(BootstrapSuperlight(client, ck).ok());
  EXPECT_EQ(client.Height(), ck.height);

  // Issuer checkpoints carry no index cert, so no certified digest yet.
  EXPECT_FALSE(client.CertifiedIndexDigest("historical").has_value());

  // A checkpoint that fails certificate validation must not move the client.
  Checkpoint bad = ck;
  bad.header.timestamp ^= 1;
  core::SuperlightClient fresh(core::ExpectedEnclaveMeasurement());
  EXPECT_FALSE(BootstrapSuperlight(fresh, bad).ok());
  EXPECT_EQ(fresh.Height(), 0u);
}

// ---------------------------------------------------------------------------
// SpServer: checkpoint export + warm start.

/// Announcements (block cert + hierarchical index cert per block) over the
/// rig's chain, as a live CI would emit them.
const std::vector<svc::AnnounceRequest>& Announcements() {
  static const std::vector<svc::AnnounceRequest>* anns = [] {
    auto* out = new std::vector<svc::AnnounceRequest>();
    core::CertificateIssuer ci(Rig().config, Rig().registry);
    auto hist = std::make_shared<query::HistoricalIndex>("historical");
    ci.AttachIndex(hist);
    for (const chain::Block& blk : Rig().blocks) {
      auto icerts = ci.ProcessBlockHierarchical(blk);
      if (!icerts.ok()) throw std::runtime_error(icerts.message());
      svc::AnnounceRequest ann;
      ann.block = blk;
      ann.block_cert = *ci.LatestCert();
      ann.index_digest = hist->CurrentDigest();
      ann.index_cert = icerts.value()[0];
      out->push_back(std::move(ann));
    }
    return out;
  }();
  return *anns;
}

TEST(SpCheckpointTest, ExportedCheckpointWarmStartsAFreshServerInO1) {
  const auto& anns = Announcements();
  svc::SpServer source{svc::SpServerConfig{}};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(source.Announce(anns[i]).ok());
  }
  auto ck = source.ExportCheckpoint();
  ASSERT_TRUE(ck.ok()) << ck.message();
  EXPECT_EQ(ck.value().height, 8u);
  EXPECT_FALSE(ck.value().has_body);   // an SP holds no bodies or state
  EXPECT_FALSE(ck.value().has_state);
  EXPECT_TRUE(ck.value().has_index);
  // The last announcement's REAL index certificate rides along.
  ASSERT_TRUE(ck.value().has_index_cert);
  ASSERT_TRUE(
      VerifyCheckpoint(ck.value(), core::ExpectedEnclaveMeasurement()).ok());

  svc::SpServer warm{svc::SpServerConfig{}};
  ASSERT_TRUE(warm.Restore(&ck.value(), nullptr).ok());
  EXPECT_EQ(warm.Stats().tip_height, 8u);
  // A bootstrap, not a merge: the second call must refuse.
  EXPECT_FALSE(warm.Restore(&ck.value(), nullptr).ok());

  // Satellite claim: with an empty tail the carried index certificate serves
  // IMMEDIATELY — a superlight client accepts the warm tip's block AND index
  // certificates before any live announcement arrives.
  svc::LoopbackTransport loopback;
  ASSERT_TRUE(warm.Serve(loopback).ok());
  svc::SpClient client(loopback.Connect());
  auto tip = client.FetchTip();
  ASSERT_TRUE(tip.ok()) << tip.message();
  core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
  EXPECT_TRUE(
      light.ValidateAndAccept(tip.value().header, tip.value().block_cert).ok());
  EXPECT_TRUE(light
                  .AcceptIndexCert(tip.value().header, tip.value().index_cert,
                                   tip.value().index_digest, "historical")
                  .ok());

  // The restored index serves verifying proofs, and live announcements
  // resume right above the checkpoint.
  auto r = client.Historical(Rig().hot_account, 1, 8);
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_TRUE(query::HistoricalIndex::VerifyQuery(tip.value().index_digest,
                                                  Rig().hot_account, 1, 8,
                                                  r.value().proof)
                  .ok());
  for (std::size_t i = 8; i < anns.size(); ++i) {
    ASSERT_TRUE(warm.Announce(anns[i]).ok());
  }
  EXPECT_EQ(warm.Stats().tip_height, anns.size());
  warm.Shutdown();
}

TEST(SpCheckpointTest, StoreBackedRehydrateReplaysOnlyTheTail) {
  // A cadenced issuer leaves durable stores + checkpoints behind; a fresh SP
  // rehydrates from checkpoint 8 and replays only blocks 9..12.
  IssuerPaths p = FreshIssuerPaths("ckpt_sp_tail", 0, 4);
  {
    auto ci = OpenIssuer(p);
    ASSERT_TRUE(ci.ok()) << ci.message();
    for (const chain::Block& blk : Rig().blocks) {
      ASSERT_TRUE(ci.value().CertifyBlock(blk).ok());
    }
    ASSERT_EQ(ci.value().Store().Heights(),
              (std::vector<std::uint64_t>{8, 12}));
  }
  auto store = CheckpointStore::Open(p.ckpt.dir);
  auto blocks = chain::BlockStore::Open(p.options.block_log_path);
  auto certs = core::CertificateStore::Open(p.options.cert_log_path);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(blocks.ok());
  ASSERT_TRUE(certs.ok());
  auto ck = store.value().Load(8);
  ASSERT_TRUE(ck.ok()) << ck.message();

  svc::SpServer server{svc::SpServerConfig{}};
  const svc::StoredChain stores{blocks.value(), certs.value()};
  ASSERT_TRUE(server.Restore(&ck.value(), &stores).ok());
  svc::SpServerStats stats = server.Stats();
  EXPECT_EQ(stats.tip_height, 12u);
  // 1 checkpoint restore + 4 tail blocks, instead of all 12.
  EXPECT_EQ(stats.blocks_applied, 5u);

  // The tail advanced the index past the checkpoint's certified digest, so
  // the index-cert slot falls back to the fail-safe placeholder (clients
  // reject it as an index cert; block-cert trust is unaffected).
  svc::LoopbackTransport loopback;
  ASSERT_TRUE(server.Serve(loopback).ok());
  svc::SpClient client(loopback.Connect());
  auto tip = client.FetchTip();
  ASSERT_TRUE(tip.ok()) << tip.message();
  core::SuperlightClient light(core::ExpectedEnclaveMeasurement());
  EXPECT_TRUE(
      light.ValidateAndAccept(tip.value().header, tip.value().block_cert).ok());
  EXPECT_FALSE(light
                   .AcceptIndexCert(tip.value().header, tip.value().index_cert,
                                    tip.value().index_digest, "historical")
                   .ok());
  // The rebuilt index still serves proofs verifying against the served digest.
  auto r = client.Historical(Rig().hot_account, 1, 12);
  ASSERT_TRUE(r.ok()) << r.message();
  EXPECT_TRUE(query::HistoricalIndex::VerifyQuery(tip.value().index_digest,
                                                  Rig().hot_account, 1, 12,
                                                  r.value().proof)
                  .ok());
  server.Shutdown();
}

TEST(SpCheckpointTest, RehydrateRejectsForeignOrMisalignedStores) {
  const auto& anns = Announcements();
  svc::SpServer source{svc::SpServerConfig{}};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(source.Announce(anns[i]).ok());
  }
  auto ck = source.ExportCheckpoint();
  ASSERT_TRUE(ck.ok());

  {
    // Stores that do not contain the checkpoint's height: refused.
    IssuerPaths p = FreshIssuerPaths("ckpt_sp_short", 0, 0);
    auto ci = core::DurableCertificateIssuer::Open(Rig().config, Rig().registry,
                                                   p.options);
    ASSERT_TRUE(ci.ok()) << ci.message();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ci.value().CertifyBlock(Rig().blocks[i]).ok());
    }
    svc::SpServer server{svc::SpServerConfig{}};
    const svc::StoredChain stores{ci.value().Blocks(), ci.value().Certs()};
    EXPECT_FALSE(server.Restore(&ck.value(), &stores).ok());
    EXPECT_EQ(server.Stats().blocks_applied, 0u);
  }
  {
    // A tampered checkpoint never rehydrates anything.
    Checkpoint bad = ck.value();
    bad.index_digest[0] ^= 0x01;
    svc::SpServer server{svc::SpServerConfig{}};
    EXPECT_FALSE(server.Restore(&bad, nullptr).ok());
    EXPECT_EQ(server.Stats().blocks_applied, 0u);
  }
}

TEST(CheckpointStoreTest, LoadLatestValidRacesConcurrentSealAndPrune) {
  // A reader bootstrapping from the store while a writer seals fresh
  // checkpoints and prunes old ones: LoadLatestValid must never error and
  // never hand back anything but a fully verified checkpoint — a file
  // unlinked or half-renamed under its feet reads as "skip", not "fail".
  IssuerPaths p = FreshIssuerPaths("ckpt_race_src", 0, 2);
  p.ckpt.keep = 8;  // retain every sealed height so the race has variety
  auto ci = OpenIssuer(p);
  ASSERT_TRUE(ci.ok()) << ci.message();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ci.value().CertifyBlock(Rig().blocks[i]).ok());
  }
  // Genuine checkpoints at several heights (interval 2 over 8 blocks).
  std::vector<Checkpoint> checkpoints;
  for (std::uint64_t h : ci.value().Store().Heights()) {
    auto ck = ci.value().Store().Load(h);
    ASSERT_TRUE(ck.ok()) << ck.message();
    checkpoints.push_back(ck.value());
  }
  ASSERT_GE(checkpoints.size(), 2u);

  const std::string dir = ::testing::TempDir() + "ckpt_race_store";
  for (int h = 0; h < 64; ++h) {
    std::remove((dir + "/ckpt-" + std::to_string(h) + ".dcp").c_str());
  }
  auto store = CheckpointStore::Open(dir);
  ASSERT_TRUE(store.ok()) << store.message();
  ASSERT_TRUE(store.value().Write(checkpoints.front()).ok());

  const Hash256 measurement = core::ExpectedEnclaveMeasurement();
  std::vector<std::uint64_t> valid_heights;
  for (const Checkpoint& ck : checkpoints) valid_heights.push_back(ck.height);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<bool> reader_failed{false};
  std::string reader_error;
  std::mutex reader_mu;

  std::thread reader([&] {
    while (!stop.load()) {
      auto best = store.value().LoadLatestValid(~std::uint64_t{0}, measurement);
      ++reads;
      if (!best.ok()) {
        std::lock_guard<std::mutex> lk(reader_mu);
        reader_failed.store(true);
        reader_error = best.message();
        return;
      }
      if (best.value().has_value()) {
        ++hits;
        const std::uint64_t h = best.value()->height;
        bool known = false;
        for (std::uint64_t v : valid_heights) known |= v == h;
        if (!known) {
          std::lock_guard<std::mutex> lk(reader_mu);
          reader_failed.store(true);
          reader_error = "unknown height " + std::to_string(h);
          return;
        }
      }
    }
  });

  // The writer churns: seal every height round-robin, prune down to 2 files
  // between rounds, so the reader races renames and unlinks constantly.
  for (int round = 0; round < 30; ++round) {
    for (const Checkpoint& ck : checkpoints) {
      ASSERT_TRUE(store.value().Write(ck).ok());
    }
    ASSERT_TRUE(store.value().Prune(2).ok());
  }
  stop.store(true);
  reader.join();

  EXPECT_FALSE(reader_failed.load()) << reader_error;
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
}

}  // namespace
}  // namespace dcert::ckpt
