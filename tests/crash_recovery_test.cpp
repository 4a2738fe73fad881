// Crash-recoverable Certificate Issuer: seeded crash soak across every named
// kill site, reconcile paths (cert log ahead / block log ahead / both logs
// torn), issuer-level sealed-key negatives, and the announced-implies-durable
// invariant. The central claim under test: after ANY injected crash and
// recovery, the durable cert sequence is byte-identical to a crash-free run
// (deterministic signing + the commit order make recovery exact, not just
// plausible).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ckpt/checkpointed_issuer.h"
#include "common/crash_point.h"
#include "common/rng.h"
#include "dcert/durable_issuer.h"
#include "workloads/workloads.h"

namespace dcert::core {
namespace {

using common::CrashInjected;
using common::CrashPoints;

struct CrashGuard {
  ~CrashGuard() { CrashPoints::Global().Disarm(); }
};

/// The shared reference chain every test certifies: mined once.
struct ChainRig {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::vector<chain::Block> blocks;  // heights 1..blocks.size()
};

const ChainRig& ReferenceChain() {
  static const ChainRig* rig = [] {
    auto* r = new ChainRig();
    r->config.difficulty_bits = 2;
    r->registry = workloads::MakeBlockbenchRegistry(1);
    chain::FullNode miner_node(r->config, r->registry);
    chain::Miner miner(miner_node);
    workloads::AccountPool pool(4, 66);
    workloads::WorkloadGenerator::Params params;
    params.kind = workloads::Workload::kKvStore;
    params.instances_per_workload = 1;
    workloads::WorkloadGenerator gen(params, pool);
    for (int i = 0; i < 10; ++i) {
      auto block = miner.MineBlock(gen.NextBlockTxs(4), 100 + miner_node.Height());
      if (!block.ok() || !miner_node.SubmitBlock(block.value())) {
        throw std::runtime_error("reference chain mining failed");
      }
      r->blocks.push_back(block.value());
    }
    return r;
  }();
  return *rig;
}

struct LogPaths {
  std::string blocks;
  std::string certs;
  std::string key;
};

LogPaths FreshPaths(const std::string& tag) {
  LogPaths p;
  p.blocks = ::testing::TempDir() + tag + "_blocks.log";
  p.certs = ::testing::TempDir() + tag + "_certs.log";
  p.key = ::testing::TempDir() + tag + "_key.sealed";
  std::remove(p.blocks.c_str());
  std::remove(p.certs.c_str());
  std::remove(p.key.c_str());
  return p;
}

DurableIssuerOptions MakeOptions(const LogPaths& p, AnnounceFn announce = {},
                                 bool fsync = false) {
  DurableIssuerOptions options;
  options.block_log_path = p.blocks;
  options.cert_log_path = p.certs;
  options.sealed_key_path = p.key;
  options.fsync_on_append = fsync;
  options.announce = std::move(announce);
  return options;
}

/// Certificate bytes from a crash-free durable run over the reference chain.
const std::vector<Bytes>& ReferenceCerts() {
  static const std::vector<Bytes>* certs = [] {
    const ChainRig& rig = ReferenceChain();
    LogPaths paths = FreshPaths("reference");
    auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                             MakeOptions(paths));
    if (!ci.ok()) throw std::runtime_error(ci.message());
    for (const chain::Block& blk : rig.blocks) {
      if (Status st = ci.value().CertifyBlock(blk); !st) {
        throw std::runtime_error(st.message());
      }
    }
    auto* out = new std::vector<Bytes>();
    for (std::uint64_t i = 0; i < ci.value().Certs().Count(); ++i) {
      out->push_back(ci.value().Certs().Get(i).value().Serialize());
    }
    return out;
  }();
  return *certs;
}

/// Asserts the durable logs hold EXACTLY the reference chain and certs,
/// byte for byte.
void ExpectLogsMatchReference(const DurableCertificateIssuer& ci) {
  const ChainRig& rig = ReferenceChain();
  const std::vector<Bytes>& ref = ReferenceCerts();
  ASSERT_EQ(ci.Blocks().Count(), rig.blocks.size() + 1);
  for (std::size_t h = 1; h <= rig.blocks.size(); ++h) {
    EXPECT_EQ(ci.Blocks().Get(h).value().Serialize(),
              rig.blocks[h - 1].Serialize())
        << "block " << h;
  }
  ASSERT_EQ(ci.Certs().Count(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ci.Certs().Get(i).value().Serialize(), ref[i]) << "cert " << i;
  }
}

void FlipLastByte(const std::string& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f) << path;
  f.seekp(-1, std::ios::end);
  f.put('\xA5');
}

TEST(CrashRecoveryTest, CleanRestartResumesByteIdentical) {
  const ChainRig& rig = ReferenceChain();
  LogPaths paths = FreshPaths("clean_restart");
  Bytes pk_before;
  {
    auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                             MakeOptions(paths));
    ASSERT_TRUE(ci.ok()) << ci.message();
    EXPECT_FALSE(ci.value().Recovery().resumed);
    for (std::size_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks[i]).ok());
    }
    pk_before = ci.value().Issuer().EnclaveKey().Serialize();
  }
  auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                           MakeOptions(paths));
  ASSERT_TRUE(ci.ok()) << ci.message();
  const RecoveryReport& rec = ci.value().Recovery();
  EXPECT_TRUE(rec.resumed);
  EXPECT_EQ(rec.blocks_replayed, 5u);
  EXPECT_EQ(rec.blocks_recertified, 0u);
  EXPECT_EQ(rec.certs_truncated, 0u);
  // Same sealed key, same pk_enc: clients keep their cached attestation.
  EXPECT_EQ(ci.value().Issuer().EnclaveKey().Serialize(), pk_before);
  for (std::size_t i = 5; i < rig.blocks.size(); ++i) {
    ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks[i]).ok());
  }
  ExpectLogsMatchReference(ci.value());
}

TEST(CrashRecoveryTest, CertLogAheadIsTruncatedAndReissuedIdentically) {
  const ChainRig& rig = ReferenceChain();
  LogPaths paths = FreshPaths("cert_ahead");
  {
    auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                             MakeOptions(paths));
    ASSERT_TRUE(ci.ok());
    for (const chain::Block& blk : rig.blocks) {
      ASSERT_TRUE(ci.value().CertifyBlock(blk).ok());
    }
  }
  // External corruption of the block log tail (the one case the in-process
  // commit order cannot produce): the last block record dies, its already
  // durable certificate dangles.
  FlipLastByte(paths.blocks);
  auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                           MakeOptions(paths));
  ASSERT_TRUE(ci.ok()) << ci.message();
  const RecoveryReport& rec = ci.value().Recovery();
  EXPECT_TRUE(rec.block_log_torn);
  EXPECT_EQ(rec.certs_truncated, 1u);
  EXPECT_EQ(ci.value().Issuer().Node().Height(), rig.blocks.size() - 1);
  // Re-certifying the block re-issues the SAME certificate bytes
  // (deterministic signing): a client that saw the pre-crash announcement
  // observes no equivocation.
  ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks.back()).ok());
  ExpectLogsMatchReference(ci.value());
}

TEST(CrashRecoveryTest, BlockLogAheadGapIsRecertifiedAndAnnounced) {
  const ChainRig& rig = ReferenceChain();
  LogPaths paths = FreshPaths("block_ahead");
  CrashGuard guard;
  {
    auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                             MakeOptions(paths));
    ASSERT_TRUE(ci.ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks[i]).ok());
    }
    // Crash inside certificate construction for block 7: its block record is
    // durable, its certificate never happens.
    CrashPoints::Global().Arm("issuer.process.ecall", 1);
    EXPECT_THROW(ci.value().CertifyBlock(rig.blocks[6]), CrashInjected);
  }
  std::vector<std::uint64_t> announced;
  auto sink = [&](const chain::Block& blk, const BlockCertificate&) {
    announced.push_back(blk.header.height);
    return Status::Ok();
  };
  auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                           MakeOptions(paths, sink));
  ASSERT_TRUE(ci.ok()) << ci.message();
  const RecoveryReport& rec = ci.value().Recovery();
  EXPECT_EQ(rec.blocks_replayed, 6u);
  EXPECT_EQ(rec.blocks_recertified, 1u);
  EXPECT_EQ(rec.certs_truncated, 0u);
  // The gap block was never announced before the crash (announce follows the
  // cert append), so recovery announces the re-issued certificate.
  ASSERT_EQ(announced.size(), 1u);
  EXPECT_EQ(announced[0], 7u);
  for (std::size_t i = 7; i < rig.blocks.size(); ++i) {
    ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks[i]).ok());
  }
  ExpectLogsMatchReference(ci.value());
}

TEST(CrashRecoveryTest, BothLogsTornRecoverTogether) {
  const ChainRig& rig = ReferenceChain();
  LogPaths paths = FreshPaths("both_torn");
  {
    auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                             MakeOptions(paths));
    ASSERT_TRUE(ci.ok());
    for (const chain::Block& blk : rig.blocks) {
      ASSERT_TRUE(ci.value().CertifyBlock(blk).ok());
    }
  }
  FlipLastByte(paths.blocks);
  FlipLastByte(paths.certs);
  auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                           MakeOptions(paths));
  ASSERT_TRUE(ci.ok()) << ci.message();
  const RecoveryReport& rec = ci.value().Recovery();
  EXPECT_TRUE(rec.block_log_torn);
  EXPECT_TRUE(rec.cert_log_torn);
  // Both logs lost their last record: consistent again at N-1.
  EXPECT_EQ(rec.certs_truncated, 0u);
  EXPECT_EQ(rec.blocks_replayed, rig.blocks.size() - 1);
  ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks.back()).ok());
  ExpectLogsMatchReference(ci.value());
}

TEST(CrashRecoveryTest, AnnounceSinkErrorAbortsButLogsStayConsistent) {
  const ChainRig& rig = ReferenceChain();
  LogPaths paths = FreshPaths("announce_error");
  int calls = 0;
  auto sink = [&](const chain::Block&, const BlockCertificate&) {
    return ++calls >= 3 ? Status::Error("subscriber down") : Status::Ok();
  };
  {
    auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                             MakeOptions(paths, sink));
    ASSERT_TRUE(ci.ok());
    ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks[0]).ok());
    ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks[1]).ok());
    Status st = ci.value().CertifyBlock(rig.blocks[2]);
    EXPECT_FALSE(st.ok());
    // The certificate went durable BEFORE the failed announce.
    EXPECT_EQ(ci.value().Certs().Count(), 3u);
  }
  auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                           MakeOptions(paths));
  ASSERT_TRUE(ci.ok()) << ci.message();
  EXPECT_EQ(ci.value().Recovery().blocks_replayed, 3u);
}

TEST(CrashRecoveryTest, MissingSealedKeyWithNonEmptyStoresFails) {
  const ChainRig& rig = ReferenceChain();
  LogPaths paths = FreshPaths("missing_key");
  {
    auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                             MakeOptions(paths));
    ASSERT_TRUE(ci.ok());
    ASSERT_TRUE(ci.value().CertifyBlock(rig.blocks[0]).ok());
  }
  std::remove(paths.key.c_str());
  auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                           MakeOptions(paths));
  EXPECT_FALSE(ci.ok());
  EXPECT_NE(ci.message().find("sealed key"), std::string::npos);
}

// Issuer-level sealed-key negatives: every tampering is a Status error, never
// a crash, and never a usable issuer under a wrong key.
TEST(SealedIssuerTest, RestoreRejectsTamperedTruncatedAndForeignBlobs) {
  const ChainRig& rig = ReferenceChain();
  CertificateIssuer original(rig.config, rig.registry, {}, "sealed-neg-key");
  const Bytes sealed = original.SealSigningKey();

  // Bit flip anywhere in the blob: MAC check fails.
  Bytes flipped = sealed;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_FALSE(CertificateIssuer::Restore(rig.config, rig.registry, flipped).ok());

  // Truncation: decode/MAC fails, no crash.
  Bytes truncated(sealed.begin(), sealed.begin() + sealed.size() / 2);
  EXPECT_FALSE(
      CertificateIssuer::Restore(rig.config, rig.registry, truncated).ok());
  EXPECT_FALSE(CertificateIssuer::Restore(rig.config, rig.registry, Bytes{}).ok());

  // Sealed under a DIFFERENT enclave identity (wrong measurement): the
  // sealing key differs, unsealing fails.
  sgxsim::Enclave other("not-the-dcert-enclave", "9.9.9");
  const Bytes foreign = other.Seal(sealed);
  EXPECT_FALSE(
      CertificateIssuer::Restore(rig.config, rig.registry, foreign).ok());
}

TEST(SealedIssuerTest, RestoredIssuerProducesByteIdenticalCerts) {
  const ChainRig& rig = ReferenceChain();
  CertificateIssuer original(rig.config, rig.registry, {}, "sealed-twin-key");
  auto restored = CertificateIssuer::Restore(rig.config, rig.registry,
                                             original.SealSigningKey());
  ASSERT_TRUE(restored.ok()) << restored.message();
  EXPECT_EQ(restored.value().EnclaveKey().Serialize(),
            original.EnclaveKey().Serialize());
  for (std::size_t i = 0; i < 4; ++i) {
    auto a = original.ProcessBlock(rig.blocks[i]);
    auto b = restored.value().ProcessBlock(rig.blocks[i]);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().Serialize(), b.value().Serialize()) << "block " << i;
  }
}

// The soak: many seeded cycles, each arming a random kill site with a random
// hit countdown, crashing a durable issuer mid-chain (fsync on or off),
// recovering, finishing the chain, and asserting the final
// logs are byte-identical to the crash-free reference — with every announced
// certificate present verbatim in the durable log (announced => durable).
TEST(CrashSoakTest, SeededCrashRecoverCyclesAreExact) {
  const ChainRig& rig = ReferenceChain();
  const std::vector<Bytes>& ref_certs = ReferenceCerts();
  CrashGuard guard;

  std::uint64_t cycles = 200;
  if (const char* env = std::getenv("DCERT_CRASH_SOAK_CYCLES")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) cycles = v;
  }
  const std::vector<std::string> sites = {
      "blocklog.append.before",
      "blocklog.append.torn",
      "blocklog.append.after",
      "certlog.append.before",
      "certlog.append.torn",
      "certlog.append.after",
      "issuer.process.ecall",
      "issuer.durable.begin",
      "issuer.durable.after_block_append",
      "issuer.durable.before_announce",
      "issuer.durable.after_announce",
  };

  Rng rng(0xDCE47C4A54ull);
  std::map<std::string, std::uint64_t> fired_at;
  std::uint64_t crashed_cycles = 0;

  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    LogPaths paths = FreshPaths("soak");
    const std::string& site = sites[rng.NextBelow(sites.size())];
    const std::uint64_t countdown = 1 + rng.NextBelow(rig.blocks.size());
    const bool fsync = rng.NextBelow(2) == 1;
    SCOPED_TRACE(site + " countdown=" + std::to_string(countdown) +
                 (fsync ? " fsync" : ""));

    // (height, cert bytes) of every announcement that reached a client.
    std::vector<std::pair<std::uint64_t, Bytes>> announced;
    auto sink = [&](const chain::Block& blk, const BlockCertificate& cert) {
      announced.emplace_back(blk.header.height, cert.Serialize());
      return Status::Ok();
    };

    // Phase 1: drive until the armed site kills the issuer (or the chain
    // completes because the site was never reached often enough).
    bool crashed = false;
    {
      auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                               MakeOptions(paths, sink, fsync));
      ASSERT_TRUE(ci.ok()) << ci.message();
      CrashPoints::Global().Arm(site, countdown);
      try {
        for (const chain::Block& blk : rig.blocks) {
          Status st = ci.value().CertifyBlock(blk);
          ASSERT_TRUE(st.ok()) << st.message();
        }
      } catch (const CrashInjected& e) {
        crashed = true;
        ++fired_at[e.site];
      }
      CrashPoints::Global().Disarm();
    }
    if (crashed) ++crashed_cycles;

    // Phase 2: recover and finish the chain.
    {
      auto ci = DurableCertificateIssuer::Open(rig.config, rig.registry,
                                               MakeOptions(paths, sink, fsync));
      ASSERT_TRUE(ci.ok()) << ci.message();
      for (std::uint64_t h = ci.value().Issuer().Node().Height();
           h < rig.blocks.size(); ++h) {
        Status st = ci.value().CertifyBlock(rig.blocks[h]);
        ASSERT_TRUE(st.ok()) << st.message();
      }

      // Exactness: logs byte-identical to the crash-free reference.
      ASSERT_EQ(ci.value().Blocks().Count(), rig.blocks.size() + 1);
      ASSERT_EQ(ci.value().Certs().Count(), ref_certs.size());
      for (std::size_t i = 0; i < ref_certs.size(); ++i) {
        ASSERT_EQ(ci.value().Certs().Get(i).value().Serialize(), ref_certs[i])
            << "cert " << i;
      }

      // Announced => durable: every certificate a client ever saw is in the
      // final log verbatim, each height announced at most once (a client can
      // never observe equivocation or an unrecoverable cert).
      std::set<std::uint64_t> seen;
      for (const auto& [height, bytes] : announced) {
        EXPECT_TRUE(seen.insert(height).second)
            << "height " << height << " announced twice";
        ASSERT_GE(height, 1u);
        ASSERT_LE(height, ref_certs.size());
        EXPECT_EQ(bytes, ref_certs[height - 1]) << "announced cert " << height;
      }
    }
  }

  // The seeded schedule must actually exercise the machinery: most cycles
  // crash, and (at full cycle count) every site fires at least once.
  EXPECT_GE(crashed_cycles, cycles / 2) << "soak barely crashed";
  if (cycles >= 200) {
    for (const std::string& site : sites) {
      EXPECT_GE(fired_at[site], 1u) << site << " never fired";
    }
  }
}

// The checkpointed soak (the segmented-log + checkpoint sequel to the soak
// above): seeded cycles over a CheckpointedIssuer with small segments and a
// tight checkpoint cadence, arming kill sites inside segment rotation,
// compaction's manifest/unlink protocol, and checkpoint seal/prune. After
// recovery the RETAINED durable state must be byte-identical to the
// crash-free reference — compaction may shorten what is readable, but never
// changes a surviving byte — and recovery must come up through a checkpoint
// whenever history was compacted.
TEST(CrashSoakTest, CheckpointedSeededCrashRecoverCyclesAreExact) {
  const ChainRig& rig = ReferenceChain();
  const std::vector<Bytes>& ref_certs = ReferenceCerts();
  CrashGuard guard;

  std::uint64_t cycles = 150;
  if (const char* env = std::getenv("DCERT_CRASH_SOAK_CYCLES")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) cycles = v;
  }
  // Sites firing once per checkpoint (or less) need countdown 1 to be
  // reachable; rotation/append sites fire often enough for a randomized
  // countdown.
  const std::vector<std::string> once_sites = {
      "ckpt.seal.begin",        "ckpt.seal.torn",
      "ckpt.seal.commit",       "ckpt.prune.unlink",
      "blocklog.compact.manifest", "blocklog.compact.unlink",
      "certlog.compact.manifest",  "certlog.compact.unlink",
  };
  const std::vector<std::string> multi_sites = {
      "blocklog.rotate.begin",  "blocklog.rotate.rename",
      "blocklog.rotate.sidecar", "blocklog.rotate.newfile",
      "certlog.rotate.begin",   "certlog.rotate.rename",
      "certlog.rotate.sidecar", "certlog.rotate.newfile",
      "blocklog.append.torn",   "certlog.append.torn",
      "issuer.durable.after_block_append",
  };

  const std::string ckpt_dir = ::testing::TempDir() + "cksoak_ckpt";
  Rng rng(0xC4EC7B01A7ull);
  std::map<std::string, std::uint64_t> fired_at;
  std::uint64_t crashed_cycles = 0;

  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    LogPaths paths = FreshPaths("cksoak");
    // FreshPaths clears the single-file logs; also clear the segment,
    // manifest, and checkpoint files previous cycles rotated out.
    for (const std::string& base : {paths.blocks, paths.certs}) {
      std::remove((base + ".manifest").c_str());
      for (int first = 0; first < 32; ++first) {
        const std::string seg = base + ".seg." + std::to_string(first);
        std::remove(seg.c_str());
        std::remove((seg + ".idx").c_str());
      }
    }
    for (int h = 0; h <= 16; ++h) {
      std::remove((ckpt_dir + "/ckpt-" + std::to_string(h) + ".dcp").c_str());
    }

    const bool once = rng.NextBelow(2) == 1;
    const std::string& site = once ? once_sites[rng.NextBelow(once_sites.size())]
                                   : multi_sites[rng.NextBelow(multi_sites.size())];
    const std::uint64_t countdown = once ? 1 : 1 + rng.NextBelow(2);
    SCOPED_TRACE(site + " countdown=" + std::to_string(countdown));

    std::vector<std::pair<std::uint64_t, Bytes>> announced;
    auto sink = [&](const chain::Block& blk, const BlockCertificate& cert) {
      announced.emplace_back(blk.header.height, cert.Serialize());
      return Status::Ok();
    };
    DurableIssuerOptions options = MakeOptions(paths, sink);
    options.segment_records = 3;
    ckpt::CheckpointConfig ckpt_cfg;
    ckpt_cfg.dir = ckpt_dir;
    ckpt_cfg.interval = 3;
    ckpt_cfg.keep = 2;

    // Phase 1: drive until the armed site kills the issuer.
    bool crashed = false;
    {
      auto ci = ckpt::CheckpointedIssuer::Open(rig.config, rig.registry,
                                               options, ckpt_cfg);
      ASSERT_TRUE(ci.ok()) << ci.message();
      CrashPoints::Global().Arm(site, countdown);
      try {
        for (const chain::Block& blk : rig.blocks) {
          Status st = ci.value().CertifyBlock(blk);
          ASSERT_TRUE(st.ok()) << st.message();
        }
      } catch (const CrashInjected& e) {
        crashed = true;
        ++fired_at[e.site];
      }
      CrashPoints::Global().Disarm();
    }
    if (crashed) ++crashed_cycles;

    // Phase 2: recover (through a checkpoint when one exists) and finish.
    // History compacted BEFORE recovery starts forces checkpoint bootstrap
    // (the replay-from-genesis path is gone); read that state first — the
    // reopen itself may seal an overdue checkpoint and compact further.
    std::uint64_t pre_base = 0;
    {
      auto peek = chain::BlockStore::Open(paths.blocks, 3);
      ASSERT_TRUE(peek.ok()) << peek.message();
      pre_base = peek.value().BaseHeight();
    }
    {
      auto ci = ckpt::CheckpointedIssuer::Open(rig.config, rig.registry,
                                               options, ckpt_cfg);
      ASSERT_TRUE(ci.ok()) << ci.message();
      const core::DurableCertificateIssuer& inner = ci.value().Durable();
      if (pre_base > 0) {
        EXPECT_GT(ci.value().BootstrapHeight(), 0u);
      }
      for (std::uint64_t h = inner.Issuer().Node().Height();
           h < rig.blocks.size(); ++h) {
        Status st = ci.value().CertifyBlock(rig.blocks[h]);
        ASSERT_TRUE(st.ok()) << st.message();
      }

      // Exactness over everything retained: logical counts match the
      // reference exactly, and every readable record is byte-identical.
      ASSERT_EQ(inner.Blocks().Count(), rig.blocks.size() + 1);
      ASSERT_EQ(inner.Certs().Count(), ref_certs.size());
      const std::uint64_t first_block =
          std::max<std::uint64_t>(inner.Blocks().BaseHeight(), 1);
      for (std::uint64_t h = first_block; h <= rig.blocks.size(); ++h) {
        ASSERT_EQ(inner.Blocks().Get(h).value().Serialize(),
                  rig.blocks[h - 1].Serialize())
            << "block " << h;
      }
      for (std::uint64_t i = inner.Certs().BaseIndex(); i < ref_certs.size();
           ++i) {
        ASSERT_EQ(inner.Certs().Get(i).value().Serialize(), ref_certs[i])
            << "cert " << i;
      }
      EXPECT_EQ(inner.Issuer().Node().Tip().header.Hash(),
                rig.blocks.back().header.Hash());

      // Announced => durable-or-compacted, each height at most once, always
      // the reference bytes: clients never observe equivocation.
      std::set<std::uint64_t> seen;
      for (const auto& [height, bytes] : announced) {
        EXPECT_TRUE(seen.insert(height).second)
            << "height " << height << " announced twice";
        ASSERT_GE(height, 1u);
        ASSERT_LE(height, ref_certs.size());
        EXPECT_EQ(bytes, ref_certs[height - 1]) << "announced cert " << height;
      }
    }
  }

  EXPECT_GE(crashed_cycles, cycles / 3) << "soak barely crashed";
  if (cycles >= 150) {
    for (const std::string& site : once_sites) {
      EXPECT_GE(fired_at[site], 1u) << site << " never fired";
    }
    for (const std::string& site : multi_sites) {
      EXPECT_GE(fired_at[site], 1u) << site << " never fired";
    }
  }
}

}  // namespace
}  // namespace dcert::core
