// The unified chaos harness: one seeded ChaosPlan composes the network
// plane (FaultInjectingTransport between the client and one replica), the
// disk plane (IoFaultInjector under a RecordLog and a CheckpointStore), and
// the process-crash plane (CrashPoints on the log's append sites), while a
// misbehaving replica serves certified-looking-but-wrong replies. The soak's
// central claims: the verifying client NEVER accepts an unverified reply
// (every answer it returns equals the clean-fleet truth), the misbehaving
// replica ends quarantined with serialized evidence, durable state survives
// every injected disk fault and crash, and once the weather clears the fleet
// converges back to all-breakers-closed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chain/node.h"
#include "ckpt/checkpoint.h"
#include "common/crash_point.h"
#include "common/io_fault.h"
#include "common/record_log.h"
#include "dcert/issuer.h"
#include "fleet/chaos.h"
#include "fleet/fleet_client.h"
#include "fleet/health.h"
#include "fleet/shard_map.h"
#include "query/extraction.h"
#include "query/historical_index.h"
#include "svc/fault_transport.h"
#include "svc/protocol.h"
#include "svc/sp_server.h"
#include "workloads/workloads.h"

namespace dcert::fleet {
namespace {

std::uint64_t SoakCycles(std::uint64_t default_cycles) {
  if (const char* env = std::getenv("DCERT_CHAOS_SOAK_CYCLES")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return v;
  }
  return default_cycles;
}

/// A small certified chain shared by the tests, plus one account known to be
/// written in the LAST block.
struct FleetChain {
  std::vector<svc::AnnounceRequest> announcements;
  std::uint64_t hot_account = 0;
  std::uint64_t tip_height = 0;

  explicit FleetChain(int blocks, std::size_t txs = 8) {
    chain::ChainConfig config;
    config.difficulty_bits = 2;
    auto registry = workloads::MakeBlockbenchRegistry(1);
    core::CertificateIssuer ci(config, registry);
    auto hist = std::make_shared<query::HistoricalIndex>("historical");
    ci.AttachIndex(hist);
    chain::FullNode node(config, registry);
    chain::Miner miner(node);
    workloads::AccountPool pool(4, 77);
    workloads::WorkloadGenerator::Params params;
    params.kind = workloads::Workload::kKvStore;
    params.instances_per_workload = 1;
    params.kv_keys = 8;
    workloads::WorkloadGenerator gen(params, pool);

    for (int i = 0; i < blocks; ++i) {
      auto block = miner.MineBlock(gen.NextBlockTxs(txs),
                                   1700000000 + node.Height() * 15);
      if (!block.ok()) throw std::runtime_error("mine: " + block.message());
      if (Status st = node.SubmitBlock(block.value()); !st) {
        throw std::runtime_error("submit: " + st.message());
      }
      auto icerts = ci.ProcessBlockHierarchical(block.value());
      if (!icerts.ok()) throw std::runtime_error("certify: " + icerts.message());
      svc::AnnounceRequest ann;
      ann.block = block.value();
      ann.block_cert = *ci.LatestCert();
      ann.index_digest = hist->CurrentDigest();
      ann.index_cert = icerts.value()[0];
      announcements.push_back(std::move(ann));
    }
    auto last_writes =
        query::ExtractHistoricalWrites(announcements.back().block);
    if (last_writes.empty()) {
      throw std::runtime_error("last block produced no historical writes");
    }
    hot_account = last_writes.front().account_word;
    tip_height = announcements.back().block.header.height;
  }
};

const FleetChain& Chain() {
  static FleetChain chain(6);
  return chain;
}

ShardMap MustCreate(const ShardMapConfig& cfg) {
  auto map = ShardMap::Create(cfg);
  if (!map.ok()) throw std::runtime_error(map.message());
  return map.value();
}

/// A Byzantine decorator: query replies pass through with the height of
/// their carried tip header inflated, so the reply still parses but the
/// replica is provably claiming a tip it cannot certify (the block
/// certificate no longer signs the header => misbehavior, not a benign
/// fault). Queries go out without the client's tip key, so every reply
/// carries the full tip to rewrite.
class TamperTransport final : public svc::ClientTransport {
 public:
  TamperTransport(std::unique_ptr<svc::ClientTransport> inner,
                  std::shared_ptr<std::atomic<std::uint64_t>> tampered)
      : inner_(std::move(inner)), tampered_(std::move(tampered)) {}

  using svc::ClientTransport::Call;
  Result<Bytes> Call(ByteView request,
                     std::chrono::milliseconds deadline) override {
    auto scoped = svc::DecodeShardScopedRequest(request);
    if (!scoped.ok()) return inner_->Call(request, deadline);
    auto query = svc::DecodeQueryRequest(scoped.value().inner);
    if (!query.ok()) return inner_->Call(request, deadline);
    auto reply = inner_->Call(
        svc::EncodeShardScopedRequest(
            scoped.value().map_version, scoped.value().shard_id,
            svc::EncodeQueryRequest(query.value().query)),
        deadline);
    if (!reply.ok()) return reply;
    auto env = svc::DecodeReplyEnvelope(reply.value());
    if (!env.ok() || env.value().code != svc::Code::kOk) return reply;
    auto body = svc::DecodeQueryReply(env.value().body, std::nullopt);
    if (!body.ok()) return reply;
    tampered_->fetch_add(1);
    body.value().tip.header.height += 1000;
    return Result<Bytes>(svc::AssembleQueryReply(
        svc::EncodeTip(body.value().tip), std::nullopt,
        body.value().proof.Serialize()));
  }

 private:
  std::unique_ptr<svc::ClientTransport> inner_;
  std::shared_ptr<std::atomic<std::uint64_t>> tampered_;
};

/// In-process shard fleet, every replica holding the full chain.
struct LiveFleet {
  ShardMap map;
  std::vector<std::vector<std::unique_ptr<svc::LoopbackTransport>>> transports;
  std::vector<std::vector<std::unique_ptr<svc::SpServer>>> servers;

  explicit LiveFleet(const ShardMapConfig& cfg) : map(MustCreate(cfg)) {
    const auto& chain = Chain();
    transports.resize(map.TotalShards());
    servers.resize(map.TotalShards());
    for (std::uint32_t s = 0; s < map.TotalShards(); ++s) {
      for (std::uint32_t r = 0; r < map.Replicas(); ++r) {
        svc::SpServerConfig config;
        config.shard = map.AssignmentFor(s);
        config.shard_map = map.Serialize();
        auto server = std::make_unique<svc::SpServer>(config);
        auto transport = std::make_unique<svc::LoopbackTransport>();
        Status st = server->Serve(*transport);
        if (!st.ok()) throw std::runtime_error(st.message());
        for (const auto& ann : chain.announcements) {
          if (Status ast = server->Announce(ann); !ast) {
            throw std::runtime_error(ast.message());
          }
        }
        transports[s].push_back(std::move(transport));
        servers[s].push_back(std::move(server));
      }
    }
  }

  ~LiveFleet() {
    for (auto& per_shard : servers) {
      for (auto& server : per_shard) server->Shutdown();
    }
  }

  FleetClient::BackendConnector DirectConnector() {
    return [this](std::uint32_t s, std::uint32_t r) -> svc::Connector {
      svc::LoopbackTransport* lb = transports[s][r].get();
      return [lb] {
        return Result<std::unique_ptr<svc::ClientTransport>>(lb->Connect());
      };
    };
  }
};

/// Disarms every global injector on scope exit so a failing soak can never
/// poison later tests in the binary.
struct InjectorGuard {
  ~InjectorGuard() {
    common::CrashPoints::Global().Disarm();
    common::IoFaultInjector::Global().Disarm();
  }
};

// ---------------------------------------------------------------------------
// ChaosPlan determinism
// ---------------------------------------------------------------------------

TEST(ChaosPlanTest, SameSeedSamePlanDifferentPlanesDiffer) {
  ChaosPlanConfig cfg;
  cfg.seed = 42;
  ChaosPlan a(cfg);
  ChaosPlan b(cfg);

  // Same seed, same stream: identical network schedules.
  EXPECT_EQ(a.NetworkFaults(7).seed, b.NetworkFaults(7).seed);
  EXPECT_EQ(a.DiskFaults().seed, b.DiskFaults().seed);
  // Different streams and different planes draw from decorrelated seeds.
  EXPECT_NE(a.NetworkFaults(1).seed, a.NetworkFaults(2).seed);
  EXPECT_NE(a.NetworkFaults(1).seed, a.DiskFaults().seed);

  // The crash stream replays: two plans with the same seed pick the same
  // site sequence.
  const std::vector<std::string> sites = {"x.a", "x.b", "x.c"};
  cfg.crash_rate = 1.0;
  ChaosPlan c(cfg);
  ChaosPlan d(cfg);
  for (int i = 0; i < 16; ++i) {
    const auto cc = c.NextCrash(sites);
    const auto dc = d.NextCrash(sites);
    ASSERT_TRUE(cc.arm);
    EXPECT_EQ(cc.site, dc.site);
    EXPECT_EQ(cc.countdown, dc.countdown);
  }
}

// ---------------------------------------------------------------------------
// Breaker probe admission
// ---------------------------------------------------------------------------

TEST(ChaosHarnessTest, RoutableNeverConsumesProbeAndAbandonedProbeReadmits) {
  HealthPolicy policy;
  policy.failure_threshold = 1;
  policy.open_base_backoff = std::chrono::milliseconds(1);
  policy.open_max_backoff = std::chrono::milliseconds(1);
  policy.probe_timeout = std::chrono::milliseconds(20);
  FleetHealth health(policy);

  health.ReportFailure(0, 0);
  EXPECT_EQ(health.State(0, 0), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // past open_until

  // Routable is how candidate lists are built: it may be called any number
  // of times for replicas that are never queried without consuming the
  // single half-open probe admission.
  EXPECT_TRUE(health.Routable(0, 0));
  EXPECT_TRUE(health.Routable(0, 0));
  EXPECT_EQ(health.State(0, 0), BreakerState::kOpen);  // unchanged

  // AllowRequest consumes the probe; a second caller is blocked.
  EXPECT_TRUE(health.AllowRequest(0, 0));
  EXPECT_EQ(health.State(0, 0), BreakerState::kHalfOpen);
  EXPECT_FALSE(health.AllowRequest(0, 0));
  EXPECT_FALSE(health.Routable(0, 0));

  // The probe outcome is never reported (caller abandoned it). After the
  // probe timeout another probe is admitted instead of the backend staying
  // wedged half-open forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(health.Routable(0, 0));
  EXPECT_TRUE(health.AllowRequest(0, 0));
  health.ReportSuccess(0, 0, 100);
  EXPECT_EQ(health.State(0, 0), BreakerState::kClosed);
  EXPECT_TRUE(health.AllClosed());
}

// ---------------------------------------------------------------------------
// Evidence persistence + operator release
// ---------------------------------------------------------------------------

TEST(ChaosHarnessTest, EvidenceFilePersistsQuarantineAndReleaseReadmits) {
  const std::string path = ::testing::TempDir() + "chaos_evidence.bin";
  std::remove(path.c_str());

  MisbehaviorEvidence ev;
  ev.map_version = 3;
  ev.shard_id = 1;
  ev.replica = 2;
  ev.op = static_cast<std::uint8_t>(svc::Op::kHistorical);
  ev.account = 99;
  ev.from_height = 1;
  ev.to_height = 6;
  ev.reply_digest[0] = 0xAB;
  ev.offending_cert = Bytes{1, 2, 3};
  ev.verdict = "fleet: query proof: digest mismatch";

  {
    FleetHealth health;
    ASSERT_TRUE(health.AttachEvidenceFile(path).ok());  // missing file = empty
    health.ReportMisbehavior(ev);
    EXPECT_TRUE(health.Quarantined(2));
    EXPECT_FALSE(health.AllowRequest(1, 2));
    EXPECT_TRUE(health.AllowRequest(1, 0));
  }

  // A fresh client attaching the same file inherits the quarantine: the
  // decision survives restarts until an operator releases it.
  {
    FleetHealth health;
    ASSERT_TRUE(health.AttachEvidenceFile(path).ok());
    EXPECT_TRUE(health.Quarantined(2));
    const auto records = health.Evidence();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].verdict, ev.verdict);
    EXPECT_EQ(records[0].reply_digest, ev.reply_digest);
    EXPECT_EQ(records[0].offending_cert, ev.offending_cert);

    health.Release(2);
    EXPECT_FALSE(health.Quarantined(2));
    EXPECT_TRUE(health.AllowRequest(1, 2));
  }

  // The operator-release path dcertctl uses: rewrite the file without the
  // released replica's records.
  auto loaded = LoadEvidenceFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.message();
  ASSERT_EQ(loaded.value().size(), 1u);
  ASSERT_TRUE(WriteEvidenceFile(path, {}).ok());
  {
    FleetHealth health;
    ASSERT_TRUE(health.AttachEvidenceFile(path).ok());
    EXPECT_FALSE(health.Quarantined(2));
  }
  std::remove(path.c_str());
}

TEST(ChaosHarnessTest, EvidenceSerializationRoundTripsAndRejectsGarbage) {
  MisbehaviorEvidence ev;
  ev.map_version = ~std::uint64_t{0};
  ev.shard_id = 7;
  ev.replica = 1;
  ev.op = static_cast<std::uint8_t>(svc::Op::kAggregate);
  ev.account = 0x123456789abcdefULL;
  ev.from_height = 10;
  ev.to_height = 20;
  for (std::size_t i = 0; i < ev.reply_digest.size(); ++i) {
    ev.reply_digest[i] = static_cast<std::uint8_t>(i * 3);
  }
  ev.offending_cert = Bytes(100, 0x5A);
  ev.verdict = "fleet: index cert: signature invalid";

  const Bytes wire = ev.Serialize();
  auto back = MisbehaviorEvidence::Deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.message();
  EXPECT_EQ(back.value().map_version, ev.map_version);
  EXPECT_EQ(back.value().shard_id, ev.shard_id);
  EXPECT_EQ(back.value().replica, ev.replica);
  EXPECT_EQ(back.value().op, ev.op);
  EXPECT_EQ(back.value().account, ev.account);
  EXPECT_EQ(back.value().from_height, ev.from_height);
  EXPECT_EQ(back.value().to_height, ev.to_height);
  EXPECT_EQ(back.value().reply_digest, ev.reply_digest);
  EXPECT_EQ(back.value().offending_cert, ev.offending_cert);
  EXPECT_EQ(back.value().verdict, ev.verdict);
  EXPECT_EQ(back.value().Serialize(), wire);

  for (std::size_t cut : {std::size_t{0}, std::size_t{8}, wire.size() - 1}) {
    Bytes trunc(wire.begin(), wire.begin() + cut);
    EXPECT_FALSE(MisbehaviorEvidence::Deserialize(trunc).ok()) << cut;
  }
}

// ---------------------------------------------------------------------------
// The composed soak
// ---------------------------------------------------------------------------

TEST(ChaosSoakTest, ComposedFaultsAcceptZeroUnverifiedAndConvergeClosed) {
  InjectorGuard guard;
  const std::uint64_t cycles = SoakCycles(500);
  const auto& chain = Chain();

  ChaosPlanConfig plan_cfg;
  plan_cfg.seed = 0xC4A05;
  plan_cfg.net_fault_rate = 0.08;
  plan_cfg.disk_fault_rate = 0.15;
  plan_cfg.crash_rate = 0.1;
  ChaosPlan plan(plan_cfg);

  // 2 key shards x 3 replicas. Replica 0 sits behind the plan's seeded
  // network faults (benign plane), replica 2 actively lies (Byzantine
  // plane), replica 1 is clean.
  ShardMapConfig cfg;
  cfg.version = 1;
  cfg.key_shards = 2;
  cfg.replicas = 3;
  LiveFleet fleet(cfg);
  FleetClient truth(fleet.map, fleet.DirectConnector());

  auto net_counters = std::make_shared<svc::FaultCounters>();
  auto tampered = std::make_shared<std::atomic<std::uint64_t>>(0);

  FleetClientConfig client_cfg;
  client_cfg.retry.max_attempts = 3;
  client_cfg.retry.call_deadline = std::chrono::milliseconds(1000);
  client_cfg.retry.initial_backoff = std::chrono::milliseconds(1);
  client_cfg.retry.max_backoff = std::chrono::milliseconds(8);
  client_cfg.hedge = true;  // hedged subqueries run under chaos too
  client_cfg.hedge_min_delay_us = 200;
  client_cfg.hedge_max_delay_us = 5000;
  client_cfg.health_policy.failure_threshold = 3;
  client_cfg.health_policy.open_base_backoff = std::chrono::milliseconds(5);
  client_cfg.health_policy.open_max_backoff = std::chrono::milliseconds(50);

  const std::string evidence_path = ::testing::TempDir() + "chaos_soak_ev.bin";
  std::remove(evidence_path.c_str());

  FleetClient client(
      fleet.map,
      [&fleet, &plan, &net_counters, &tampered](
          std::uint32_t s, std::uint32_t r) -> svc::Connector {
        svc::LoopbackTransport* lb = fleet.transports[s][r].get();
        svc::Connector dial = [lb] {
          return Result<std::unique_ptr<svc::ClientTransport>>(lb->Connect());
        };
        if (r == 0) {
          return svc::FaultyConnector(std::move(dial),
                                      plan.NetworkFaults(s * 16 + r),
                                      net_counters);
        }
        if (r == 2) {
          return [dial, tampered] {
            auto conn = dial();
            if (!conn.ok()) return conn;
            return Result<std::unique_ptr<svc::ClientTransport>>(
                std::make_unique<TamperTransport>(std::move(conn.value()),
                                                  tampered));
          };
        }
        return dial;
      },
      client_cfg);
  ASSERT_TRUE(client.Health()->AttachEvidenceFile(evidence_path).ok());

  // Disk plane: a record log and a checkpoint store churned alongside the
  // query traffic. The checkpoint is a genuine export, sealed clean once —
  // every later faulty rewrite must leave the valid file intact (tmp+rename
  // atomicity under injected EIO/short-write/fsync faults).
  const std::string log_path = ::testing::TempDir() + "chaos_soak.log";
  std::remove(log_path.c_str());
  std::remove((log_path + ".manifest").c_str());
  for (int first = 0; first < 4096; ++first) {
    const std::string seg = log_path + ".seg." + std::to_string(first);
    std::remove(seg.c_str());
    std::remove((seg + ".idx").c_str());
  }
  common::RecordLog::Options log_opts;
  log_opts.name = "chaoslog";
  log_opts.segment_max_records = 16;
  auto opened = common::RecordLog::Open(log_path, log_opts);
  ASSERT_TRUE(opened.ok()) << opened.message();
  auto log = std::make_unique<common::RecordLog>(std::move(opened.value()));

  const std::string ckpt_dir = ::testing::TempDir() + "chaos_soak_ckpt";
  for (int h = 0; h < 64; ++h) {
    std::remove((ckpt_dir + "/ckpt-" + std::to_string(h) + ".dcp").c_str());
  }
  auto store = ckpt::CheckpointStore::Open(ckpt_dir);
  ASSERT_TRUE(store.ok()) << store.message();
  auto exported = fleet.servers[0][0]->ExportCheckpoint();
  ASSERT_TRUE(exported.ok()) << exported.message();
  const ckpt::Checkpoint checkpoint = exported.value();
  ASSERT_TRUE(store.value().Write(checkpoint).ok());  // the clean seal
  const Hash256 measurement = core::ExpectedEnclaveMeasurement();

  const std::vector<std::string> crash_sites = {
      "chaoslog.append.before", "chaoslog.append.torn",
      "chaoslog.append.after"};

  auto& io = common::IoFaultInjector::Global();
  auto& crash = common::CrashPoints::Global();
  std::vector<Bytes> confirmed;  // appends that reported success
  std::uint64_t answered = 0, crashes = 0, io_errors = 0;

  const auto want =
      truth.Historical(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(want.ok()) << want.message();
  const auto want_agg =
      truth.Aggregate(chain.hot_account, 1, chain.tip_height);
  ASSERT_TRUE(want_agg.ok()) << want_agg.message();

  // One arming for the whole soak: the injector's seeded stream advances
  // across cycles (re-arming each cycle would reset it to the same first
  // draw and the schedule would degenerate).
  io.Arm(plan.DiskFaults());

  for (std::uint64_t cycle = 0; cycle < cycles; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));

    // --- network + Byzantine plane: the verified query. Denial is allowed
    // under chaos; a wrong accepted answer never is.
    if (cycle % 2 == 0) {
      auto got = client.Historical(chain.hot_account, 1, chain.tip_height);
      if (got.ok()) {
        ++answered;
        ASSERT_EQ(got.value(), want.value());
      }
    } else {
      auto got = client.Aggregate(chain.hot_account, 1, chain.tip_height);
      if (got.ok()) {
        ++answered;
        ASSERT_EQ(got.value().count, want_agg.value().count);
        ASSERT_EQ(got.value().sum, want_agg.value().sum);
      }
    }

    // --- disk plane: append under injected I/O faults. A failed append
    // must leave the log consistent (nothing indexed, next append fine).
    Bytes payload(32, static_cast<std::uint8_t>(cycle & 0xFF));
    payload[0] = static_cast<std::uint8_t>(cycle >> 8);
    const auto crash_choice = plan.NextCrash(crash_sites);
    if (crash_choice.arm) {
      crash.Arm(crash_choice.site, crash_choice.countdown);
    }
    bool crashed = false;
    Status append_st = Status::Ok();
    try {
      append_st = log->Append(payload);
    } catch (const common::CrashInjected&) {
      crashed = true;
      ++crashes;
    }
    crash.Disarm();
    if (crashed) {
      // The "process" died mid-append: recover from disk like a restart.
      log.reset();
      auto reopened = common::RecordLog::Open(log_path, log_opts);
      ASSERT_TRUE(reopened.ok()) << reopened.message();
      log = std::make_unique<common::RecordLog>(std::move(reopened.value()));
      // No confirmed record may be lost, none may read back corrupt.
      ASSERT_GE(log->Count(), confirmed.size());
      for (std::size_t i = log->BaseIndex(); i < confirmed.size(); ++i) {
        auto rec = log->Get(i);
        ASSERT_TRUE(rec.ok()) << "record " << i << ": " << rec.message();
        ASSERT_EQ(rec.value(), confirmed[i]);
      }
      // A crash after the write but before the ack can leave a durable
      // unconfirmed record; adopt it so positions stay aligned.
      while (confirmed.size() < log->Count()) {
        auto rec = log->Get(confirmed.size());
        ASSERT_TRUE(rec.ok()) << rec.message();
        confirmed.push_back(rec.value());
      }
    } else if (append_st.ok()) {
      confirmed.push_back(payload);
    } else {
      ++io_errors;
    }

    // --- checkpoint plane: every few cycles rewrite the checkpoint with
    // faults armed. The pre-sealed valid file must survive any outcome.
    if (cycle % 8 == 3) {
      (void)store.value().Write(checkpoint);
      auto best = store.value().LoadLatestValid(~std::uint64_t{0}, measurement);
      ASSERT_TRUE(best.ok()) << best.message();
      ASSERT_TRUE(best.value().has_value());
      ASSERT_EQ(best.value()->height, checkpoint.height);
    }
  }

  const std::uint64_t injected = io.TotalInjected();
  io.Disarm();

  // The soak actually exercised every plane.
  EXPECT_GT(answered, 0u);
  EXPECT_GT(net_counters->Total(), 0u);
  EXPECT_GT(tampered->load(), 0u);
  if (cycles >= 100) {
    EXPECT_GT(crashes, 0u);
    EXPECT_GT(injected, 0u);
    EXPECT_GT(io_errors, 0u);
  }

  // Byzantine outcome: the lying replica is quarantined with serialized
  // evidence, and the evidence file round-trips. Replica 0 may ALSO be
  // quarantined — a bit-flipped reply that still decodes fails verification
  // exactly like a lie, and the client cannot (and must not) tell wire
  // corruption from a Byzantine replica; the clean replica 1 must never be.
  const auto stats = client.Stats();
  EXPECT_GT(stats.verify_failures, 0u);
  EXPECT_TRUE(client.Health()->Quarantined(2));
  EXPECT_FALSE(client.Health()->Quarantined(1));
  const auto evidence = client.Health()->Evidence();
  ASSERT_FALSE(evidence.empty());
  bool liar_in_evidence = false;
  for (const auto& ev : evidence) {
    EXPECT_NE(ev.replica, 1u);
    liar_in_evidence |= ev.replica == 2;
    auto back = MisbehaviorEvidence::Deserialize(ev.Serialize());
    ASSERT_TRUE(back.ok()) << back.message();
    EXPECT_EQ(back.value().verdict, ev.verdict);
  }
  EXPECT_TRUE(liar_in_evidence);
  auto on_disk = LoadEvidenceFile(evidence_path);
  ASSERT_TRUE(on_disk.ok()) << on_disk.message();
  EXPECT_EQ(on_disk.value().size(), evidence.size());

  // Benign convergence: with the weather cleared (replica 0's faults keep
  // their low rates; replica 2 is quarantined away), successes close every
  // breaker within a bounded number of clean-ish rounds.
  bool converged = false;
  for (int round = 0; round < 200 && !converged; ++round) {
    (void)client.Historical(chain.hot_account, 1, chain.tip_height);
    converged = client.Health()->AllClosed();
  }
  EXPECT_TRUE(converged) << "breakers failed to re-close after the soak";

  // Final durable-state audit: everything confirmed reads back intact.
  auto final_log = common::RecordLog::Open(log_path, log_opts);
  ASSERT_TRUE(final_log.ok()) << final_log.message();
  EXPECT_EQ(final_log.value().Count(), confirmed.size());
  for (std::size_t i = final_log.value().BaseIndex(); i < confirmed.size();
       ++i) {
    auto rec = final_log.value().Get(i);
    ASSERT_TRUE(rec.ok()) << rec.message();
    EXPECT_EQ(rec.value(), confirmed[i]);
  }
  std::remove(evidence_path.c_str());
}

}  // namespace
}  // namespace dcert::fleet
