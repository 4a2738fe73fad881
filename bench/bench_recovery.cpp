// Recovery latency — how fast a crashed Certificate Issuer is back in
// service, as a function of chain length. Phases timed separately:
//
//   replay     DurableCertificateIssuer::Open over intact logs: unseal the
//              signing key, re-validate every stored (block, cert) pair via
//              AcceptBlockWithCert, rebuild the in-memory chain.
//   gap        same, but the last certificate is missing (the crash hit
//              between the block and cert appends): replay N-1 plus one
//              enclave re-certification.
//   rehydrate  SpServer::Restore from the same stores: certificate
//              envelope checks + HistoricalIndex rebuild, i.e. the
//              service-side half of a restart.
//   ckpt       CheckpointedIssuer::Open through the newest certified
//              checkpoint: install the snapshot, replay only the tail above
//              it. Flat in chain length at fixed checkpoint delta.
//   bootstrap  superlight client bootstrap from (checkpoint, cert) — the
//              O(1) light-client restart, no replay at all.
//
// A second sweep varies the checkpoint interval at fixed chain length: the
// recovery tail (and therefore the time) tracks the interval, not the chain.
//
// Emits BENCH_recovery.json with median/p95 per phase when invoked with
// `--json <path>`.
//
// CI verify mode: `bench_recovery --verify [--blocks N]` builds an N-block
// chain (default 10000) under a checkpoint cadence, reopens it, and exits
// nonzero unless recovery provably went through a checkpoint (ci.ckpt.loaded
// advanced, bootstrap height > 0) and replayed at most one interval of tail.
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "ckpt/checkpointed_issuer.h"
#include "dcert/durable_issuer.h"
#include "dcert/enclave_program.h"
#include "svc/sp_server.h"

using namespace dcert;
using namespace dcert::bench;

namespace {

struct Paths {
  std::string dir;
  std::string blocks;
  std::string certs;
  std::string key;
  std::string ckpt;
};

/// Removes every regular file in `dir` (segments, sidecars, manifests,
/// checkpoints — the log families are flat) and the directory itself.
void RemoveTree(const std::string& dir) {
  DIR* d = opendir(dir.c_str());
  if (d != nullptr) {
    while (dirent* e = readdir(d)) {
      if (std::strcmp(e->d_name, ".") == 0 || std::strcmp(e->d_name, "..") == 0)
        continue;
      const std::string path = dir + "/" + e->d_name;
      struct stat st{};
      if (stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(path);
      } else {
        std::remove(path.c_str());
      }
    }
    closedir(d);
  }
  rmdir(dir.c_str());
}

Paths ScratchPaths() {
  Paths p;
  p.dir = "bench_recovery_scratch";
  RemoveTree(p.dir);
  mkdir(p.dir.c_str(), 0755);
  p.blocks = p.dir + "/blocks.log";
  p.certs = p.dir + "/certs.log";
  p.key = p.dir + "/key.sealed";
  p.ckpt = p.dir + "/ckpt";
  return p;
}

core::DurableIssuerOptions Options(const Paths& p,
                                   std::uint64_t segment_records = 0) {
  core::DurableIssuerOptions options;
  options.block_log_path = p.blocks;
  options.cert_log_path = p.certs;
  options.sealed_key_path = p.key;
  options.segment_records = segment_records;
  return options;
}

ckpt::CheckpointConfig CkptConfig(const Paths& p, std::uint64_t interval) {
  ckpt::CheckpointConfig cfg;
  cfg.dir = p.ckpt;
  cfg.interval = interval;
  cfg.keep = 2;
  return cfg;
}

/// Builds a `len`-block checkpointed chain in `paths`; returns false on error.
bool BuildCheckpointedChain(Rig& rig, const Paths& paths, std::uint64_t len,
                            std::uint64_t interval, std::uint64_t segments,
                            std::size_t txs_per_block) {
  auto ci = ckpt::CheckpointedIssuer::Open(rig.config, rig.registry,
                                           Options(paths, segments),
                                           CkptConfig(paths, interval));
  if (!ci.ok()) {
    std::fprintf(stderr, "ckpt open: %s\n", ci.message().c_str());
    return false;
  }
  for (std::uint64_t i = 0; i < len; ++i) {
    chain::Block blk = rig.MineNext(txs_per_block);
    if (Status st = ci.value().CertifyBlock(blk); !st) {
      std::fprintf(stderr, "ckpt certify: %s\n", st.message().c_str());
      return false;
    }
  }
  return true;
}

/// One timed checkpoint-recovery rep; fills tail_out with the replayed tail.
bool TimedCkptReopen(Rig& rig, const Paths& paths, std::uint64_t interval,
                     std::uint64_t segments, double* ms_out,
                     std::uint64_t* tail_out) {
  Stopwatch w;
  auto ci = ckpt::CheckpointedIssuer::Open(rig.config, rig.registry,
                                           Options(paths, segments),
                                           CkptConfig(paths, interval));
  const double ms = w.ElapsedMs();
  if (!ci.ok()) {
    std::fprintf(stderr, "ckpt reopen: %s\n", ci.message().c_str());
    return false;
  }
  if (ci.value().BootstrapHeight() == 0) {
    std::fprintf(stderr, "ckpt reopen did not bootstrap from a checkpoint\n");
    return false;
  }
  const core::RecoveryReport& rec = ci.value().Durable().Recovery();
  *ms_out = ms;
  *tail_out = rec.blocks_replayed + rec.blocks_recertified;
  return true;
}

/// One timed superlight bootstrap from the newest checkpoint on disk.
bool TimedSuperlightBootstrap(const Paths& paths, double* ms_out,
                              std::size_t* bytes_out) {
  auto store = ckpt::CheckpointStore::Open(paths.ckpt);
  if (!store.ok()) return false;
  auto latest = store.value().LoadLatestValid(~std::uint64_t{0},
                                              core::ExpectedEnclaveMeasurement());
  if (!latest.ok() || !latest.value().has_value()) {
    std::fprintf(stderr, "no valid checkpoint for superlight bootstrap\n");
    return false;
  }
  core::SuperlightClient client(core::ExpectedEnclaveMeasurement());
  Stopwatch w;
  if (Status st = ckpt::BootstrapSuperlight(client, *latest.value()); !st) {
    std::fprintf(stderr, "superlight bootstrap: %s\n", st.message().c_str());
    return false;
  }
  *ms_out = w.ElapsedMs();
  *bytes_out = client.StorageBytes();
  return true;
}

/// CI verify mode (see file comment). Returns the process exit code.
int VerifyMode(std::uint64_t blocks) {
  constexpr std::uint64_t kInterval = 64;
  constexpr std::uint64_t kSegments = 256;
  std::printf("verify: building %llu-block chain, checkpoint interval %llu\n",
              static_cast<unsigned long long>(blocks),
              static_cast<unsigned long long>(kInterval));
  Paths paths = ScratchPaths();
  Rig rig(workloads::Workload::kKvStore, /*accounts=*/8, /*instances=*/1,
          /*cost_model=*/{}, /*difficulty=*/2, /*kv_keys=*/64);
  if (!BuildCheckpointedChain(rig, paths, blocks, kInterval, kSegments,
                              /*txs_per_block=*/1)) {
    return 1;
  }

  auto& reg = obs::MetricsRegistry::Global();
  const std::uint64_t loaded_before = reg.GetCounter("ci.ckpt.loaded")->Value();

  double ms = 0.0;
  std::uint64_t tail = 0;
  if (!TimedCkptReopen(rig, paths, kInterval, kSegments, &ms, &tail)) return 1;
  const std::uint64_t loaded_after = reg.GetCounter("ci.ckpt.loaded")->Value();

  double boot_ms = 0.0;
  std::size_t boot_bytes = 0;
  if (!TimedSuperlightBootstrap(paths, &boot_ms, &boot_bytes)) return 1;

  std::printf("verify: recovered %llu-block chain in %.1f ms, tail %llu, "
              "checkpoints loaded %llu; superlight bootstrap %.2f ms "
              "(%zu bytes)\n",
              static_cast<unsigned long long>(blocks), ms,
              static_cast<unsigned long long>(tail),
              static_cast<unsigned long long>(loaded_after - loaded_before),
              boot_ms, boot_bytes);

  int rc = 0;
  if (loaded_after <= loaded_before) {
    std::fprintf(stderr, "FAIL: ci.ckpt.loaded did not advance — recovery "
                         "did not go through a checkpoint\n");
    rc = 1;
  }
  if (tail > kInterval) {
    std::fprintf(stderr, "FAIL: replayed tail %llu exceeds the checkpoint "
                         "interval %llu — recovery was not tail-only\n",
                 static_cast<unsigned long long>(tail),
                 static_cast<unsigned long long>(kInterval));
    rc = 1;
  }
  RemoveTree(paths.dir);
  if (rc == 0) std::printf("verify: OK (tail-only replay confirmed)\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t verify_blocks = 10000;
  bool verify = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--verify") verify = true;
    if (std::string(argv[i]) == "--blocks" && i + 1 < argc) {
      verify_blocks = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  if (verify) return VerifyMode(verify_blocks);

  const std::string json_path = ParseJsonPath(argc, argv);
  PrintHeader("Recovery", "crash-recovery latency vs chain length");
  PrintParams("kv-store blocks (4 txs, difficulty 3), 5 reps per point; "
              "replay = intact logs, gap = last cert missing (1 block "
              "re-certified), rehydrate = SP index rebuild from the stores; "
              "ckpt = recovery through a certified checkpoint (interval 30), "
              "bootstrap = superlight client restart from (checkpoint, cert)");

  MetricsDelta delta;
  const std::vector<std::uint64_t> lengths = {50, 100, 200, 400};
  constexpr int kReps = 5;
  constexpr std::uint64_t kInterval = 30;
  constexpr std::uint64_t kSegments = 32;

  std::printf("%8s | %21s | %21s | %21s\n", "blocks", "replay ms (med/p95)",
              "gap ms (med/p95)", "rehydrate ms (med/p95)");
  std::printf("---------+-----------------------+-----------------------+"
              "-----------------------\n");

  std::vector<std::string> rows;
  for (std::uint64_t len : lengths) {
    Paths paths = ScratchPaths();
    Rig rig(workloads::Workload::kKvStore, /*accounts=*/8, /*instances=*/1,
            /*cost_model=*/{}, /*difficulty=*/3, /*kv_keys=*/64);
    {
      auto ci = core::DurableCertificateIssuer::Open(rig.config, rig.registry,
                                                     Options(paths));
      if (!ci.ok()) {
        std::fprintf(stderr, "open: %s\n", ci.message().c_str());
        return 1;
      }
      for (std::uint64_t i = 0; i < len; ++i) {
        chain::Block blk = rig.MineNext(4);
        if (Status st = ci.value().CertifyBlock(blk); !st) {
          std::fprintf(stderr, "certify: %s\n", st.message().c_str());
          return 1;
        }
      }
    }

    std::vector<double> replay_ms;
    for (int r = 0; r < kReps; ++r) {
      Stopwatch w;
      auto ci = core::DurableCertificateIssuer::Open(rig.config, rig.registry,
                                                     Options(paths));
      const double ms = w.ElapsedMs();
      if (!ci.ok() || ci.value().Recovery().blocks_replayed != len) {
        std::fprintf(stderr, "replay rep failed\n");
        return 1;
      }
      replay_ms.push_back(ms);
    }

    std::vector<double> gap_ms;
    for (int r = 0; r < kReps; ++r) {
      {
        // Drop the tip certificate: the block-log-ahead crash shape. The
        // timed Open re-certifies it, so each rep re-truncates.
        auto certs = core::CertificateStore::Open(paths.certs);
        if (!certs.ok() || !certs.value().TruncateTo(len - 1).ok()) return 1;
      }
      Stopwatch w;
      auto ci = core::DurableCertificateIssuer::Open(rig.config, rig.registry,
                                                     Options(paths));
      const double ms = w.ElapsedMs();
      if (!ci.ok() || ci.value().Recovery().blocks_recertified != 1) {
        std::fprintf(stderr, "gap rep failed\n");
        return 1;
      }
      gap_ms.push_back(ms);
    }

    std::vector<double> rehydrate_ms;
    for (int r = 0; r < kReps; ++r) {
      auto blocks = chain::BlockStore::Open(paths.blocks);
      auto certs = core::CertificateStore::Open(paths.certs);
      if (!blocks.ok() || !certs.ok()) return 1;
      svc::SpServerConfig cfg;
      cfg.workers = 2;
      svc::SpServer server(cfg);
      Stopwatch w;
      const svc::StoredChain stores{blocks.value(), certs.value()};
      if (Status st = server.Restore(nullptr, &stores); !st) {
        std::fprintf(stderr, "rehydrate: %s\n", st.message().c_str());
        return 1;
      }
      rehydrate_ms.push_back(w.ElapsedMs());
      server.Shutdown();
    }

    std::printf("%8llu | %9.1f / %9.1f | %9.1f / %9.1f | %9.1f / %9.1f\n",
                static_cast<unsigned long long>(len), Median(replay_ms),
                P95(replay_ms), Median(gap_ms), P95(gap_ms),
                Median(rehydrate_ms), P95(rehydrate_ms));

    JsonObject row;
    row.Put("blocks", len)
        .PutRaw("replay_ms", JsonStats(replay_ms))
        .PutRaw("gap_ms", JsonStats(gap_ms))
        .PutRaw("rehydrate_ms", JsonStats(rehydrate_ms));
    rows.push_back(row.Str());

    RemoveTree(paths.dir);
  }

  std::printf("\nfull replay is linear in chain length (one certificate "
              "check per stored block);\nthe gap column adds one enclave "
              "re-certification on top of the replay.\n");

  // --- Checkpointed recovery: same lengths, fixed interval — flat. --------
  std::printf("\n%8s | %21s | %6s | %23s\n", "blocks", "ckpt ms (med/p95)",
              "tail", "bootstrap ms (med/p95)");
  std::printf("---------+-----------------------+--------+"
              "------------------------\n");

  std::vector<std::string> ckpt_rows;
  for (std::uint64_t len : lengths) {
    Paths paths = ScratchPaths();
    Rig rig(workloads::Workload::kKvStore, /*accounts=*/8, /*instances=*/1,
            /*cost_model=*/{}, /*difficulty=*/3, /*kv_keys=*/64);
    if (!BuildCheckpointedChain(rig, paths, len, kInterval, kSegments, 4)) {
      return 1;
    }

    std::vector<double> ckpt_ms, boot_ms;
    std::uint64_t tail = 0;
    std::size_t boot_bytes = 0;
    for (int r = 0; r < kReps; ++r) {
      double ms = 0.0;
      if (!TimedCkptReopen(rig, paths, kInterval, kSegments, &ms, &tail)) {
        return 1;
      }
      ckpt_ms.push_back(ms);
      double bms = 0.0;
      if (!TimedSuperlightBootstrap(paths, &bms, &boot_bytes)) return 1;
      boot_ms.push_back(bms);
    }

    std::printf("%8llu | %9.1f / %9.1f | %6llu | %10.2f / %10.2f\n",
                static_cast<unsigned long long>(len), Median(ckpt_ms),
                P95(ckpt_ms), static_cast<unsigned long long>(tail),
                Median(boot_ms), P95(boot_ms));

    JsonObject row;
    row.Put("blocks", len)
        .Put("interval", kInterval)
        .Put("tail", tail)
        .Put("client_bytes", static_cast<std::uint64_t>(boot_bytes))
        .PutRaw("ckpt_ms", JsonStats(ckpt_ms))
        .PutRaw("bootstrap_ms", JsonStats(boot_ms));
    ckpt_rows.push_back(row.Str());

    RemoveTree(paths.dir);
  }

  std::printf("\ncheckpointed recovery replays only the tail above the "
              "newest checkpoint, so the\ntime tracks the interval, not the "
              "chain; superlight bootstrap is O(1) — one\ncertificate "
              "envelope check, no replay.\n");

  // --- Interval sweep at fixed chain length: tail tracks the interval. ----
  // 397 is coprime to every interval below, so the tail above the last
  // checkpoint is len mod interval — nonzero and growing with the interval
  // (a multiple of the interval would land a checkpoint exactly at the tip
  // and time an empty tail at every point).
  constexpr std::uint64_t kSweepLen = 397;
  const std::vector<std::uint64_t> intervals = {10, 25, 50, 100};

  std::printf("\n%8s | %21s | %6s   (chain fixed at %llu blocks)\n",
              "interval", "ckpt ms (med/p95)", "tail",
              static_cast<unsigned long long>(kSweepLen));
  std::printf("---------+-----------------------+--------\n");

  std::vector<std::string> interval_rows;
  for (std::uint64_t interval : intervals) {
    Paths paths = ScratchPaths();
    Rig rig(workloads::Workload::kKvStore, /*accounts=*/8, /*instances=*/1,
            /*cost_model=*/{}, /*difficulty=*/3, /*kv_keys=*/64);
    if (!BuildCheckpointedChain(rig, paths, kSweepLen, interval, kSegments,
                                4)) {
      return 1;
    }

    std::vector<double> ckpt_ms;
    std::uint64_t tail = 0;
    for (int r = 0; r < kReps; ++r) {
      double ms = 0.0;
      if (!TimedCkptReopen(rig, paths, interval, kSegments, &ms, &tail)) {
        return 1;
      }
      ckpt_ms.push_back(ms);
    }

    std::printf("%8llu | %9.1f / %9.1f | %6llu\n",
                static_cast<unsigned long long>(interval), Median(ckpt_ms),
                P95(ckpt_ms), static_cast<unsigned long long>(tail));

    JsonObject row;
    row.Put("interval", interval)
        .Put("blocks", kSweepLen)
        .Put("tail", tail)
        .PutRaw("ckpt_ms", JsonStats(ckpt_ms));
    interval_rows.push_back(row.Str());

    RemoveTree(paths.dir);
  }

  if (!json_path.empty()) {
    JsonObject doc;
    doc.Put("bench", "recovery")
        .PutRaw("rows", JsonArray(rows))
        .PutRaw("ckpt_rows", JsonArray(ckpt_rows))
        .PutRaw("interval_rows", JsonArray(interval_rows))
        .PutRaw("meta", JsonRunMeta())
        .PutRaw("metrics", delta.Json());
    if (!WriteJsonFile(json_path, doc.Str())) return 1;
  }
  return 0;
}
