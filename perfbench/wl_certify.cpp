// Workload `certify`: closed loop over the certification path. One CI
// catches up over a pre-mined KVStore chain (historical index attached,
// hierarchical certificates); each certificate is announced into one
// in-process SpServer and validated by a SuperlightClient. Once the CI has
// caught up, the chain grows: each further block is mined, untimed, just
// before it is certified, so a run reaches heights past 100.
#include <algorithm>
#include <memory>
#include <stdexcept>

#include "bench.h"
#include "dcert/enclave_program.h"
#include "fixture.h"
#include "svc/sp_server.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace dcert;

// The pre-mined chain: 20 blocks of 100 transactions (the paper's Table 1
// block size) over 500 KVStore keys.
constexpr std::size_t kBlocks = 20;
constexpr std::size_t kTxs = 100;
constexpr std::uint64_t kKvKeys = 500;
// Blocks per latency window (about 2 s of a run, mining included).
constexpr std::size_t kWindowBlocks = 8;
// Blocks a fresh CI certifies again after the run; their certificates must
// match byte for byte.
constexpr std::size_t kReplayBlocks = 3;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// The block and index certificates of an announcement, serialized.
Bytes Certs(const svc::AnnounceRequest& a) {
  Bytes out = a.block_cert.Serialize();
  const Bytes icert = a.index_cert.Serialize();
  out.insert(out.end(), icert.begin(), icert.end());
  return out;
}

class CertifyWorkload final : public Workload {
 public:
  explicit CertifyWorkload(const Options& opt) : opt_(opt) {}

  ~CertifyWorkload() override {
    if (server_) server_->Shutdown();
  }

  void Setup(Report& report) override {
    miner_ = std::make_unique<ChainMiner>(opt_.seed, kTxs, kKvKeys);
    fixture_ = opt_.blocks > 0 ? opt_.blocks : kBlocks;
    for (std::size_t i = 0; i < fixture_; ++i) miner_->MineNext();
    transport_ = std::make_unique<svc::LoopbackTransport>();
    svc::SpServerConfig config;
    config.workers = kSpWorkers;
    server_ = std::make_unique<svc::SpServer>(config);
    if (Status st = server_->Serve(*transport_); !st) {
      throw std::runtime_error("serve: " + st.message());
    }
    certifier_ = std::make_unique<Certifier>(miner_->chain());
    light_ = std::make_unique<core::SuperlightClient>(
        core::ExpectedEnclaveMeasurement());
    report.info["fixture_blocks"] = std::to_string(fixture_);
  }

  void Run(Report& r) override;

 private:
  Options opt_;
  std::unique_ptr<ChainMiner> miner_;
  std::size_t fixture_ = 0;  // pre-mined blocks
  std::unique_ptr<svc::LoopbackTransport> transport_;
  std::unique_ptr<svc::SpServer> server_;
  std::unique_ptr<Certifier> certifier_;
  std::unique_ptr<core::SuperlightClient> light_;
};

void CertifyWorkload::Run(Report& r) {
  auto pool_tasks =
      obs::MetricsRegistry::Global().GetCounter("common.pool.tasks_executed");
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(opt_.seconds));
  // A traced run measures its first half untraced, for the overhead.
  const auto traced_from =
      opt_.trace ? start + (deadline - start) / 2 : deadline;

  std::vector<double> lat_ms, traced_lat_ms;
  double busy_s = 0.0, cpu_s = 0.0;
  std::uint64_t traced_blocks = 0, pool_tasks0 = 0, pool_delta = 0;
  // Pool tasks run while tracing is on.
  const auto set_tracing = [&](bool on) {
    if (on == Tracer::Enabled()) return;
    if (on) {
      pool_tasks0 = pool_tasks->Value();
    } else {
      pool_delta += pool_tasks->Value() - pool_tasks0;
    }
    Tracer::SetEnabled(on);
  };
  std::vector<Bytes> replay;  // certificates of the first kReplayBlocks
  CertChainDigest digest;     // over the pre-mined blocks
  std::size_t next = 0;

  while (true) {
    const auto now = Clock::now();
    const bool timed = now < deadline;
    // The pre-mined blocks are certified even past the deadline, for the
    // digest.
    if (!timed && next >= fixture_) break;
    if (next == miner_->chain().blocks.size()) miner_->MineNext();
    const bool traced = opt_.trace && timed && now >= traced_from;
    set_tracing(traced);

    const chain::Block& blk = miner_->chain().blocks[next];
    const std::uint64_t id = blk.header.height;
    const double cpu0 = WorkCpuSeconds();
    const auto t0 = Clock::now();
    const std::int32_t root = Tracer::Open("bench.block", id, ToNs(t0));
    auto ann = certifier_->Certify(blk, id);
    Status announced = Status::Error("not certified");
    auto ta = t0;
    if (ann.ok()) {
      ScopedSpan span("svc.announce", id);
      ta = Clock::now();
      announced = server_->Announce(ann.value());
    }
    const auto t1 = Clock::now();
    Tracer::Close(root, ToNs(t1));
    if (timed) {
      ++r.attempted;
      cpu_s += WorkCpuSeconds() - cpu0;
      busy_s += std::chrono::duration<double>(t1 - t0).count();
      (traced ? traced_lat_ms : lat_ms).push_back(Ms(t1 - t0));
    }
    if (!ann.ok() || !announced) {
      ++r.failed;
      r.Fail("block " + std::to_string(blk.header.height) + ": " +
             (ann.ok() ? "announce: " + announced.message() : ann.message()));
      break;  // the chain cannot continue past a failed block
    }
    if (traced) {
      ++traced_blocks;
      const core::CertTiming& t = certifier_->LastTiming();
      const double stages_ms =
          static_cast<double>(t.rwset_ns + t.proof_ns + t.index_aux_ns +
                              t.enclave_wall_ns + t.commit_ns) /
          1e6;
      // Share of the block's wall time the issuer's stages and the
      // announcement account for.
      Tracer::Sample("dcert.stage_coverage",
                     (stages_ms + Ms(t1 - ta)) / Ms(t1 - t0));
    }

    // Correctness gate, outside the timed path: every certificate validates
    // in a superlight client.
    const svc::AnnounceRequest& a = ann.value();
    if (std::string err =
            ValidateCertified(*light_, a.block.header, a.block_cert,
                              a.index_digest, a.index_cert, id);
        !err.empty()) {
      r.Fail("block " + std::to_string(blk.header.height) + ": " + err);
    }
    if (next < fixture_) digest.Add(a);
    if (next < kReplayBlocks) replay.push_back(Certs(a));
    ++next;
  }
  set_tracing(false);

  if (next >= fixture_) {
    r.info["cert_chain_digest"] = digest.Hex();
  } else {
    r.Fail("the pre-mined chain was not certified; no certificate digest");
  }
  r.info["max_height"] = std::to_string(next);

  // Certification is deterministic: a fresh CI reproduces the certificates.
  Certifier fresh(miner_->chain());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    const chain::Block& blk = miner_->chain().blocks[i];
    auto ann = fresh.Certify(blk, blk.header.height);
    if (!ann.ok() || Certs(ann.value()) != replay[i]) {
      r.Fail("a fresh CI certified block " +
             std::to_string(blk.header.height) + " differently");
    }
  }

  // End-of-run check against what the SP now serves.
  if (next > 0) {
    Truth served;
    for (std::size_t i = 0; i < next; ++i) {
      served.Add(miner_->chain().blocks[i]);
    }
    svc::SpClient client(transport_->Connect());
    SpotCheck(r, client, served, opt_.seed, 12);
  }

  std::vector<double> all = lat_ms;
  all.insert(all.end(), traced_lat_ms.begin(), traced_lat_ms.end());
  const double blocks = static_cast<double>(all.size());
  r.E2e("capacity_per_s", busy_s > 0 ? blocks / busy_s : 0.0, "1/s");
  // The p50 is the mean of the medians of consecutive full kWindowBlocks-
  // block windows: the host alternates between a fast and a slow regime for
  // seconds at a time, and a mean moves with their share where a median of
  // the whole run jumps between them. The plain median is in the report.
  const std::size_t windows = all.size() / kWindowBlocks;
  double p50 = Percentile(all, 0.50);
  if (windows > 0) {
    double sum = 0.0;
    for (std::size_t w = 0; w < windows; ++w) {
      const auto first = all.begin() + w * kWindowBlocks;
      sum += Percentile({first, first + kWindowBlocks}, 0.50);
    }
    p50 = sum / windows;
  }
  r.E2e("latency_p50_ms", p50, "ms");
  r.info["latency_p50_all_ms"] = std::to_string(Percentile(all, 0.50));
  r.E2e("latency_p90_ms", Percentile(all, 0.90), "ms");
  r.info["samples"] = std::to_string(all.size());
  r.info["cpu_ms_per_op"] = std::to_string(1e3 * cpu_s / std::max(1.0, blocks));
  if (opt_.trace) {
    const double untraced = Percentile(lat_ms, 0.5);
    r.Layer("bench.trace_overhead_pct",
            untraced > 0
                ? 100.0 * (Percentile(traced_lat_ms, 0.5) - untraced) / untraced
                : 0.0,
            "%");
    r.Layer("common.pool.tasks_executed",
            traced_blocks > 0 ? static_cast<double>(pool_delta) /
                                    static_cast<double>(traced_blocks)
                              : 0.0,
            "count/op");
  }
}

}  // namespace

std::unique_ptr<Workload> MakeCertify(const Options& opt) {
  return std::make_unique<CertifyWorkload>(opt);
}

}  // namespace perfbench
