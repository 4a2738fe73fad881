// Shared plumbing for the figure-reproduction benchmarks: a mining+CI rig,
// table formatting, and the Table-1 parameter banner. Each bench binary
// regenerates one figure of the paper (see EXPERIMENTS.md for the mapping
// and the scale-down factors relative to the paper's testbed).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chain/node.h"
#include "common/timing.h"
#include "dcert/issuer.h"
#include "dcert/superlight.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "workloads/workloads.h"

namespace dcert::bench {

inline void PrintHeader(const std::string& figure, const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), title.c_str());
  std::printf("================================================================\n");
}

inline void PrintParams(const std::string& params) {
  std::printf("parameters: %s\n\n", params.c_str());
}

/// A self-contained chain + CI + workload-generator rig.
struct Rig {
  chain::ChainConfig config;
  std::shared_ptr<const chain::ContractRegistry> registry;
  std::unique_ptr<core::CertificateIssuer> ci;
  std::unique_ptr<chain::FullNode> miner_node;
  std::unique_ptr<chain::Miner> miner;
  std::unique_ptr<workloads::AccountPool> pool;
  std::unique_ptr<workloads::WorkloadGenerator> gen;

  Rig(workloads::Workload kind, std::size_t accounts, std::uint64_t instances,
      sgxsim::CostModelParams cost_model = {}, std::uint32_t difficulty = 4,
      std::uint64_t kv_keys = 500, std::uint64_t cpu_iterations = 256,
      std::uint64_t io_keys_per_tx = 32) {
    config.difficulty_bits = difficulty;
    registry = workloads::MakeBlockbenchRegistry(instances);
    ci = std::make_unique<core::CertificateIssuer>(config, registry, cost_model);
    miner_node = std::make_unique<chain::FullNode>(config, registry);
    miner = std::make_unique<chain::Miner>(*miner_node);
    pool = std::make_unique<workloads::AccountPool>(accounts, 42);
    workloads::WorkloadGenerator::Params params;
    params.kind = kind;
    params.instances_per_workload = instances;
    params.kv_keys = kv_keys;
    params.cpu_iterations = cpu_iterations;
    params.io_keys_per_tx = io_keys_per_tx;
    gen = std::make_unique<workloads::WorkloadGenerator>(params, *pool);
  }

  /// Mines a block of `txs` transactions and appends it to the miner's node
  /// (NOT to the CI — the caller decides how the CI processes it).
  chain::Block MineNext(std::size_t txs) {
    auto block = miner->MineBlock(gen->NextBlockTxs(txs),
                                  1700000000 + miner_node->Height() * 15);
    if (!block.ok()) throw std::runtime_error("mining: " + block.message());
    if (Status st = miner_node->SubmitBlock(block.value()); !st) {
      throw std::runtime_error("submit: " + st.message());
    }
    return std::move(block.value());
  }

  /// Mines a block from explicitly provided transactions.
  chain::Block MineTxs(std::vector<chain::Transaction> txs) {
    auto block = miner->MineBlock(std::move(txs),
                                  1700000000 + miner_node->Height() * 15);
    if (!block.ok()) throw std::runtime_error("mining: " + block.message());
    if (Status st = miner_node->SubmitBlock(block.value()); !st) {
      throw std::runtime_error("submit: " + st.message());
    }
    return std::move(block.value());
  }
};

/// Mean over a vector of doubles.
inline double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

/// p-th percentile (p in [0,1], nearest-rank with linear interpolation).
inline double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

inline double Median(const std::vector<double>& xs) { return Percentile(xs, 0.5); }
inline double P95(const std::vector<double>& xs) { return Percentile(xs, 0.95); }

// ---------------------------------------------------------------------------
// Machine-readable output: each bench can emit a BENCH_<name>.json next to
// its table when invoked with `--json <path>` (EXPERIMENTS.md documents the
// trajectory convention). The writer is a minimal escape-correct builder —
// enough for flat objects, arrays, and one level of nesting via Raw().
// ---------------------------------------------------------------------------

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

/// `s` escaped and in double quotes. Built by appending: GCC 12 warns
/// (-Wrestrict, a false positive) on `"\"" + std::string&&`.
inline std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  out += JsonEscape(s);
  out += '"';
  return out;
}

class JsonObject {
 public:
  JsonObject& Put(const std::string& key, const std::string& value) {
    return PutRaw(key, JsonQuote(value));
  }
  JsonObject& Put(const std::string& key, const char* value) {
    return Put(key, std::string(value));
  }
  JsonObject& Put(const std::string& key, double value) {
    if (!std::isfinite(value)) return PutRaw(key, "null");
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return PutRaw(key, buf);
  }
  JsonObject& Put(const std::string& key, std::uint64_t value) {
    return PutRaw(key, std::to_string(value));
  }
  JsonObject& Put(const std::string& key, int value) {
    return PutRaw(key, std::to_string(value));
  }
  /// Inserts `json` (an already-encoded value: object, array, literal).
  JsonObject& PutRaw(const std::string& key, const std::string& json) {
    if (!fields_.empty()) fields_ += ",";
    fields_ += JsonQuote(key);
    fields_ += ':';
    fields_ += json;
    return *this;
  }
  std::string Str() const { return "{" + fields_ + "}"; }

 private:
  std::string fields_;
};

inline std::string JsonArray(const std::vector<std::string>& elems) {
  std::string out = "[";
  for (std::size_t i = 0; i < elems.size(); ++i) {
    if (i != 0) out += ",";
    out += elems[i];
  }
  return out + "]";
}

/// Encodes {mean, median, p95} of a sample vector as a JSON object.
inline std::string JsonStats(const std::vector<double>& xs) {
  JsonObject o;
  o.Put("mean", Mean(xs)).Put("median", Median(xs)).Put("p95", P95(xs));
  return o.Str();
}

/// Run metadata attached to every BENCH_*.json document (as a "meta" object)
/// so entries in the perf trajectory are attributable to a machine/config:
/// core count, build type, sanitizer, and the git SHA the binary was built
/// from (configure-time; "unknown" outside a git checkout).
inline std::string JsonRunMeta() {
  JsonObject o;
  o.Put("host_cores",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
#ifdef DCERT_BUILD_TYPE
  o.Put("build_type", DCERT_BUILD_TYPE);
#else
  o.Put("build_type", "unknown");
#endif
#ifdef DCERT_GIT_SHA
  o.Put("git_sha", DCERT_GIT_SHA);
#else
  o.Put("git_sha", "unknown");
#endif
  // Sanitizer state is always recorded (not just when one is on): perf
  // numbers from a TSan/ASan build are not comparable to plain builds, and
  // an explicit `"sanitized": false` distinguishes "clean build" from "old
  // binary that predates the field".
#ifdef DCERT_SANITIZE_NAME
  o.PutRaw("sanitized", DCERT_SANITIZE_NAME[0] != '\0' ? "true" : "false");
  if (DCERT_SANITIZE_NAME[0] != '\0') o.Put("sanitizer", DCERT_SANITIZE_NAME);
#else
  o.PutRaw("sanitized", "false");
#endif
  return o.Str();
}

/// Captures a registry snapshot at construction; Json() renders everything
/// recorded since then (counter deltas, histogram summary deltas) so each
/// BENCH_*.json carries the observability view of its own run — embed with
/// `doc.PutRaw("metrics", delta.Json())`.
class MetricsDelta {
 public:
  MetricsDelta() : base_(obs::MetricsRegistry::Global().Snapshot()) {}
  std::string Json() const {
    obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().DeltaFrom(base_);
    // A histogram no code path fed during this run is noise in a committed
    // artifact (and reads as dead instrumentation) — drop it. Stages the
    // bench *does* exercise must show up with real counts.
    std::erase_if(delta.histograms,
                  [](const auto& kv) { return kv.second.count == 0; });
    return obs::ToJson(delta);
  }

 private:
  obs::MetricsSnapshot base_;
};

/// Returns the path following a `--json` flag, or empty when absent.
inline std::string ParseJsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return {};
}

/// Writes `json` to `path`; prints a confirmation line. Returns false (with
/// a stderr message) when the file cannot be written.
inline bool WriteJsonFile(const std::string& path, const std::string& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("json written to %s\n", path.c_str());
  return true;
}

}  // namespace dcert::bench
