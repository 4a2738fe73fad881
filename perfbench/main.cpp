// dcert_perfbench: runs one benchmark workload and prints one JSON result
// line. See README.md for the workloads and metrics; run.py builds this
// binary and runs it.
//
//   dcert_perfbench --workload certify|query_hot|query_churn --seed N
//                   --seconds S --trace 0|1 [--out DIR] [--setup_reps N]
//                   [--blocks N] [--announce_ms MS]
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the result line still prints, with "correct": false), 2 on bad usage or
// a setup error, 3 when the result files cannot be written.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/build_info.h"
#include "trace.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

struct LayerDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in BENCHMARK.json order. A layer a workload does
// not exercise reports 0.
constexpr LayerDef kLayers[] = {
    {"dcert.certify_ms", "ms"},
    {"chain.rwset_ms", "ms"},
    {"chain.commit_ms", "ms"},
    {"sgxsim.enclave_wall_ms", "ms"},
    {"sgxsim.enclave_modeled_ms", "ms"},
    {"sgxsim.ecalls_per_block", "count"},
    {"sgxsim.ecall_input_bytes_per_block", "bytes"},
    {"mht.update_proof_ms", "ms"},
    {"query.index_aux_ms", "ms"},
    {"dcert.stage_coverage", "ratio"},
    {"svc.announce_ms", "ms"},
    {"svc.client.call_p50_ms", "ms"},
    {"svc.client.call_p99_ms", "ms"},
    {"svc.server.service_p50_ms", "ms"},
    {"svc.server.service_p99_ms", "ms"},
    {"svc.net_queue_ms", "ms"},
    {"svc.cache.hit_rate", "ratio"},
    {"svc.cache.invalidations", "count"},
    {"svc.server.shed_frac", "ratio"},
    {"svc.tcp.bytes_per_reply", "bytes"},
    {"query.verify_ms", "ms"},
    {"dcert.superlight.validate_ms", "ms"},
    {"dcert.superlight.validations", "count"},
    {"fleet.client.query_p50_ms", "ms"},
    {"fleet.client.query_p99_ms", "ms"},
    {"fleet.client.overhead_ms", "ms"},
    {"fleet.client.subqueries_per_query", "count/op"},
    {"fleet.client.failovers", "count"},
    {"fleet.client.verify_failures", "count"},
    {"fleet.client.giveups", "count"},
    {"fleet.router.forwarded", "count/op"},
    {"fleet.router.failovers", "count"},
    {"fleet.router.errors", "count"},
    {"fleet.router.announce_ms", "ms"},
    {"common.pool.tasks_executed", "count/op"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.op_self_ms", "ms"},
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "dcert_perfbench: %s\n"
               "usage: dcert_perfbench --workload certify|query_hot|query_churn"
               " --seed N --seconds S --trace 0|1 [--out DIR] [--setup_reps N]"
               " [--blocks N] [--announce_ms MS]\n",
               why.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  std::map<std::string, std::function<void(const std::string&)>> flags = {
      {"workload", [&](const std::string& v) { o.workload = v; }},
      {"seed", [&](const std::string& v) { o.seed = std::stoull(v); }},
      {"seconds", [&](const std::string& v) { o.seconds = std::stod(v); }},
      {"trace", [&](const std::string& v) { o.trace = v == "1"; }},
      {"out", [&](const std::string& v) { o.out_dir = v; }},
      {"setup_reps",
       [&](const std::string& v) { o.setup_reps = std::stoi(v); }},
      {"blocks", [&](const std::string& v) { o.blocks = std::stoul(v); }},
      {"announce_ms",
       [&](const std::string& v) { o.announce_ms = std::stod(v); }},
  };
  for (int i = 1; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad argument " + key);
    key = key.substr(2);
    std::replace(key.begin(), key.end(), '-', '_');
    auto it = flags.find(key);
    if (it == flags.end()) Usage("unknown option --" + key);
    try {
      it->second(argv[i + 1]);
    } catch (const std::exception&) {
      Usage("bad value for --" + key);
    }
  }
  if (o.workload != "certify" && o.workload != "query_hot" &&
      o.workload != "query_churn") {
    Usage("unknown workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0) || o.setup_reps < 1 || o.announce_ms < 0) {
    Usage("option out of range");
  }
  return o;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Per-layer metrics taken from the recorded spans and samples.
void SpanLayers(Report& r) {
  const auto threads = Tracer::Collect();
  const auto spans = AnalyzeSpans(threads);
  const auto samples = MergeSamples(threads);
  auto p = [&](const char* span, double q) {
    auto it = spans.find(span);
    return it == spans.end() ? 0.0 : Percentile(it->second.dur_ms, q);
  };
  auto sample = [&](const char* name) {
    auto it = samples.find(name);
    return it == samples.end() ? 0.0 : Percentile(it->second, 0.5);
  };
  r.Layer("dcert.certify_ms", p("dcert.certify", 0.5), "ms");
  for (const char* s :
       {"chain.rwset_ms", "chain.commit_ms", "sgxsim.enclave_wall_ms",
        "sgxsim.enclave_modeled_ms", "mht.update_proof_ms",
        "query.index_aux_ms",
        "dcert.stage_coverage", "fleet.router.announce_ms"}) {
    r.Layer(s, sample(s), "ms");
  }
  r.Layer("sgxsim.ecalls_per_block", sample("sgxsim.ecalls_per_block"),
          "count");
  r.Layer("sgxsim.ecall_input_bytes_per_block",
          sample("sgxsim.ecall_input_bytes_per_block"), "bytes");
  r.Layer("svc.announce_ms", p("svc.announce", 0.5), "ms");
  r.Layer("svc.client.call_p50_ms", p("svc.client.call", 0.5), "ms");
  r.Layer("svc.client.call_p99_ms", p("svc.client.call", 0.99), "ms");
  r.Layer("query.verify_ms", p("query.verify", 0.5), "ms");
  r.Layer("dcert.superlight.validate_ms", p("dcert.superlight.validate", 0.5),
          "ms");
  auto v = spans.find("dcert.superlight.validate");
  r.Layer("dcert.superlight.validations",
          v == spans.end() ? 0.0 : static_cast<double>(v->second.dur_ms.size()),
          "count");
  r.Layer("fleet.client.query_p50_ms", p("fleet.client.query", 0.5), "ms");
  r.Layer("fleet.client.query_p99_ms", p("fleet.client.query", 0.99), "ms");
  for (const char* root : {"bench.block", "bench.query"}) {
    auto it = spans.find(root);
    if (it != spans.end()) {
      r.Layer("bench.op_self_ms", Percentile(it->second.self_ms, 0.5), "ms");
    }
  }
  auto call = r.layers.find("svc.client.call_p50_ms");
  auto service = r.layers.find("svc.server.service_p50_ms");
  if (call != r.layers.end() && service != r.layers.end() &&
      call->second.value > 0 && service->second.value > 0) {
    r.Layer("svc.net_queue_ms", call->second.value - service->second.value,
            "ms");
  }
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const MetricMap& m) {
  std::string out = "{";
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    out += Str(name) + ": {\"value\": " + Num(metric.value) +
           ", \"unit\": " + Str(metric.unit) + "}";
  }
  return out + "}";
}

std::string ResultLine(const Report& r, const MetricMap& metrics) {
  return "{\"correct\": " + std::string(r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + MetricsJson(metrics) + "}";
}

std::string FullJson(const Report& r, const MetricMap& metrics) {
  std::ostringstream o;
  o << "{\"result\": " << ResultLine(r, metrics)
    << ",\n \"end_to_end\": " << MetricsJson(r.e2e)
    << ",\n \"per_layer\": " << MetricsJson(r.layers) << ",\n \"info\": {";
  bool first = true;
  for (const auto& [k, v] : r.info) {
    o << (first ? "" : ", ") << Str(k) << ": " << Str(v);
    first = false;
  }
  o << "},\n \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    o << (i ? ", " : "") << Str(r.problems[i]);
  }
  o << "]}\n";
  return o.str();
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  Report r;
  r.info["workload"] = opt.workload;
  r.info["seed"] = std::to_string(opt.seed);
  r.info["seconds"] = Num(opt.seconds);
  r.info["trace"] = std::to_string(opt.trace ? 1 : 0);
  r.info["git_sha"] = dcert::common::GitSha();
  r.info["build_type"] = dcert::common::BuildType();
  r.info["sanitizer"] = dcert::common::SanitizerName();
  r.info["host_cores"] = std::to_string(std::thread::hardware_concurrency());

  // The query workloads' latencies are measured with vCPUs that never halt
  // (see IdleSpinners); certify, CPU-bound, runs without.
  std::unique_ptr<IdleSpinners> spinners;
  if (opt.workload != "certify") {
    spinners = std::make_unique<IdleSpinners>(
        std::thread::hardware_concurrency());
  }
  r.info["idle_spinners"] = spinners ? "1" : "0";
  // Setup runs untraced; the query workloads trace only the certification
  // of their fixture chain (CertifyChain).
  std::unique_ptr<Workload> wl;
  std::vector<double> setup_s;
  try {
    for (int rep = 0; rep < opt.setup_reps; ++rep) {
      wl.reset();  // tear down the previous setup, untimed
      const auto t0 = rep == 0 ? kProcessStart : Clock::now();
      if (opt.workload == "certify") {
        wl = MakeCertify(opt);
      } else if (opt.workload == "query_hot") {
        wl = MakeQueryHot(opt);
      } else {
        wl = MakeQueryChurn(opt);
      }
      wl->Setup(r);
      setup_s.push_back(
          std::chrono::duration<double>(Clock::now() - t0).count());
    }
    wl->Run(r);
    wl.reset();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcert_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 2;
  }
  Tracer::SetEnabled(false);

  std::string setups;
  for (double s : setup_s) {
    if (!setups.empty()) setups += ' ';
    setups += Num(s);
  }
  r.info["setup_s_each"] = setups;
  r.E2e("setup_s", Percentile(setup_s, 0.5), "s");
  r.E2e("peak_rss_mb", PeakRssMb(), "MB");
  r.E2e("ok_frac",
        r.attempted > 0 ? 1.0 - static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                        : 0.0,
        "ratio");
  if (r.attempted == 0) r.Fail("no operation was attempted");

  if (opt.trace) {
    SpanLayers(r);
    for (const LayerDef& l : kLayers) {
      auto it = r.layers.find(l.name);
      if (it == r.layers.end()) {
        r.Layer(l.name, 0.0, l.unit);
      } else {
        it->second.unit = l.unit;
      }
    }
  }

  ::mkdir(opt.out_dir.c_str(), 0755);
  const std::string stem = opt.out_dir + "/" + opt.workload + "-seed" +
                           std::to_string(opt.seed) + "-trace" +
                           (opt.trace ? "1" : "0");
  const MetricMap& metrics = opt.trace ? r.layers : r.e2e;
  bool written = WriteFile(stem + ".json", FullJson(r, metrics));
  if (opt.trace) {
    written = written && WriteSpans(stem + ".spans.csv", Tracer::Collect());
  }
  if (!written) {
    std::fprintf(stderr, "dcert_perfbench: cannot write results under %s\n",
                 opt.out_dir.c_str());
    return 3;
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "dcert_perfbench: check failed: %s\n", p.c_str());
  }
  std::printf("%s\n", ResultLine(r, metrics).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
