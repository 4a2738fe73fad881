// Shared types of the repository benchmark: options, the result report, and
// the interface each workload implements.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options. Each workload's sizes and rates are constants in
/// its own file (see README.md); `blocks` and `announce_ms` exist only so
/// that the smoke test can shrink a run, and 0 keeps the workload's value.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  int setup_reps = 3;
  std::size_t blocks = 0;    // fixture blocks
  double announce_ms = 0.0;  // query_churn: announcement interval
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

/// What a run reports. `correct` turns false on any correctness failure;
/// `problems` says which.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricMap e2e;
  MetricMap layers;
  std::map<std::string, std::string> info;  // provenance and digests
  std::vector<std::string> problems;

  void Fail(const std::string& what) {
    correct = false;
    if (problems.size() < 20) problems.push_back(what);
  }
  void E2e(const std::string& name, double v, const std::string& unit) {
    e2e[name] = {v, unit};
  }
  void Layer(const std::string& name, double v, const std::string& unit) {
    layers[name] = {v, unit};
  }
};

/// One workload: Setup builds every input and server (timed as setup_s and
/// repeated by main); Run measures for opt.seconds and fills the report.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Setup(Report& report) = 0;
  virtual void Run(Report& report) = 0;
};

std::unique_ptr<Workload> MakeCertify(const Options& opt);
std::unique_ptr<Workload> MakeQueryHot(const Options& opt);
std::unique_ptr<Workload> MakeQueryChurn(const Options& opt);

}  // namespace perfbench
