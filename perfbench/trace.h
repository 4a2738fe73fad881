// Span recorder for the benchmark's traced runs. Spans are recorded by the
// benchmark's own code around calls into the dcert layers (never inside the
// program): each has a name, a start, an end, the span that encloses it on
// the same thread, and an id shared by every span of one request or block.
// Spans and per-operation samples stay in per-thread memory and are written
// out when the run ends. With tracing off every call is a single relaxed
// atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline std::uint64_t ToNs(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

struct Span {
  const char* name = nullptr;  // string literal
  std::uint64_t id = 0;        // request / block id
  std::int32_t parent = -1;    // index in the same thread's span list
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Everything one thread recorded.
struct ThreadTrace {
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  // stack of open span indexes
  std::map<std::string, std::vector<double>> samples;
};

class Tracer {
 public:
  static void SetEnabled(bool on);
  static bool Enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread, nested in its innermost open span.
  /// Returns a handle for Close, or -1 when tracing is off.
  static std::int32_t Open(const char* name, std::uint64_t id,
                           std::uint64_t start_ns);
  static void Close(std::int32_t handle, std::uint64_t end_ns);

  /// Records one per-operation number (e.g. a stage time the layer reports).
  static void Sample(const std::string& name, double value);

  /// All threads' records. Call only once the recording threads are joined
  /// or idle.
  static std::vector<const ThreadTrace*> Collect();

 private:
  static ThreadTrace& Local();
  static std::atomic<bool> enabled_;
};

/// Scoped span around one call.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::uint64_t id)
      : handle_(Tracer::Open(name, id, NowNs())) {}
  ~ScopedSpan() { Tracer::Close(handle_, NowNs()); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t handle_;
};

/// Per span name: durations and self times (duration minus the part of the
/// interval its child spans cover), in milliseconds.
struct SpanTimes {
  std::vector<double> dur_ms;
  std::vector<double> self_ms;
};

std::map<std::string, SpanTimes> AnalyzeSpans(
    const std::vector<const ThreadTrace*>& threads);

/// Merges every thread's samples by name.
std::map<std::string, std::vector<double>> MergeSamples(
    const std::vector<const ThreadTrace*>& threads);

/// Writes one CSV line per span (thread,index,parent,id,name,start_ns,
/// end_ns). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path,
                const std::vector<const ThreadTrace*>& threads);

/// Keeps every CPU busy at the lowest scheduling priority (SCHED_IDLE) while
/// it lives. On a virtual machine an idle vCPU halts, and waking it for the
/// next thread hand-off costs the hypervisor's resume latency (milliseconds
/// under host load), which would otherwise dominate the query workloads'
/// millisecond-scale latencies; main.cpp starts them for those only. A SCHED_IDLE thread yields to any runnable
/// thread; where that class is unavailable no spinner runs. At most one
/// instance may exist at a time.
class IdleSpinners {
 public:
  explicit IdleSpinners(unsigned n);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// CPU seconds (user + system) the process has used, minus what the idle
/// spinners used: the work's own CPU time.
double WorkCpuSeconds();

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> v, double q);

}  // namespace perfbench
