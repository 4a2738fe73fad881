#include "trace.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

std::mutex g_threads_mu;
// Owned here so a thread's records outlive the thread.
std::vector<std::unique_ptr<ThreadTrace>>& Threads() {
  static std::vector<std::unique_ptr<ThreadTrace>> threads;
  return threads;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

void Tracer::SetEnabled(bool on) {
  enabled_.store(on, std::memory_order_relaxed);
}

ThreadTrace& Tracer::Local() {
  thread_local ThreadTrace* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lk(g_threads_mu);
    Threads().push_back(std::make_unique<ThreadTrace>());
    local = Threads().back().get();
  }
  return *local;
}

std::int32_t Tracer::Open(const char* name, std::uint64_t id,
                          std::uint64_t start_ns) {
  if (!Enabled()) return -1;
  ThreadTrace& t = Local();
  Span s;
  s.name = name;
  s.id = id;
  s.parent = t.open.empty() ? -1 : t.open.back();
  s.start_ns = start_ns;
  t.spans.push_back(s);
  const auto handle = static_cast<std::int32_t>(t.spans.size() - 1);
  t.open.push_back(handle);
  return handle;
}

void Tracer::Close(std::int32_t handle, std::uint64_t end_ns) {
  if (handle < 0) return;
  ThreadTrace& t = Local();
  t.spans[static_cast<std::size_t>(handle)].end_ns = end_ns;
  // Spans close innermost-first; tolerate a handle closed out of order.
  auto it = std::find(t.open.rbegin(), t.open.rend(), handle);
  if (it != t.open.rend()) t.open.erase(std::next(it).base());
}

void Tracer::Sample(const std::string& name, double value) {
  if (!Enabled()) return;
  Local().samples[name].push_back(value);
}

std::vector<const ThreadTrace*> Tracer::Collect() {
  std::lock_guard<std::mutex> lk(g_threads_mu);
  std::vector<const ThreadTrace*> out;
  for (const auto& t : Threads()) out.push_back(t.get());
  return out;
}

std::map<std::string, SpanTimes> AnalyzeSpans(
    const std::vector<const ThreadTrace*>& threads) {
  std::map<std::string, SpanTimes> out;
  for (const ThreadTrace* t : threads) {
    const std::vector<Span>& spans = t->spans;
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (std::size_t c : children[i]) {
        const std::uint64_t a = std::max(spans[c].start_ns, s.start_ns);
        const std::uint64_t b = std::min(spans[c].end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::uint64_t covered = 0, cur_a = 0, cur_b = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += cur_b - cur_a;
      const std::uint64_t dur = s.end_ns - s.start_ns;
      SpanTimes& st = out[s.name];
      st.dur_ms.push_back(static_cast<double>(dur) / 1e6);
      st.self_ms.push_back(static_cast<double>(dur - covered) / 1e6);
    }
  }
  return out;
}

std::map<std::string, std::vector<double>> MergeSamples(
    const std::vector<const ThreadTrace*>& threads) {
  std::map<std::string, std::vector<double>> out;
  for (const ThreadTrace* t : threads) {
    for (const auto& [name, v] : t->samples) {
      auto& dst = out[name];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  return out;
}

bool WriteSpans(const std::string& path,
                const std::vector<const ThreadTrace*>& threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,index,parent,id,name,start_ns,end_ns\n");
  for (std::size_t ti = 0; ti < threads.size(); ++ti) {
    const std::vector<Span>& spans = threads[ti]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%llu,%s,%llu,%llu\n", ti, i, s.parent,
                   static_cast<unsigned long long>(s.id), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

namespace {

std::mutex g_spin_mu;
std::vector<pthread_t> g_spinners;  // guarded by g_spin_mu

double ThreadCpuSeconds(pthread_t t) {
  clockid_t clock;
  timespec ts{};
  if (pthread_getcpuclockid(t, &clock) != 0 || clock_gettime(clock, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

IdleSpinners::IdleSpinners(unsigned n) {
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) {
        return;
      }
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();  // leave a sibling hyperthread its share
#endif
      }
    });
  }
  std::lock_guard<std::mutex> lk(g_spin_mu);
  for (auto& t : threads_) g_spinners.push_back(t.native_handle());
}

IdleSpinners::~IdleSpinners() {
  {
    std::lock_guard<std::mutex> lk(g_spin_mu);
    g_spinners.clear();
  }
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

double WorkCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  double total =
      static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
      static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  std::lock_guard<std::mutex> lk(g_spin_mu);
  for (pthread_t t : g_spinners) total -= ThreadCpuSeconds(t);
  return total;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

}  // namespace perfbench
