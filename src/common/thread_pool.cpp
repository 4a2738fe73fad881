#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "obs/metrics.h"

namespace dcert::common {

namespace {

/// Aggregate queue-depth/throughput metrics across every pool in the process
/// (gauges add/sub, so per-pool contributions compose).
struct PoolMetrics {
  std::shared_ptr<obs::Gauge> queue_depth;
  std::shared_ptr<obs::Counter> tasks_executed;

  static PoolMetrics& Get() {
    static PoolMetrics* m = new PoolMetrics{
        obs::MetricsRegistry::Global().GetGauge("common.pool.queue_depth"),
        obs::MetricsRegistry::Global().GetCounter("common.pool.tasks_executed")};
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  // Register the pool families now, so they read 0 rather than being absent
  // from stats snapshots until the first task is enqueued.
  PoolMetrics::Get();
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  PoolMetrics::Get().queue_depth->Add(1);
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    PoolMetrics::Get().queue_depth->Sub(1);
    task();
    PoolMetrics::Get().tasks_executed->Add(1);
  }
}

bool ThreadPool::RunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  PoolMetrics::Get().queue_depth->Sub(1);
  task();
  PoolMetrics::Get().tasks_executed->Add(1);
  return true;
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || threads_.empty()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> active{0};
    std::atomic<bool> failed{false};
    std::mutex mu;
    std::condition_variable done_cv;
    std::exception_ptr error;
  };
  auto state = std::make_shared<Shared>();

  auto run = [state, n, &body] {
    std::size_t i;
    while (!state->failed.load(std::memory_order_relaxed) &&
           (i = state->next.fetch_add(1, std::memory_order_relaxed)) < n) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) state->error = std::current_exception();
        state->failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  // One runner per worker (capped by n); the calling thread is runner zero.
  const std::size_t runners = std::min(threads_.size(), n - 1);
  state->active.store(runners, std::memory_order_relaxed);
  for (std::size_t r = 0; r < runners; ++r) {
    Enqueue([state, run] {
      run();
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        state->done_cv.notify_all();
      }
    });
  }

  run();  // the calling thread participates

  // Help drain the queue while runners finish — keeps nested ParallelFor
  // calls from deadlocking a fully-busy pool.
  while (state->active.load(std::memory_order_acquire) != 0) {
    if (!RunOneTask()) {
      std::unique_lock<std::mutex> lock(state->mu);
      state->done_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return state->active.load(std::memory_order_acquire) == 0;
      });
    }
  }

  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();  // intentionally leaked
  return *pool;
}

}  // namespace dcert::common
