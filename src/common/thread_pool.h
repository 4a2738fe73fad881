// A small fixed-size worker pool shared by the parallel hot paths (SMT
// multiproof generation, bulk leaf hashing, index aux-proof capture, batched
// transaction-signature checks).
//
// Design constraints that shaped the API:
//  * Reentrancy: pool tasks may themselves call ParallelFor (the SMT's
//    dirty-subtree rehash splits into two tasks per level, each of which
//    splits again). A blocking
//    wait inside a worker would deadlock a small pool, so every wait in this
//    class *helps* — it drains queued tasks on the waiting thread instead of
//    sleeping while work is available.
//  * Determinism: the pool only ever executes caller-supplied closures; all
//    ordering-sensitive merging stays with the caller, so results are
//    byte-identical to serial execution by construction.
//  * Exceptions: Submit propagates through the returned future; ParallelFor
//    rethrows the first exception after all iterations finish or are
//    abandoned.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dcert::common {

class ThreadPool {
 public:
  /// `workers` = 0 picks the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t WorkerCount() const { return threads_.size(); }

  /// Enqueues `fn` and returns a future for its result. Never blocks; safe
  /// to call from inside a pool task.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    Enqueue([task] { (*task)(); });
    return future;
  }

  /// Runs body(0..n-1), distributing iterations over the workers *and* the
  /// calling thread; returns when all iterations completed. Iterations must
  /// be independent. The first exception thrown by any iteration is rethrown
  /// here (remaining iterations are abandoned, in-flight ones finish).
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Process-wide pool sized to the hardware. Lazily constructed; lives for
  /// the process lifetime.
  static ThreadPool& Shared();

 private:
  void Enqueue(std::function<void()> fn);
  void WorkerLoop();
  /// Pops and runs one queued task. Returns false when the queue was empty.
  bool RunOneTask();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

}  // namespace dcert::common
