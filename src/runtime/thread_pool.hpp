// thread_pool.hpp — a small blocking-queue thread pool plus parallel_for.
//
// The simulation workloads are embarrassingly parallel (independent routing
// trials, independent BFS sources). We only need:
//   * ThreadPool::submit(fn)                — fire-and-forget task;
//   * parallel_for(pool, begin, end, body)  — index loop in which the caller
//                                             and pool tasks claim the next
//                                             index from a shared counter;
//                                             blocks until every index ran.
//
// Determinism contract: `body(i)` must derive all randomness from the index i
// (e.g. `rng.child(i)`), never from thread identity. Under that contract the
// results are identical for any pool size, including size 0 (inline fallback).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nav {

class ThreadPool {
 public:
  /// Creates `threads` workers. 0 is allowed: submit() then runs each task
  /// inline, which keeps single-threaded debugging trivial.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue); with zero workers the
  /// task runs on the calling thread before submit() returns.
  void submit(std::function<void()> task);

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// A sensible default size for this machine (hardware_concurrency, >= 1).
  /// The NAV_WORKERS environment variable overrides it with a whole number
  /// in [1, 1024]; any other value is ignored. A parallel_for on the global
  /// pool then runs at most that many bodies at once, on the caller and the
  /// workers. global_pool() reads it once, at first use.
  [[nodiscard]] static std::size_t default_threads() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_task_;  // signalled when a task is available
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(i) for every i in [begin, end) and blocks until complete. The
/// caller and up to `workers` pool tasks claim the next index from a shared
/// counter, so a long iteration (e.g. a skewed RouteService target shard)
/// occupies one thread while the rest drain the remainder; at most `workers`
/// bodies run at once. The caller waits on a per-call latch of completed
/// indices, not on pool idleness, so nested and concurrent calls are fine.
/// A single worker or index runs inline. Bodies may run on the caller: never
/// hold a thread_scratch<T> reference across the call when the body uses the
/// same T. A throwing body terminates the program.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Convenience overload using a process-wide pool sized to the hardware.
/// The global pool is created on first use and lives until process exit.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Access to the process-wide pool (created on first use).
ThreadPool& global_pool();

}  // namespace nav
