// thread_pool.hpp — a small blocking-queue thread pool plus parallel_for.
//
// The simulation workloads are embarrassingly parallel (independent routing
// trials, independent BFS sources). We only need:
//   * ThreadPool::submit(fn)                — fire-and-forget task;
//   * parallel_for(pool, begin, end, body)  — index loop in which one task
//                                             per worker claims the next
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
  /// Creates `threads` workers. 0 is allowed: tasks then run inline inside
  /// wait_idle()/parallel_for, which keeps single-threaded debugging trivial.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle.
  /// With zero workers, drains the queue on the calling thread.
  void wait_idle();

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

  /// A sensible default size for this machine (hardware_concurrency, >= 1).
  /// The NAV_WORKERS environment variable overrides it with a whole number
  /// in [1, 1024], so the global pool (and with it every parallel_for
  /// fan-out) runs at a forced worker count; any other value is ignored.
  /// global_pool() reads it once, at first use.
  [[nodiscard]] static std::size_t default_threads() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable cv_task_;   // signalled when a task is available
  std::condition_variable cv_idle_;   // signalled when a task completes
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Runs body(i) for every i in [begin, end) and blocks until complete. One
/// task per pool worker claims the next unclaimed index from a shared atomic
/// counter, so a long iteration (e.g. a RouteService target shard holding
/// most of a batch's pairs) occupies one worker while the rest drain the
/// remainder. A single worker or a single index runs inline on the caller.
/// Exceptions in body() terminate the program (tasks are noexcept-by-policy;
/// simulation bodies must not throw). Must not be called from inside a pool
/// task: it waits on pool idleness, which a task can never observe for its
/// own pool.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Convenience overload using a process-wide pool sized to the hardware.
/// The global pool is created on first use and lives until process exit.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Access to the process-wide pool (created on first use).
ThreadPool& global_pool();

}  // namespace nav
