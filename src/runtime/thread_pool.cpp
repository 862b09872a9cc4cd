#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "runtime/assert.hpp"

namespace nav {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  NAV_ASSERT(task != nullptr);
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  if (workers_.empty()) {
    // Inline drain: repeatedly pop and run on the calling thread.
    while (true) {
      std::function<void()> task;
      {
        std::lock_guard lock(mutex_);
        if (queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

namespace {

// Largest worker count NAV_WORKERS may force.
constexpr std::size_t kMaxWorkersOverride = 1024;

}  // namespace

std::size_t ThreadPool::default_threads() noexcept {
  if (const char* env = std::getenv("NAV_WORKERS"); env != nullptr) {
    const char* const end = env + std::strlen(env);
    std::size_t workers = 0;
    const auto [ptr, ec] = std::from_chars(env, end, workers);
    if (ec == std::errc{} && ptr == end && workers >= 1 &&
        workers <= kMaxWorkersOverride) {
      return workers;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
    }
    cv_idle_.notify_all();
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t workers = std::max<std::size_t>(1, pool.thread_count());
  if (workers == 1 || total == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Static chunking, ~4 chunks per worker to smooth imbalance while keeping
  // scheduling deterministic in *work*, if not in interleaving.
  const std::size_t chunks = std::min(total, workers * 4);
  const std::size_t chunk_size = (total + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    if (lo >= end) break;
    const std::size_t hi = std::min(end, lo + chunk_size);
    pool.submit([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  pool.wait_idle();
}

void parallel_for_dynamic(ThreadPool& pool, std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t)>& body) {
  parallel_for_dynamic(pool, begin, end, body, /*max_workers=*/0);
}

void parallel_for_dynamic(ThreadPool& pool, std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t)>& body,
                          std::size_t max_workers) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  std::size_t workers = std::max<std::size_t>(1, pool.thread_count());
  if (max_workers != 0) workers = std::min(workers, max_workers);
  if (workers == 1 || total == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Shared claim counter: tasks race to fetch the next index, so a long
  // iteration occupies one worker while the rest drain the remainder.
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  const std::size_t tasks = std::min(total, workers);
  for (std::size_t w = 0; w < tasks; ++w) {
    pool.submit([next, end, &body] {
      for (std::size_t i = next->fetch_add(1, std::memory_order_relaxed);
           i < end; i = next->fetch_add(1, std::memory_order_relaxed)) {
        body(i);
      }
    });
  }
  pool.wait_idle();
}

void parallel_for_dynamic(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t)>& body) {
  parallel_for_dynamic(global_pool(), begin, end, body);
}

void parallel_for_dynamic(std::size_t begin, std::size_t end,
                          const std::function<void(std::size_t)>& body,
                          std::size_t max_workers) {
  parallel_for_dynamic(global_pool(), begin, end, body, max_workers);
}

ThreadPool& global_pool() {
  static ThreadPool pool(ThreadPool::default_threads());
  return pool;
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  parallel_for(global_pool(), begin, end, body);
}

}  // namespace nav
