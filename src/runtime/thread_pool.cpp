#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <latch>
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
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

namespace {

// Largest worker count NAV_WORKERS may force.
constexpr std::size_t kMaxWorkersOverride = 1024;

// One parallel_for call's state, co-owned by its pool tasks: a task that
// starts after the caller returned finds the counter used up, not `body`.
struct FanOut {
  FanOut(std::size_t begin, std::size_t last,
         const std::function<void(std::size_t)>& fn)
      : next(begin), end(last), body(&fn),
        pending(static_cast<std::ptrdiff_t>(last - begin)) {}
  std::atomic<std::size_t> next;
  const std::size_t end;
  // Dereferenced only for a claimed index, which the caller still waits on.
  const std::function<void(std::size_t)>* const body;
  std::latch pending;  // counts down once per completed index
};

// Runs claimed indices until the counter is used up, then counts them off
// the latch. noexcept: a throwing body terminates on any thread, caller too.
void run_claims(FanOut& fan) noexcept {
  std::ptrdiff_t ran = 0;
  for (std::size_t i = fan.next.fetch_add(1, std::memory_order_relaxed);
       i < fan.end; i = fan.next.fetch_add(1, std::memory_order_relaxed)) {
    (*fan.body)(i);
    ++ran;
  }
  if (ran > 0) fan.pending.count_down(ran);
}

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
    }
    task();
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
  // The caller claims too, so the first index starts with no wake-up, then
  // waits only for the claimed indices. A narrow loop submits a task per
  // index (the first workers to wake take them); a wide one workers - 1, as
  // one busy thread more than the pool width only lengthens the tail.
  const auto fan = std::make_shared<FanOut>(begin, end, body);
  const std::size_t tasks = total <= workers ? total : workers - 1;
  for (std::size_t w = 0; w < tasks; ++w) {
    pool.submit([fan] { run_claims(*fan); });
  }
  run_claims(*fan);
  fan->pending.wait();
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
