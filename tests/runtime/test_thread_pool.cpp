#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "graph/bfs_engine.hpp"
#include "runtime/rng.hpp"

namespace nav {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  std::atomic<int> counter{0};
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(3);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ThreadCountReported) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, DefaultThreadsPositive) {
  EXPECT_GE(ThreadPool::default_threads(), 1u);
}

TEST(ThreadPool, DefaultThreadsFollowsNavWorkers) {
  const char* saved = std::getenv("NAV_WORKERS");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("NAV_WORKERS");
  const std::size_t hardware = ThreadPool::default_threads();
  for (const char* forced : {"1", "3", "8"}) {
    ::setenv("NAV_WORKERS", forced, 1);
    EXPECT_EQ(ThreadPool::default_threads(), std::stoul(forced)) << forced;
  }
  // Malformed or out-of-range values fall back to the hardware count.
  for (const char* ignored : {"", "0", "-2", "3x", " 3", "abc", "1025"}) {
    ::setenv("NAV_WORKERS", ignored, 1);
    EXPECT_EQ(ThreadPool::default_threads(), hardware) << '"' << ignored << '"';
  }
  // ParallelPolicy{0} resolves through the same override.
  ::setenv("NAV_WORKERS", "3", 1);
  EXPECT_EQ(graph::ParallelPolicy{}.resolved_workers(), 3u);
  if (saved != nullptr) {
    ::setenv("NAV_WORKERS", restore.c_str(), 1);
  } else {
    ::unsetenv("NAV_WORKERS");
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
  parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, NonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10+...+19
}

TEST(ParallelFor, ResultIndependentOfThreadCount) {
  // Deterministic body keyed by index: results must agree across pool sizes.
  auto run = [](std::size_t threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(512);
    parallel_for(pool, 0, 512, [&](std::size_t i) {
      Rng rng = Rng(77).child(i);
      out[i] = rng();
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ParallelFor, GlobalPoolWorks) {
  std::atomic<int> counter{0};
  parallel_for(0, 64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, ManySmallBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 20; ++round) {
    parallel_for(pool, 0, 10, [&](std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 200);
}

}  // namespace
}  // namespace nav
