#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "runtime/rng.hpp"

namespace nav {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::latch done(100);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  std::latch done(2);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> on_caller{true};
  for (int i = 0; i < 2; ++i) {
    pool.submit([&] {
      on_caller = on_caller && std::this_thread::get_id() == caller;
      done.count_down();
    });
  }
  EXPECT_TRUE(done.try_wait());  // both ran before submit() returned
  EXPECT_TRUE(on_caller.load());
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

TEST(ParallelFor, NestedCallInsidePoolTaskCompletes) {
  // A fan-out from inside a pool task, itself nested in an outer fan-out:
  // each call waits on its own indices, never on the pool it runs in.
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 8);
  std::latch done(1);
  pool.submit([&] {
    parallel_for(pool, 0, 4, [&](std::size_t outer) {
      parallel_for(pool, 0, 8, [&](std::size_t inner) {
        hits[outer * 8 + inner].fetch_add(1);
      });
    });
    done.count_down();
  });
  done.wait();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, CallerRunsEveryIndexWhileWorkersAreBusy) {
  // Every worker is parked on a latch, so only the caller can make
  // progress: the fan-out must finish on it alone.
  ThreadPool pool(3);
  std::latch parked(3);
  std::latch release(1);
  for (int w = 0; w < 3; ++w) {
    pool.submit([&] {
      parked.count_down();
      release.wait();
    });
  }
  parked.wait();
  const auto caller = std::this_thread::get_id();
  std::vector<int> ran_on_caller(64, 0);
  parallel_for(pool, 0, 64, [&](std::size_t i) {
    ran_on_caller[i] = std::this_thread::get_id() == caller ? 1 : 0;
  });
  release.count_down();
  for (const int on_caller : ran_on_caller) EXPECT_EQ(on_caller, 1);
}

TEST(ParallelFor, ConcurrentCallersFromTwoThreads) {
  // Caller A's index 0 blocks until caller B's fan-outs have all returned,
  // so B must not wait on A's work; A's other indices still drain.
  ThreadPool pool(2);
  constexpr int kRounds = 50;
  std::vector<std::atomic<int>> a_hits(64);
  std::vector<std::atomic<int>> b_hits(64);
  std::latch b_returned(1);
  std::thread a([&] {
    parallel_for(pool, 0, 64, [&](std::size_t i) {
      if (i == 0) b_returned.wait();
      a_hits[i].fetch_add(1);
    });
  });
  std::thread b([&] {
    for (int round = 0; round < kRounds; ++round) {
      parallel_for(pool, 0, 64, [&](std::size_t i) { b_hits[i].fetch_add(1); });
    }
    b_returned.count_down();
  });
  a.join();
  b.join();
  for (const auto& h : a_hits) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b_hits) EXPECT_EQ(h.load(), kRounds);
}

TEST(ParallelFor, AtMostPoolWidthBodiesRunAtOnce) {
  // The caller counts as one of the pool's lanes: a wide loop keeps at
  // most thread_count() bodies busy, never one more.
  ThreadPool pool(2);
  std::atomic<int> running{0};
  std::atomic<int> peak{0};
  parallel_for(pool, 0, 64, [&](std::size_t) {
    const int now = running.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    running.fetch_sub(1);
  });
  EXPECT_LE(peak.load(), 2);
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
