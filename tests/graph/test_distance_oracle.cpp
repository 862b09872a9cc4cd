#include "graph/distance_oracle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "support/bfs_reference.hpp"

namespace nav::graph {
namespace {

std::uint64_t fnv1a(std::span<const Dist> data) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

TEST(DistanceMatrix, MatchesBfs) {
  const auto g = make_grid2d(5, 5);
  DistanceMatrix dm(g);
  for (NodeId t = 0; t < g.num_nodes(); t += 7) {
    const auto d = bfs_distances(g, t);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      EXPECT_EQ(dm.distance(u, t), d[u]);
    }
  }
}

TEST(DistanceMatrix, Symmetric) {
  const auto g = make_cycle(9);
  DistanceMatrix dm(g);
  for (NodeId u = 0; u < 9; ++u)
    for (NodeId v = 0; v < 9; ++v) EXPECT_EQ(dm.distance(u, v), dm.distance(v, u));
}

TEST(DistanceMatrix, SharedVectorMatchesScalar) {
  const auto g = make_path(20);
  DistanceMatrix dm(g);
  const auto vec = dm.distances_to(5);
  for (NodeId u = 0; u < 20; ++u) EXPECT_EQ((*vec)[u], dm.distance(u, 5));
}

TEST(TargetCache, MatchesBfs) {
  const auto g = make_grid2d(6, 4);
  TargetDistanceCache cache(g, 4);
  const auto d = bfs_distances(g, 13);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(cache.distance(u, 13), d[u]);
  }
}

TEST(TargetCache, HitsAndMisses) {
  const auto g = make_path(30);
  TargetDistanceCache cache(g, 2);
  (void)cache.distances_to(0);
  (void)cache.distances_to(0);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(TargetCache, EvictsAtCapacityButStaysCorrect) {
  const auto g = make_path(30);
  TargetDistanceCache cache(g, 2);
  const auto a = cache.distances_to(1);
  (void)cache.distances_to(2);
  (void)cache.distances_to(3);  // evicts target 1
  // Held pointer stays valid and correct after eviction.
  EXPECT_EQ((*a)[10], 9u);
  // Re-request recomputes.
  EXPECT_EQ(cache.distance(10, 1), 9u);
  EXPECT_GE(cache.misses(), 4u);
}

TEST(TargetCache, ZeroCapacityClampedToOne) {
  const auto g = make_path(5);
  TargetDistanceCache cache(g, 0);
  EXPECT_EQ(cache.distance(0, 4), 4u);
}

TEST(TargetCache, PrefetchPinsBatchAndMatchesBfs) {
  const auto g = make_grid2d(8, 8);
  TargetDistanceCache cache(g, 2);  // capacity below the batch size
  const std::vector<NodeId> targets = {3, 17, 3, 40, 63};  // with a duplicate
  std::vector<DistVecPtr> pinned;
  cache.prefetch_into(targets, pinned);
  ASSERT_EQ(pinned.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto expect = bfs_distances(g, targets[i]);
    ASSERT_NE(pinned[i], nullptr);
    EXPECT_EQ(*pinned[i], expect) << "target " << targets[i];
  }
  // Duplicate targets share one vector; one BFS each for the 4 distinct.
  EXPECT_EQ(pinned[0], pinned[2]);
  EXPECT_EQ(cache.misses(), 4u);
  // A second prefetch of a resident target is a hit, not a BFS.
  const auto before = cache.misses();
  std::vector<DistVecPtr> again;
  cache.prefetch_into(std::vector<NodeId>{63}, again);
  EXPECT_EQ(cache.misses(), before);
  EXPECT_GE(cache.hits(), 2u);  // the duplicate + the re-prefetch
}

TEST(TargetCache, PrefetchDefaultImplOnDenseMatrix) {
  const auto g = make_cycle(12);
  DistanceMatrix dm(g);
  const std::vector<NodeId> targets = {0, 5, 11};
  std::vector<DistVecPtr> pinned;
  dm.prefetch_into(targets, pinned);
  ASSERT_EQ(pinned.size(), 3u);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(pinned[i], dm.distances_to(targets[i]));
  }
}

TEST(TargetCache, MemoryBudgetSizesCapacity) {
  const auto g = make_path(100);  // one vector = 100 * sizeof(Dist) = 400 B
  EXPECT_EQ(TargetDistanceCache::capacity_for_budget({4000}, 100), 10u);
  EXPECT_EQ(TargetDistanceCache::capacity_for_budget({399}, 100), 1u);  // >= 1
  TargetDistanceCache cache(g, MemoryBudget{1200});
  EXPECT_EQ(cache.capacity(), 3u);
  (void)cache.distances_to(0);
  (void)cache.distances_to(1);
  (void)cache.distances_to(2);
  (void)cache.distances_to(0);  // still resident under a 3-vector budget
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(TargetCache, ConcurrentAccessConsistent) {
  const auto g = make_grid2d(10, 10);
  TargetDistanceCache cache(g, 8);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &g, &failures] {
      for (NodeId target = 0; target < 20; ++target) {
        const auto vec = cache.distances_to(target);
        if ((*vec)[target] != 0) failures.fetch_add(1);
        if (vec->size() != g.num_nodes()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// The worker-count tests below run at the process's pool width; CI reruns
// them at NAV_WORKERS=1, 3 and 8, and every width must reproduce the
// sequential reference kernel row for row.

// The slab the sequential reference kernel produces, row-major by target.
std::vector<Dist> reference_slab(const Graph& g) {
  std::vector<Dist> slab;
  slab.reserve(static_cast<std::size_t>(g.num_nodes()) * g.num_nodes());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto row = bfs_distances_reference(g, t);
    slab.insert(slab.end(), row.begin(), row.end());
  }
  return slab;
}

TEST(DistanceMatrixDeterminism, SlabHashIndependentOfWorkerCount) {
  Rng rng(0xD57);
  const Graph g = make_connected_gnp(500, 6.0 / 500.0, rng);
  const std::vector<Dist> expect = reference_slab(g);
  const DistanceMatrix dm(g);
  ASSERT_EQ(dm.slab().size(), expect.size());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    ASSERT_TRUE(*dm.distances_to(t) ==
                std::span<const Dist>(expect).subspan(
                    static_cast<std::size_t>(t) * g.num_nodes(),
                    g.num_nodes()))
        << "target=" << t;
  }
  EXPECT_EQ(fnv1a(dm.slab()), fnv1a(expect));
}

TEST(DistanceMatrixDeterminism, RepeatedBuildsAndRebuildsHashIdentical) {
  Rng rng(0xD58);
  const Graph g = make_connected_gnp(400, 5.0 / 400.0, rng);
  const std::uint64_t reference_hash = fnv1a(reference_slab(g));
  const DistanceMatrix first(g);
  ASSERT_EQ(fnv1a(first.slab()), reference_hash);
  for (int run = 0; run < 3; ++run) {
    DistanceMatrix dm(g);
    ASSERT_EQ(fnv1a(dm.slab()), reference_hash) << "build " << run;
    dm.rebuild_all(g);
    ASSERT_EQ(fnv1a(dm.slab()), reference_hash) << "rebuild " << run;
    const std::vector<NodeId> some{0, 13, 399, 200};
    dm.rebuild_rows(g, some);
    ASSERT_EQ(fnv1a(dm.slab()), reference_hash) << "row rebuild " << run;
  }
}

TEST(TargetDistanceCachePolicy, PrefetchWavesMatchScalarRowsAtEveryWidth) {
  Rng rng(0xCA9);
  const Graph g = make_connected_gnp(800, 5.0 / 800.0, rng);
  // Every wave shape goes through the same row farm: one miss runs inline
  // on the caller, two misses take two pool lanes, and the wide wave (with
  // duplicates) spreads over all of them.
  const std::vector<std::vector<NodeId>> waves{
      {3}, {5, 7}, {10, 20, 30, 40, 50, 60, 70, 80, 20, 10}};
  for (const DistWidth width :
       {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
    TargetDistanceCache cache(g, 16, width);
    std::vector<DistVecPtr> rows;
    for (const auto& wave : waves) {
      cache.prefetch_into(wave, rows);
      ASSERT_EQ(rows.size(), wave.size());
      for (std::size_t i = 0; i < wave.size(); ++i) {
        const auto expect = bfs_distances_reference(g, wave[i]);
        ASSERT_TRUE(*rows[i] == std::span<const Dist>(expect))
            << width_token(width) << " target=" << wave[i];
      }
    }
    EXPECT_EQ(cache.misses(), 11u) << width_token(width);
    // Duplicates in the wide wave share the first occurrence's pin.
    EXPECT_EQ(rows[8], rows[1]);
    EXPECT_EQ(rows[9], rows[0]);
    // An all-hit repeat serves the same rows from residency.
    std::vector<DistVecPtr> again;
    cache.prefetch_into(waves.back(), again);
    for (std::size_t i = 0; i < again.size(); ++i) {
      ASSERT_EQ(again[i], rows[i]) << width_token(width) << " i=" << i;
    }
    EXPECT_EQ(cache.misses(), 11u) << width_token(width);
  }
}

}  // namespace
}  // namespace nav::graph
