// Compact distance storage (dist_slab.hpp) and its oracle integration: the
// narrow widths are a pure storage decision, so every width must be
// bit-identical to u32 on reads — and saturation must be a loud error,
// never a silently wrong distance.
#include "graph/dist_slab.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/uniform_scheme.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "routing/greedy_router.hpp"
#include "support/dist_pack_reference.hpp"

namespace nav::graph {
namespace {

constexpr DistWidth kWidths[] = {DistWidth::kU8, DistWidth::kU16,
                                 DistWidth::kU32};

TEST(DistSlab, WidthHelpers) {
  EXPECT_EQ(width_bytes(DistWidth::kU8), 1u);
  EXPECT_EQ(width_bytes(DistWidth::kU16), 2u);
  EXPECT_EQ(width_bytes(DistWidth::kU32), 4u);
  EXPECT_EQ(max_finite(DistWidth::kU8), 0xFEu);
  EXPECT_EQ(max_finite(DistWidth::kU16), 0xFFFEu);
  EXPECT_EQ(max_finite(DistWidth::kU32), kInfDist - 1);
  EXPECT_EQ(width_for_bound(0), DistWidth::kU8);
  EXPECT_EQ(width_for_bound(0xFE), DistWidth::kU8);
  EXPECT_EQ(width_for_bound(0xFF), DistWidth::kU16);
  EXPECT_EQ(width_for_bound(0xFFFE), DistWidth::kU16);
  EXPECT_EQ(width_for_bound(0xFFFF), DistWidth::kU32);
  EXPECT_STREQ(width_token(DistWidth::kU8), "u8");
  EXPECT_EQ(parse_dist_width("u16", "spec"), DistWidth::kU16);
  EXPECT_THROW((void)parse_dist_width("u64", "spec"), std::invalid_argument);
}

TEST(DistSlab, NarrowWidenRoundTrip) {
  const std::vector<Dist> row = {0, 1, 17, 0xFE, kInfDist, 3};
  for (const auto width : kWidths) {
    std::vector<std::uint8_t> packed(row.size() * width_bytes(width));
    EXPECT_FALSE(narrow_row(row, width, packed.data()));
    const DistRow stored(packed.data(), row.size(), width);
    std::vector<Dist> widened(row.size());
    stored.widen_into(widened);
    EXPECT_EQ(widened, row) << width_token(width);
    EXPECT_TRUE(stored == row) << width_token(width);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(stored[i], row[i]);
    }
  }
}

TEST(DistSlab, NarrowRowReportsSaturation) {
  const std::vector<Dist> row = {0, 0xFF, 2};  // 0xFF exceeds u8's max 0xFE
  std::vector<std::uint8_t> packed(row.size());
  EXPECT_TRUE(narrow_row(row, DistWidth::kU8, packed.data()));
  std::vector<std::uint8_t> wide(row.size() * 2);
  EXPECT_FALSE(narrow_row(row, DistWidth::kU16, wide.data()));
}

// ---- DistanceMatrix at every width --------------------------------------

TEST(DistSlab, MatrixWidthsAreBitIdentical) {
  const auto g = make_grid2d(9, 7);
  const DistanceMatrix reference(g);
  for (const auto width : kWidths) {
    const DistanceMatrix narrow(g, width);
    EXPECT_EQ(narrow.width(), width);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const auto row = narrow.distances_to(t);
      const auto ref = reference.distances_to(t);
      ASSERT_TRUE(*row == *ref) << width_token(width) << " target " << t;
      EXPECT_EQ(narrow.distance(5, t), reference.distance(5, t));
    }
  }
}

TEST(DistSlab, NarrowMatrixGuardsSlabAccess) {
  const auto g = make_cycle(16);
  const DistanceMatrix narrow(g, DistWidth::kU8);
  EXPECT_THROW((void)narrow.slab(), std::invalid_argument);
  EXPECT_EQ(narrow.packed_slab().size(),
            static_cast<std::size_t>(16) * 16);
  const DistanceMatrix wide(g);
  EXPECT_EQ(wide.slab().size(), wide.packed_slab().size() / sizeof(Dist));
}

TEST(DistSlab, MatrixSaturationThrows) {
  // A 300-path has distances up to 299 > u8's max finite 254.
  const auto g = make_path(300);
  EXPECT_THROW((void)DistanceMatrix(g, DistWidth::kU8),
               std::invalid_argument);
  EXPECT_NO_THROW((void)DistanceMatrix(g, DistWidth::kU16));
}

TEST(DistSlab, MatrixRebuildChecksSaturation) {
  const auto small = make_path(64);
  DistanceMatrix m(small, DistWidth::kU8);
  EXPECT_NO_THROW(m.rebuild_all(small));
  const NodeId targets[] = {0, 63};
  EXPECT_NO_THROW(m.rebuild_rows(small, targets));
}

// ---- TargetDistanceCache at every width ---------------------------------

TEST(DistSlab, CacheWidthsAreBitIdentical) {
  const auto g = make_grid2d(12, 11);
  const TargetDistanceCache reference(g, 8);
  for (const auto width : kWidths) {
    const TargetDistanceCache narrow(g, 8, width);
    EXPECT_EQ(narrow.width(), width);
    // More distinct targets than capacity: hits, misses, and evictions all
    // happen while the comparison runs (both caches recompute evicted rows
    // deterministically).
    for (NodeId t = 0; t < 24; ++t) {
      ASSERT_TRUE(*narrow.distances_to(t) == *reference.distances_to(t))
          << width_token(width) << " target " << t;
      EXPECT_EQ(narrow.distance(3, t), reference.distance(3, t));
    }
  }
}

TEST(DistSlab, CachePrefetchWidthsAreBitIdentical) {
  const auto g = make_grid2d(10, 10);
  const TargetDistanceCache reference(g, 4);
  const std::vector<NodeId> wave = {3, 97, 3, 41, 55, 41, 7};
  for (const auto width : kWidths) {
    const TargetDistanceCache narrow(g, 4, width);
    std::vector<DistVecPtr> pins, ref_pins;
    narrow.prefetch_into(wave, pins);
    reference.prefetch_into(wave, ref_pins);
    ASSERT_EQ(pins.size(), wave.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      ASSERT_TRUE(*pins[i] == *ref_pins[i])
          << width_token(width) << " wave slot " << i;
    }
    // Duplicate targets share one row (identity, not just equality).
    EXPECT_TRUE(pins[0] == pins[2]);
    EXPECT_TRUE(pins[3] == pins[5]);
  }
}

TEST(DistSlab, CacheSaturationThrows) {
  const auto g = make_path(300);
  const TargetDistanceCache narrow(g, 4, DistWidth::kU8);
  EXPECT_THROW((void)narrow.distances_to(0), std::invalid_argument);
  std::vector<DistVecPtr> pins;
  const std::vector<NodeId> wave = {0, 100};
  EXPECT_THROW(narrow.prefetch_into(wave, pins), std::invalid_argument);
  // u16 holds the same graph fine.
  const TargetDistanceCache wide(g, 4, DistWidth::kU16);
  EXPECT_EQ((*wide.distances_to(0))[299], 299u);
}

TEST(DistSlab, CacheBudgetScalesWithWidth) {
  const NodeId n = 1024;
  const MemoryBudget budget{32 * 1024};
  const auto u32_slots =
      TargetDistanceCache::capacity_for_budget(budget, n, DistWidth::kU32);
  const auto u16_slots =
      TargetDistanceCache::capacity_for_budget(budget, n, DistWidth::kU16);
  const auto u8_slots =
      TargetDistanceCache::capacity_for_budget(budget, n, DistWidth::kU8);
  EXPECT_EQ(u32_slots, 8u);
  EXPECT_EQ(u16_slots, 16u);
  EXPECT_EQ(u8_slots, 32u);
  // The 2-arg legacy overload is the u32 rule.
  EXPECT_EQ(TargetDistanceCache::capacity_for_budget(budget, n), u32_slots);
}

TEST(DistSlab, CacheEraseAndClearWorkAtNarrowWidths) {
  const auto g = make_grid2d(8, 8);
  TargetDistanceCache cache(g, 4, DistWidth::kU8);
  (void)cache.distances_to(5);
  (void)cache.distances_to(9);
  EXPECT_TRUE(cache.peek(5) != nullptr);
  EXPECT_TRUE(cache.erase(5));
  EXPECT_FALSE(cache.erase(5));
  EXPECT_TRUE(cache.peek(5) == nullptr);
  cache.clear();
  EXPECT_TRUE(cache.peek(9) == nullptr);
  // The cache still serves queries after a clear.
  EXPECT_EQ(cache.distance(0, 9), (*cache.distances_to(9))[0]);
}

TEST(DistSlab, PeekReadsResidentRowsInPlaceWithoutTouchingLru) {
  // Every resident row is peeked at its packed width, in place, and the
  // peeks leave eviction order and telemetry alone.
  const auto g = make_grid2d(8, 8);
  constexpr NodeId kResident = 24;
  TargetDistanceCache cache(g, kResident, DistWidth::kU8);
  for (NodeId t = 0; t < kResident; ++t) (void)cache.distances_to(t);
  const auto lru_before = cache.resident_targets();
  const std::size_t hits = cache.hits(), misses = cache.misses();
  const TargetDistanceCache reference(g, 4);
  for (NodeId t = 0; t < kResident; ++t) {
    const auto peeked = cache.peek(t);
    ASSERT_TRUE(peeked != nullptr) << "target " << t;
    EXPECT_EQ(peeked->width(), DistWidth::kU8);
    ASSERT_TRUE(*peeked == *reference.distances_to(t)) << "target " << t;
  }
  EXPECT_EQ(cache.resident_targets(), lru_before);
  EXPECT_EQ(cache.hits(), hits);
  EXPECT_EQ(cache.misses(), misses);
  // A hit hands out the very storage peek saw: one row per target, no copy.
  EXPECT_TRUE(cache.peek(0) == cache.distances_to(0));
  EXPECT_EQ(cache.resident_targets().front(), 0u);
}

// ---- routing is width-invariant -----------------------------------------

TEST(DistSlab, GreedyRoutesAreBitIdenticalAcrossWidths) {
  const auto g = make_grid2d(16, 16);
  const core::UniformScheme scheme(g);
  const DistanceMatrix reference(g);
  const routing::GreedyRouter ref_router(g, reference);
  for (const auto width : kWidths) {
    const TargetDistanceCache cache(g, 8, width);
    const routing::GreedyRouter router(g, cache);
    for (std::uint64_t trial = 0; trial < 24; ++trial) {
      Rng rng(trial);
      const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      auto t = static_cast<NodeId>(rng.next_below(g.num_nodes() - 1));
      if (t >= s) ++t;
      const auto got = router.route(s, t, &scheme, Rng(1000 + trial));
      const auto want = ref_router.route(s, t, &scheme, Rng(1000 + trial));
      ASSERT_EQ(got.steps, want.steps)
          << width_token(width) << " pair (" << s << ", " << t << ")";
      ASSERT_EQ(got.reached, want.reached);
    }
  }
}

}  // namespace
}  // namespace nav::graph
