// LandmarkOracle invariants: the triangle estimate is an upper bound that is
// 1-Lipschitz along edges, exact at landmarks and inside the patch ball, and
// deterministic — and exact()-aware routers terminate on it.
#include "graph/landmark_oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/uniform_scheme.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "routing/greedy_router.hpp"
#include "routing/lookahead_router.hpp"
#include "support/bfs_reference.hpp"

namespace nav::graph {
namespace {

LandmarkOptions with_k(std::size_t k,
                       LandmarkSelection sel = LandmarkSelection::kFarthest) {
  LandmarkOptions options;
  options.k = k;
  options.selection = sel;
  return options;
}

/// The triangle field, from reference BFS rows, with the exact-ball patch of
/// `radius` overlaid (radius 0 keeps only the row[t] = 0 anchor).
std::vector<Dist> reference_field(const Graph& g, const LandmarkOracle& oracle,
                                  NodeId target,
                                  Dist radius = LandmarkOracle::kExactRadius) {
  std::vector<Dist> row(g.num_nodes(), kInfDist);
  for (const NodeId l : oracle.landmarks()) {
    const auto from_l = bfs_distances_reference(g, l);
    if (from_l[target] == kInfDist) continue;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (from_l[u] != kInfDist) {
        row[u] = std::min(row[u], from_l[u] + from_l[target]);
      }
    }
  }
  const auto patch = bfs_distances_reference(g, target, radius);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    row[u] = std::min(row[u], patch[u]);
  }
  return row;
}

TEST(LandmarkOracle, IsAnUpperBoundEverywhere) {
  const auto g = make_grid2d(12, 10);
  const DistanceMatrix exact(g);
  const LandmarkOracle approx(g, with_k(6));
  for (NodeId t = 0; t < g.num_nodes(); t += 7) {
    const auto row = approx.distances_to(t);
    const auto truth = exact.distances_to(t);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      ASSERT_GE((*row)[u], (*truth)[u]) << "u=" << u << " t=" << t;
      ASSERT_NE((*row)[u], kInfDist);  // connected graph: bound is finite
    }
    EXPECT_EQ((*row)[t], 0u);  // the anchor: d̂(t, t) = 0
  }
}

TEST(LandmarkOracle, ExactAtLandmarksAndInsidePatchBall) {
  const auto g = make_grid2d(12, 10);
  const DistanceMatrix exact(g);
  const LandmarkOracle approx(g, with_k(5));
  const NodeId target = 57;
  const auto row = approx.distances_to(target);
  const auto truth = exact.distances_to(target);
  // At a landmark l, the l = u term collapses the bound to the truth.
  for (const NodeId l : approx.landmarks()) {
    EXPECT_EQ((*row)[l], (*truth)[l]) << "landmark " << l;
    EXPECT_EQ(approx.distance(l, target), (*truth)[l]);
  }
  // Inside the patch ball the overlay forces exactness; the ball is not
  // trivially covered by the landmarks.
  std::size_t patched_off_landmark = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if ((*truth)[u] <= LandmarkOracle::kExactRadius) {
      EXPECT_EQ((*row)[u], (*truth)[u]) << "patched node " << u;
      const auto ls = approx.landmarks();
      if (std::find(ls.begin(), ls.end(), u) == ls.end()) {
        ++patched_off_landmark;
      }
    }
  }
  EXPECT_GT(patched_off_landmark, 1u);
}

TEST(LandmarkOracle, PureFieldIsLipschitzAlongEdges) {
  // |d̂(u, t) - d̂(v, t)| <= 1 for every edge (u, v): the property that lets
  // greedy descend without overshooting the target. This holds for the PURE
  // triangle field (each d(·, l) term is 1-Lipschitz, so the min is); the
  // exact-ball patch deliberately breaks it at the ball boundary in exchange
  // for strict descent inside, so check the reference field without the
  // patch (skipping the row[t] = 0 anchor's edges) — and that the oracle's
  // row IS that field with the patch applied.
  const auto g = make_grid2d(9, 9);
  const LandmarkOracle approx(g, with_k(4));
  const NodeId target = 40;
  const auto pure = reference_field(g, approx, target, 0);
  for (const auto& [u, v] : g.edge_list()) {
    if (u == target || v == target) continue;
    const auto du = pure[u];
    const auto dv = pure[v];
    ASSERT_LE(du > dv ? du - dv : dv - du, 1u)
        << "edge (" << u << ", " << v << ")";
  }
  EXPECT_TRUE(*approx.distances_to(target) ==
              reference_field(g, approx, target));
}

TEST(LandmarkOracle, IsDeterministicAndReportsExactFalse) {
  const auto g = make_grid2d(10, 8);
  const LandmarkOracle a(g, with_k(6));
  const LandmarkOracle b(g, with_k(6));
  EXPECT_FALSE(a.exact());
  ASSERT_EQ(a.num_landmarks(), 6u);
  EXPECT_TRUE(std::equal(a.landmarks().begin(), a.landmarks().end(),
                         b.landmarks().begin(), b.landmarks().end()));
  for (NodeId t = 0; t < g.num_nodes(); t += 11) {
    ASSERT_TRUE(*a.distances_to(t) == *b.distances_to(t));
  }
}

TEST(LandmarkOracle, SelectionsDiffer) {
  // Degree selection picks hubs; farthest spreads out. On a star-ish graph
  // the first landmark is the hub either way, but on a grid the two
  // traversals pick different sets past the seed.
  const auto g = make_grid2d(10, 10);
  const LandmarkOracle by_degree(g, with_k(8, LandmarkSelection::kDegree));
  const LandmarkOracle farthest(g, with_k(8, LandmarkSelection::kFarthest));
  ASSERT_EQ(by_degree.num_landmarks(), 8u);
  ASSERT_EQ(farthest.num_landmarks(), 8u);
  const auto d = by_degree.landmarks();
  const auto f = farthest.landmarks();
  EXPECT_FALSE(std::equal(d.begin(), d.end(), f.begin(), f.end()));
}

TEST(LandmarkOracle, RowsStoredAtNaturalWidth) {
  // Landmark rows take the narrowest width holding every landmark's
  // eccentricity; the field reads the same at any width.
  const auto grid = make_grid2d(12, 10);
  EXPECT_EQ(LandmarkOracle(grid, with_k(6)).landmark_width(), DistWidth::kU8);
  // A star hub in the middle of a 400-node path: the seed landmark (the
  // hub) has eccentricity under 255, but the next one (a path end) does
  // not, so selection saturates u8 at the second row and retries at u16.
  auto edges = make_path(400).edge_list();
  for (NodeId leaf = 400; leaf < 410; ++leaf) edges.emplace_back(200, leaf);
  const Graph broom(410, std::move(edges));
  for (const auto selection :
       {LandmarkSelection::kFarthest, LandmarkSelection::kDegree}) {
    const LandmarkOracle oracle(broom, with_k(4, selection));
    EXPECT_EQ(oracle.landmark_width(), DistWidth::kU16);
    EXPECT_EQ(oracle.num_landmarks(), 4u);
    if (selection == LandmarkSelection::kFarthest) {
      EXPECT_EQ(oracle.landmarks()[0], 200u);  // the hub seeds the traversal
    }
    for (const NodeId t : {NodeId{0}, NodeId{200}, NodeId{399}, NodeId{405}}) {
      EXPECT_TRUE(*oracle.distances_to(t) == reference_field(broom, oracle, t))
          << "target " << t;
    }
  }
  // Past u16: a path longer than 65535 nodes stores u32 rows.
  const auto long_path = make_path(70000);
  const LandmarkOracle wide(long_path, with_k(2));
  EXPECT_EQ(wide.landmark_width(), DistWidth::kU32);
  EXPECT_TRUE(*wide.distances_to(12345) ==
              reference_field(long_path, wide, 12345));
}

TEST(LandmarkOracle, KClampsToNodeCountAndFullCoverIsExact) {
  // k >= n: every node is a landmark, so the bound collapses to the truth.
  const auto g = make_cycle(12);
  const LandmarkOracle approx(g, with_k(64));
  EXPECT_EQ(approx.num_landmarks(), 12u);
  const DistanceMatrix exact(g);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    ASSERT_TRUE(*approx.distances_to(t) == *exact.distances_to(t));
  }
}

TEST(LandmarkOracle, MoreLandmarksNeverWorsenTheBound) {
  const auto g = make_grid2d(14, 9);
  const LandmarkOracle coarse(g, with_k(2));
  const LandmarkOracle fine(g, with_k(16));
  const NodeId target = 100;
  const auto loose = coarse.distances_to(target);
  const auto tight = fine.distances_to(target);
  // Farthest selection grows the landmark set monotonically (same seed,
  // same traversal), so the k=16 min includes every k=2 term.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_LE((*tight)[u], (*loose)[u]) << "u=" << u;
  }
}

TEST(LandmarkOracle, RowCacheHitsAndMisses) {
  const auto g = make_grid2d(12, 12);
  const LandmarkOracle approx(g, with_k(4));
  ASSERT_EQ(approx.capacity(), LandmarkOracle::kRowCacheSlots);
  (void)approx.distances_to(1);
  (void)approx.distances_to(1);
  // kRowCacheSlots further targets fill the LRU and evict target 1.
  for (NodeId t = 2; t < 2 + LandmarkOracle::kRowCacheSlots; ++t) {
    (void)approx.distances_to(t);
  }
  (void)approx.distances_to(1);  // re-materialises
  EXPECT_EQ(approx.misses(), LandmarkOracle::kRowCacheSlots + 2);
  EXPECT_EQ(approx.hits(), 1u);
}

TEST(LandmarkOracle, PrefetchWaveMatchesPerTargetRows) {
  // Landmark waves ride the shared cache's batched prefetch: duplicates
  // share one row, residents are bumped rather than recomputed, and every
  // row equals the per-target row and the reference field. Hit/miss
  // accounting matches a plain TargetDistanceCache fed the same calls.
  const auto g = make_grid2d(12, 10);
  const LandmarkOracle approx(g, with_k(6));
  const LandmarkOracle single(g, with_k(6));
  TargetDistanceCache exact(g, LandmarkOracle::kRowCacheSlots);
  (void)approx.distances_to(30);  // resident before the wave
  (void)exact.distances_to(30);
  const std::vector<NodeId> wave = {7, 30, 7, 99, 30, 64, 99, 7};
  std::vector<DistVecPtr> rows;
  approx.prefetch_into(wave, rows);
  std::vector<DistVecPtr> exact_rows;
  exact.prefetch_into(wave, exact_rows);
  ASSERT_EQ(rows.size(), wave.size());
  for (std::size_t i = 0; i < wave.size(); ++i) {
    EXPECT_TRUE(*rows[i] == *single.distances_to(wave[i])) << "slot " << i;
    EXPECT_TRUE(*rows[i] == reference_field(g, approx, wave[i]))
        << "slot " << i;
  }
  EXPECT_EQ(approx.misses(), exact.misses());
  EXPECT_EQ(approx.hits(), exact.hits());
  EXPECT_EQ(approx.misses(), 4u);  // 30 before the wave; 7, 99, 64 in it
  EXPECT_EQ(approx.hits(), 5u);    // resident 30 once + four duplicates
  EXPECT_TRUE(rows[0] == rows[2] && rows[0] == rows[7]);  // one shared pin
  EXPECT_TRUE(rows[1] == approx.peek(30));  // the resident row, not a copy
}

TEST(LandmarkOracle, RejectsDegenerateOptions) {
  const auto g = make_cycle(8);
  EXPECT_THROW((void)LandmarkOracle(g, with_k(0)), std::invalid_argument);
}

TEST(LandmarkOracle, RoutersTerminateOnTheApproximateField) {
  // The field stalls greedy descent at local minima (classically: AT a
  // landmark, where no neighbour improves the bound); exact()-aware routers
  // must return cleanly — reached or not — rather than abort on the broken
  // strict-descent invariant. 40 random pairs exercise plenty of stalls.
  const auto g = make_grid2d(16, 16);
  const LandmarkOracle approx(g, with_k(8));
  const core::UniformScheme scheme(g);
  const routing::GreedyRouter greedy(g, approx);
  const routing::LookaheadRouter lookahead(g, approx, 1);
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng rng(trial);
    const auto s = static_cast<NodeId>(rng.next_below(g.num_nodes()));
    auto t = static_cast<NodeId>(rng.next_below(g.num_nodes() - 1));
    if (t >= s) ++t;
    const auto got = greedy.route(s, t, &scheme, Rng(7 + trial));
    const auto deep = lookahead.route(s, t, &scheme, Rng(7 + trial));
    if (got.reached) EXPECT_GT(got.steps, 0u);
    if (deep.reached) EXPECT_GT(deep.steps, 0u);
  }
  // A pair starting inside the exact patch ball must arrive: the overlay
  // makes the field strictly descending there.
  const auto near = greedy.route(1, 0, &scheme, Rng(99));
  EXPECT_TRUE(near.reached);
  EXPECT_EQ(near.steps, 1u);
}

}  // namespace
}  // namespace nav::graph
