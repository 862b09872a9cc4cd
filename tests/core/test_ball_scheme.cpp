#include "core/ball_scheme.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph_io.hpp"
#include "runtime/thread_pool.hpp"
#include "support/bfs_reference.hpp"

namespace nav::core {
namespace {

TEST(BallScheme, LevelsDefaultToCeilLog2) {
  const auto g = graph::make_path(100);
  BallScheme scheme(g);
  EXPECT_EQ(scheme.levels(), 7u);  // ceil(log2 100)
  const auto g2 = graph::make_path(128);
  EXPECT_EQ(BallScheme(g2).levels(), 7u);
  const auto g3 = graph::make_path(129);
  EXPECT_EQ(BallScheme(g3).levels(), 8u);
}

TEST(BallScheme, ContactAlwaysInLargestBall) {
  const auto g = graph::make_path(64);
  BallScheme scheme(g);
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto c = scheme.sample_contact(10, rng);
    ASSERT_LT(c, 64u);
  }
}

TEST(BallScheme, ProbabilityFormulaMatchesPaper) {
  // φ_u(v) = (1/L) Σ_{k=r(v)}^{L} 1/|B_k(u)| — check against a hand
  // computation on the 9-node path, u = 4 (center), L = ceil(log2 9) = 4.
  const auto g = graph::make_path(9);
  BallScheme scheme(g);
  ASSERT_EQ(scheme.levels(), 4u);
  // Ball sizes from the center: r=2 -> 5, r=4 -> 9, r=8 -> 9, r=16 -> 9.
  const auto sizes = scheme.ball_sizes(4);
  EXPECT_EQ(sizes[1], 5u);
  EXPECT_EQ(sizes[2], 9u);
  EXPECT_EQ(sizes[3], 9u);
  EXPECT_EQ(sizes[4], 9u);
  // v at distance 1 (node 5): r(v) = 1 -> (1/4)(1/5 + 1/9 + 1/9 + 1/9).
  EXPECT_NEAR(scheme.probability(4, 5), 0.25 * (0.2 + 3.0 / 9.0), 1e-12);
  // v at distance 3 (node 7): r(v) = 2 -> (1/4)(3/9).
  EXPECT_NEAR(scheme.probability(4, 7), 0.25 * (3.0 / 9.0), 1e-12);
  // v = u: in every ball.
  EXPECT_NEAR(scheme.probability(4, 4), 0.25 * (0.2 + 3.0 / 9.0), 1e-12);
}

TEST(BallScheme, EmpiricalMatchesExact) {
  const auto g = graph::make_path(16);
  BallScheme scheme(g);
  Rng rng(3);
  constexpr int kDraws = 300000;
  std::map<graph::NodeId, int> counts;
  for (int i = 0; i < kDraws; ++i) ++counts[scheme.sample_contact(8, rng)];
  double total = 0.0;
  for (graph::NodeId v = 0; v < 16; ++v) {
    const double exact = scheme.probability(8, v);
    total += exact;
    EXPECT_NEAR(counts[v] / static_cast<double>(kDraws), exact, 0.01)
        << "contact " << v;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);  // the scheme always yields a contact
}

TEST(BallScheme, NearbyNodesMoreLikely) {
  const auto g = graph::make_path(256);
  BallScheme scheme(g);
  EXPECT_GT(scheme.probability(128, 129), scheme.probability(128, 200));
}

TEST(BallScheme, SymmetricOnVertexTransitiveGraphs) {
  const auto g = graph::make_cycle(32);
  BallScheme scheme(g);
  EXPECT_NEAR(scheme.probability(0, 5), scheme.probability(7, 12), 1e-12);
}

TEST(BallScheme, EccCacheDoesNotChangeDistribution) {
  // Sampling repeatedly (warming the whole-graph shortcut) must keep the
  // distribution intact: compare counts before/after many draws.
  const auto g = graph::make_star(20);
  BallScheme scheme(g);
  Rng rng(5);
  constexpr int kDraws = 100000;
  std::map<graph::NodeId, int> first, second;
  for (int i = 0; i < kDraws; ++i) ++first[scheme.sample_contact(0, rng)];
  for (int i = 0; i < kDraws; ++i) ++second[scheme.sample_contact(0, rng)];
  for (graph::NodeId v = 0; v < 20; ++v) {
    EXPECT_NEAR(first[v] / static_cast<double>(kDraws),
                second[v] / static_cast<double>(kDraws), 0.012)
        << v;
  }
}

TEST(BallScheme, GridBallGrowth) {
  const auto g = graph::make_grid2d(31, 31);
  BallScheme scheme(g);
  const graph::NodeId center = 15 * 31 + 15;
  const auto sizes = scheme.ball_sizes(center);
  // |B(u, 2^k)| = 2r^2+2r+1 for interior nodes.
  EXPECT_EQ(sizes[1], 13u);   // r=2
  EXPECT_EQ(sizes[2], 41u);   // r=4
  EXPECT_EQ(sizes[3], 145u);  // r=8
}

TEST(BallScheme, FixedLevelVariantSamplesOneRadius) {
  const auto g = graph::make_path(64);
  const auto fixed = BallScheme::make_fixed_level(g, 2);  // radius 4
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto c = fixed->sample_contact(32, rng);
    ASSERT_LT(c, 64u);
    EXPECT_LE(c >= 32 ? c - 32 : 32 - c, 4u);
  }
  EXPECT_EQ(fixed->name(), "ball-fixed-k2");
}

// ---- memoised ball sizes ----------------------------------------------------

/// The pre-memo sampling rule, rebuilt from the reference ball: a whole-graph
/// ball draws a node id, any other ball draws a position in BFS order.
NodeId reference_draw(const Graph& g, NodeId u, std::uint32_t k, Rng& rng) {
  const auto members = graph::ball_reference(g, u, graph::Dist{1} << k);
  if (members.size() == g.num_nodes()) return random_index(rng, g.num_nodes());
  return members[random_index(rng, members.size())];
}

/// A stream whose first sample_contact draws level k of an L-level scheme.
Rng stream_drawing_level(std::uint32_t levels, std::uint32_t k) {
  std::uint64_t seed = 0;
  while (Rng(seed).next_below(levels) != k - 1) ++seed;
  return Rng(seed);
}

/// Two paths of 8 nodes, {0..7} and {8..15}, loaded the way an edge list
/// with keep_largest_component = false keeps them. Ball radii 2^4 >= n.
Graph two_paths() {
  std::stringstream text;
  text << "nav-graph 1\nn 16\n";
  for (NodeId v = 0; v + 1 < 8; ++v) {
    text << v << ' ' << v + 1 << '\n' << v + 8 << ' ' << v + 9 << '\n';
  }
  return graph::load_edge_list(text, "two_paths",
                               {.keep_largest_component = false})
      .graph;
}

struct MemoCase {
  std::string name;
  Graph graph;
};

std::vector<MemoCase> memo_cases() {
  Rng rng(11);
  std::vector<MemoCase> cases;
  cases.push_back({"torus2d", graph::make_torus2d(12, 20)});
  // Sparse G(n, p): isolated nodes and small components exercise the
  // component-exhausted sizes as well as the disconnected-graph rule.
  cases.push_back({"gnp", graph::make_gnp(200, 0.012, rng)});
  cases.push_back({"grid2d", graph::make_grid2d(9, 23)});
  cases.push_back({"path", graph::make_path(100)});
  cases.push_back({"two_paths", two_paths()});
  return cases;
}

/// Warms `scheme` the way a RouteService does: every node draws contacts
/// from its own stream on a 4-lane pool, racing on the size table.
void warm_on_four_lanes(const AugmentationScheme& scheme, std::uint32_t draws) {
  ThreadPool pool(4);
  parallel_for(pool, 0, scheme.num_nodes(), [&](std::size_t u) {
    Rng rng(0x5eed + u);
    for (std::uint32_t i = 0; i < draws; ++i) {
      (void)scheme.sample_contact(static_cast<NodeId>(u), rng);
    }
  });
}

TEST(BallScheme, MemoisedDrawsMatchFreshAndReferenceDraws) {
  for (const auto& c : memo_cases()) {
    SCOPED_TRACE(c.name);
    const Graph& g = c.graph;
    const BallScheme warmed(g);
    const BallScheme fresh(g);
    warm_on_four_lanes(warmed, 4 * warmed.levels());
    std::size_t learned = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      const auto sizes = warmed.ball_sizes(u);
      for (std::uint32_t k = 1; k <= warmed.levels(); ++k) {
        const std::uint32_t got = warmed.learned_ball_size(u, k);
        if (got == 0) continue;
        ++learned;
        ASSERT_EQ(got, sizes[k]) << "racing lanes: u=" << u << " k=" << k;
      }
    }
    EXPECT_GT(learned, g.num_nodes());
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      Rng a(1000 + u);
      Rng b = a;
      Rng ref = a;
      for (int i = 0; i < 12; ++i) {
        const NodeId w = warmed.sample_contact(u, a);
        const NodeId f = fresh.sample_contact(u, b);
        const auto k = 1 + static_cast<std::uint32_t>(
                               ref.next_below(warmed.levels()));
        ASSERT_EQ(w, f) << "u=" << u << " draw " << i;
        ASSERT_EQ(w, reference_draw(g, u, k, ref)) << "u=" << u << " draw " << i;
      }
      const auto next = a();
      ASSERT_EQ(next, b()) << "streams diverged at u=" << u;
      ASSERT_EQ(next, ref()) << "streams diverged at u=" << u;
    }
  }
}

TEST(BallScheme, FixedLevelMemoisedDrawsMatchFreshAndReferenceDraws) {
  for (const auto& c : memo_cases()) {
    for (const std::uint32_t k : {1u, 3u, 5u}) {
      SCOPED_TRACE(c.name + " k=" + std::to_string(k));
      const Graph& g = c.graph;
      const auto warmed = BallScheme::make_fixed_level(g, k);
      const auto fresh = BallScheme::make_fixed_level(g, k);
      warm_on_four_lanes(*warmed, 2);
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        Rng a(77 + u);
        Rng b = a;
        Rng ref = a;
        for (int i = 0; i < 4; ++i) {
          const NodeId w = warmed->sample_contact(u, a);
          ASSERT_EQ(w, fresh->sample_contact(u, b)) << "u=" << u;
          ASSERT_EQ(w, reference_draw(g, u, k, ref)) << "u=" << u;
        }
      }
    }
  }
}

TEST(BallScheme, LearnedSizesEqualBallSizes) {
  for (const auto& c : memo_cases()) {
    SCOPED_TRACE(c.name);
    const Graph& g = c.graph;
    const NodeId n = g.num_nodes();
    const BallScheme scheme(g);
    const std::uint32_t levels = scheme.levels();
    // One draw per node at the largest radius that still runs a BFS (2^L
    // >= n is a uniform draw on connected graphs) learns every level below.
    const std::uint32_t top = graph::is_connected(g) ? levels - 1 : levels;
    const Rng pinned = stream_drawing_level(levels, top);
    for (NodeId u = 0; u < n; ++u) {
      for (std::uint32_t k = 1; k <= levels; ++k) {
        ASSERT_EQ(scheme.learned_ball_size(u, k), 0u);
      }
      Rng rng = pinned;
      (void)scheme.sample_contact(u, rng);
    }
    for (NodeId u = 0; u < n; ++u) {
      const auto sizes = scheme.ball_sizes(u);
      for (std::uint32_t k = 1; k <= levels; ++k) {
        // A ball that reached V also settles every larger level.
        const std::size_t expect =
            k <= top || sizes[top] == n ? sizes[k] : 0;
        ASSERT_EQ(scheme.learned_ball_size(u, k), expect)
            << "u=" << u << " k=" << k;
      }
    }
  }
}

TEST(BallScheme, DisconnectedGraphContactStaysInComponent) {
  // 2^k >= n no longer means B(u, 2^k) = V when G is disconnected (a graph
  // loaded with keep_largest_component = false): the contact must stay in
  // u's component at every level.
  const auto g = two_paths();
  ASSERT_FALSE(graph::is_connected(g));
  const BallScheme scheme(g);
  ASSERT_EQ(scheme.levels(), 4u);
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_LT(scheme.sample_contact(2, rng), 8u);
    ASSERT_GE(scheme.sample_contact(12, rng), 8u);
  }
  const auto fixed = BallScheme::make_fixed_level(g, 4);  // radius 16 >= n
  for (int i = 0; i < 2000; ++i) {
    ASSERT_LT(fixed->sample_contact(5, rng), 8u);
    ASSERT_GE(fixed->sample_contact(9, rng), 8u);
  }
  // The exact distribution agrees: nothing outside the component.
  EXPECT_EQ(scheme.probability(2, 12), 0.0);
  double total = 0.0;
  for (NodeId v = 0; v < 8; ++v) total += scheme.probability(2, v);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BallScheme, WorksOnSingleNode) {
  const auto g = graph::Graph(1, {});
  BallScheme scheme(g);
  Rng rng(1);
  EXPECT_EQ(scheme.sample_contact(0, rng), 0u);
}

}  // namespace
}  // namespace nav::core
