#include "routing/router_factory.hpp"

#include <gtest/gtest.h>

#include "core/scheme_factory.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/generators.hpp"
#include "routing/greedy_router.hpp"
#include "routing/lookahead_router.hpp"

namespace nav::routing {
namespace {

TEST(RouterRegistry, UnknownSpecThrows) {
  const auto g = graph::make_path(16);
  graph::DistanceMatrix oracle(g);
  EXPECT_THROW((void)make_router("dijkstra", g, oracle),
               std::invalid_argument);
  EXPECT_THROW((void)make_router("", g, oracle), std::invalid_argument);
  EXPECT_THROW((void)make_router("lookahead", g, oracle),
               std::invalid_argument);
  EXPECT_THROW((void)make_router("lookahead:", g, oracle),
               std::invalid_argument);
  EXPECT_THROW((void)make_router("lookahead:two", g, oracle),
               std::invalid_argument);
  EXPECT_THROW((void)make_router("lookahead:-1", g, oracle),
               std::invalid_argument);
  // Depths past unsigned range must throw, not silently truncate to a
  // different router.
  EXPECT_THROW((void)make_router("lookahead:4294967296", g, oracle),
               std::invalid_argument);
  EXPECT_THROW((void)make_router("lookahead:99999999999999999999", g, oracle),
               std::invalid_argument);
}

TEST(RouterRegistry, MaximalDepthRoutesWithinItsBound) {
  // "lookahead:4294967295" is the largest depth the grammar admits. It used
  // to abort on the (1 + depth) * dist step bound, which wrapped in 32 bits,
  // and a scheme's contact chains were walked for all 2^32 - 1 links. Chains
  // now stop after n links (consistent contacts only revisit nodes past
  // that), so it routes exactly like depth n.
  const auto g = graph::make_cycle(64);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const auto extreme = make_router("lookahead:4294967295", g, oracle);
  const auto depth_n = make_router("lookahead:64", g, oracle);
  for (graph::NodeId t = 1; t < 64; t += 9) {
    const auto a = extreme->route(0, t, &scheme, Rng(t));
    const auto b = depth_n->route(0, t, &scheme, Rng(t));
    EXPECT_TRUE(a.reached);
    EXPECT_EQ(a.steps, b.steps) << "t=" << t;
    EXPECT_EQ(a.long_links_used, b.long_links_used) << "t=" << t;
  }
}

TEST(RouterRegistry, KnownSpecsBuild) {
  const auto g = graph::make_cycle(32);
  graph::DistanceMatrix oracle(g);
  EXPECT_EQ(make_router("greedy", g, oracle)->name(), "greedy");
  EXPECT_EQ(make_router("lookahead:1", g, oracle)->name(), "lookahead:1");
  EXPECT_EQ(make_router("lookahead:3", g, oracle)->name(), "lookahead:3");
  for (const auto& spec : standard_router_specs()) {
    EXPECT_NE(make_router(spec, g, oracle), nullptr) << spec;
  }
}

TEST(RouterRegistry, LookaheadDepthZeroEqualsGreedy) {
  // Depth 0 means "no awareness beyond your own link", i.e. the paper's
  // greedy process — the registry maps it to the same implementation, so
  // routes agree draw for draw.
  const auto g = graph::make_grid2d(12, 12);
  graph::DistanceMatrix oracle(g);
  const auto greedy = make_router("greedy", g, oracle);
  const auto depth0 = make_router("lookahead:0", g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(0xA0);
  for (int trial = 0; trial < 20; ++trial) {
    Rng trial_rng = rng.child(trial);
    const auto s = static_cast<graph::NodeId>(random_index(trial_rng, 144));
    auto t = static_cast<graph::NodeId>(random_index(trial_rng, 144));
    if (t == s) t = (t + 1) % 144;
    const auto a = greedy->route(s, t, &scheme, trial_rng.child(1), true);
    const auto b = depth0->route(s, t, &scheme, trial_rng.child(1), true);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.long_links_used, b.long_links_used);
    EXPECT_EQ(a.trace, b.trace);
  }
}

TEST(RouterRegistry, LookaheadRouteIsValidAndBounded) {
  const auto g = graph::make_path(256);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  for (const unsigned depth : {1u, 2u, 3u}) {
    const auto router =
        make_router("lookahead:" + std::to_string(depth), g, oracle);
    for (int trial = 0; trial < 10; ++trial) {
      const auto result = router->route(0, 255, &scheme, Rng(trial));
      EXPECT_TRUE(result.reached);
      // Each committed move drops the distance by >= 1 in <= 1 + depth hops.
      EXPECT_LE(result.steps, (1u + depth) * 255u);
    }
  }
}

TEST(RouterRegistry, DeeperLookaheadNoWorseOnAverage) {
  // More awareness can only shrink the NoN score of the chosen move; check
  // the measured averages line up that way (with generous slack, the claim
  // is statistical).
  const auto g = graph::make_path(1024);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  double mean[3] = {0, 0, 0};
  const int trials = 24;
  for (int d = 0; d < 3; ++d) {
    const auto router =
        make_router("lookahead:" + std::to_string(d), g, oracle);
    for (int trial = 0; trial < trials; ++trial) {
      mean[d] += router->route(0, 1023, &scheme, Rng(900 + trial)).steps;
    }
    mean[d] /= trials;
  }
  EXPECT_LT(mean[1], mean[0] * 1.10);
  EXPECT_LT(mean[2], mean[0] * 1.10);
}

TEST(RouterRegistry, SchemeSizeMismatchRejected) {
  const auto g = graph::make_path(8);
  const auto g2 = graph::make_path(9);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme wrong(g2);
  for (const auto* spec : {"greedy", "lookahead:1"}) {
    const auto router = make_router(spec, g, oracle);
    EXPECT_THROW((void)router->route(0, 7, &wrong, Rng(1)),
                 std::invalid_argument)
        << spec;
  }
}

TEST(RouterRegistry, RouterRngIsPrivatePerCall) {
  // Router::route takes its rng by value: two calls with the same stream
  // state replay the same augmentation draw.
  const auto g = graph::make_cycle(64);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  for (const auto* spec : {"greedy", "lookahead:1"}) {
    const auto router = make_router(spec, g, oracle);
    Rng rng(0x5eed);
    const auto a = router->route(0, 32, &scheme, rng, true);
    const auto b = router->route(0, 32, &scheme, rng, true);
    EXPECT_EQ(a.trace, b.trace) << spec;
  }
}

}  // namespace
}  // namespace nav::routing
