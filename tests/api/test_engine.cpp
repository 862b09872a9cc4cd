#include "api/engine.hpp"

#include <gtest/gtest.h>

#include "core/uniform_scheme.hpp"
#include "graph/generators.hpp"
#include "graph/landmark_oracle.hpp"

namespace nav::api {
namespace {

TEST(NavigationEngine, FromFamilyBuildsAndRoutes) {
  auto engine = NavigationEngine::from_family("path", 64);
  EXPECT_EQ(engine.graph().num_nodes(), 64u);
  EXPECT_EQ(engine.scheme(), nullptr);
  EXPECT_EQ(engine.router_spec(), "greedy");
  const auto result = engine.route(0, 63, Rng(1));
  EXPECT_TRUE(result.reached);
  EXPECT_EQ(result.steps, 63u);  // no scheme: pure shortest-path walk
}

TEST(NavigationEngine, OracleAutoSelectionRespectsLimit) {
  EngineOptions dense;
  dense.dense_oracle_limit = 128;
  auto small = NavigationEngine::from_family("cycle", 64, 0x5eed, dense);
  EXPECT_NE(dynamic_cast<const graph::DistanceMatrix*>(&small.oracle()),
            nullptr);
  auto large = NavigationEngine::from_family("cycle", 256, 0x5eed, dense);
  EXPECT_NE(dynamic_cast<const graph::TargetDistanceCache*>(&large.oracle()),
            nullptr);
}

TEST(NavigationEngine, UseSchemeAndRouterAreFluent) {
  auto engine = NavigationEngine::from_family("cycle", 128);
  engine.use_scheme("ball").use_router("lookahead:1");
  ASSERT_NE(engine.scheme(), nullptr);
  EXPECT_EQ(engine.scheme_spec(), "ball");
  EXPECT_EQ(engine.router_spec(), "lookahead:1");
  EXPECT_EQ(engine.router().name(), "lookahead:1");
  const auto result = engine.route(0, 64, Rng(2));
  EXPECT_TRUE(result.reached);
  EXPECT_LE(result.steps, 2u * 64u);
  engine.use_scheme("none");
  EXPECT_EQ(engine.scheme(), nullptr);
}

TEST(NavigationEngine, CustomSchemePtrInstalls) {
  auto engine = NavigationEngine::from_family("path", 32);
  engine.use_scheme(std::make_unique<core::UniformScheme>(engine.graph()));
  ASSERT_NE(engine.scheme(), nullptr);
  EXPECT_EQ(engine.scheme_spec(), "uniform");
}

TEST(NavigationEngine, CustomSchemeSizeMismatchRejected) {
  auto engine = NavigationEngine::from_family("path", 32);
  const auto other = graph::make_path(33);
  EXPECT_THROW(
      (void)engine.use_scheme(std::make_unique<core::UniformScheme>(other)),
      std::invalid_argument);
}

TEST(NavigationEngine, UnknownSpecsThrow) {
  auto engine = NavigationEngine::from_family("path", 32);
  EXPECT_THROW((void)engine.use_scheme("warp-drive"), std::invalid_argument);
  EXPECT_THROW((void)engine.use_router("warp-drive"), std::invalid_argument);
  EXPECT_THROW((void)NavigationEngine::from_family("not-a-family", 32),
               std::invalid_argument);
}

TEST(NavigationEngine, RouteManyMatchesSequentialRouting) {
  auto engine = NavigationEngine::from_family("grid2d", 256);
  engine.use_scheme("uniform");
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  Rng pair_rng(3);
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<graph::NodeId>(random_index(pair_rng, 256));
    auto t = static_cast<graph::NodeId>(random_index(pair_rng, 256));
    if (t == s) t = (t + 1) % 256;
    pairs.emplace_back(s, t);
  }
  const Rng batch_rng(4);
  const auto batch = engine.route_many(pairs, batch_rng);
  ASSERT_EQ(batch.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_TRUE(batch[i].reached);
    // Pair i derives from rng.child(i): thread schedule cannot matter.
    const auto serial =
        engine.route(pairs[i].first, pairs[i].second, batch_rng.child(i));
    EXPECT_EQ(batch[i].steps, serial.steps);
    EXPECT_EQ(batch[i].long_links_used, serial.long_links_used);
  }
}

TEST(NavigationEngine, RouteManyEmptyBatch) {
  auto engine = NavigationEngine::from_family("path", 16);
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> none;
  EXPECT_TRUE(engine.route_many(none, Rng(5)).empty());
}

TEST(NavigationEngine, EstimateDiameterTracksKnownValue) {
  // Without long links the greedy diameter of the path is exactly n - 1,
  // and the peripheral pair policy always samples the endpoints.
  auto engine = NavigationEngine::from_family("path", 100);
  routing::TrialConfig trials;
  trials.num_pairs = 2;
  trials.resamples = 2;
  const auto est = engine.estimate_diameter(trials, Rng(6));
  EXPECT_DOUBLE_EQ(est.max_mean_steps, 99.0);
}

TEST(NavigationEngine, OracleSpecSelectsBackend) {
  EngineOptions options;
  options.oracle_spec = "landmark:4";
  auto engine = NavigationEngine::from_family("grid2d", 256, 0x5eed, options);
  const auto* landmark =
      dynamic_cast<const graph::LandmarkOracle*>(&engine.oracle());
  ASSERT_NE(landmark, nullptr);
  EXPECT_EQ(landmark->num_landmarks(), 4u);
  // Stall-tolerant routing end to end: never aborts on the inexact field.
  for (std::uint64_t i = 0; i < 8; ++i) {
    (void)engine.route(static_cast<graph::NodeId>(i), 255, Rng(i));
  }
  EngineOptions bad;
  bad.oracle_spec = "btree";
  EXPECT_THROW((void)NavigationEngine::from_family("path", 32, 0, bad),
               std::invalid_argument);
}

TEST(NavigationEngine, LoadGraphReadsFileSpecs) {
  const std::string fixture = std::string(NAV_TEST_DATA_DIR) + "/karate.dimacs";
  // Bare paths and explicit "file:"/"dimacs:" specs all resolve.
  auto engine = NavigationEngine::load_graph(fixture);
  EXPECT_EQ(engine.graph().num_nodes(), 34u);
  EXPECT_EQ(engine.graph().num_edges(), 78u);
  auto spec_engine = NavigationEngine::load_graph("dimacs:" + fixture);
  EXPECT_EQ(spec_engine.graph().num_nodes(), 34u);
  const auto result = engine.route(0, 33, Rng(1));
  EXPECT_TRUE(result.reached);
  EXPECT_THROW((void)NavigationEngine::load_graph("/nonexistent_xyz/k.gr"),
               std::runtime_error);
}

TEST(NavigationEngine, EngineIsMovable) {
  auto engine = NavigationEngine::from_family("cycle", 64);
  engine.use_scheme("uniform").use_router("lookahead:1");
  auto moved = std::move(engine);
  const auto result = moved.route(0, 32, Rng(7));
  EXPECT_TRUE(result.reached);
  EXPECT_EQ(moved.graph().num_nodes(), 64u);
}

}  // namespace
}  // namespace nav::api
