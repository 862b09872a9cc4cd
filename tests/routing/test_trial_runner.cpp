#include "routing/trial_runner.hpp"

#include <gtest/gtest.h>

#include "core/scheme_factory.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/generators.hpp"
#include "support/service_trials.hpp"
#include "support/trial_reference.hpp"

namespace nav::routing {
namespace {

TEST(EstimatePair, NoSchemeIsExactDistance) {
  const auto g = graph::make_path(50);
  graph::DistanceMatrix oracle(g);
  const auto est = service_pair_estimate(g, nullptr, oracle, 5, 45, 8, Rng(1));
  EXPECT_DOUBLE_EQ(est.mean_steps, 40.0);
  EXPECT_DOUBLE_EQ(est.ci_halfwidth, 0.0);
  EXPECT_EQ(est.distance, 40u);
  EXPECT_DOUBLE_EQ(est.mean_long_links, 0.0);
}

TEST(EstimatePair, UniformHelpsOnLongPath) {
  const auto g = graph::make_path(1024);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const auto est =
      service_pair_estimate(g, &scheme, oracle, 0, 1023, 24, Rng(2));
  EXPECT_LT(est.mean_steps, 400.0);  // far below the 1023 baseline
  EXPECT_GT(est.mean_long_links, 0.0);
}

TEST(EstimatePair, DeterministicGivenRng) {
  const auto g = graph::make_path(256);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const auto a = service_pair_estimate(g, &scheme, oracle, 0, 255, 16, Rng(7));
  const auto b = service_pair_estimate(g, &scheme, oracle, 0, 255, 16, Rng(7));
  EXPECT_DOUBLE_EQ(a.mean_steps, b.mean_steps);
  EXPECT_DOUBLE_EQ(a.max_steps, b.max_steps);
}

TEST(EstimatePair, ParallelEqualsSequential) {
  const auto g = graph::make_cycle(512);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  const auto par =
      service_pair_estimate(g, &scheme, oracle, 0, 200, 32, Rng(3));
  const auto seq = estimate_pair_reference(GreedyRouter(g, oracle), &scheme, 0,
                                           200, 32, Rng(3));
  EXPECT_DOUBLE_EQ(par.mean_steps, seq.mean_steps);
}

TEST(EstimatePair, JobLayoutMatchesSequentialReference) {
  // bench_e2's layout (replicate r on rng.child(r), routed as one
  // RouteService batch) against the one-route-at-a-time reference: every
  // field of the estimate agrees bit for bit.
  Rng build(11);
  for (const auto& [family, g] :
       {std::pair{"path", graph::make_path(300)},
        std::pair{"grid", graph::make_grid2d(12, 12)},
        std::pair{"comb", graph::make_comb(16, 15)}}) {
    graph::TargetDistanceCache oracle(g, 4);
    const GreedyRouter router(g, oracle);
    const NodeId t = g.num_nodes() - 1;
    for (const auto* spec : {"uniform", "ball", "ml"}) {
      const auto scheme = core::make_scheme(spec, g, build);
      const auto got =
          service_pair_estimate(g, scheme.get(), oracle, 0, t, 40, Rng(12));
      const auto want =
          estimate_pair_reference(router, scheme.get(), 0, t, 40, Rng(12));
      const std::string where = std::string(family) + "/" + spec;
      EXPECT_EQ(got.s, want.s) << where;
      EXPECT_EQ(got.t, want.t) << where;
      EXPECT_EQ(got.distance, want.distance) << where;
      EXPECT_EQ(got.mean_steps, want.mean_steps) << where;
      EXPECT_EQ(got.ci_halfwidth, want.ci_halfwidth) << where;
      EXPECT_EQ(got.max_steps, want.max_steps) << where;
      EXPECT_EQ(got.mean_long_links, want.mean_long_links) << where;
      EXPECT_GT(got.mean_long_links, 0.0) << where;
    }
  }
}

TEST(GreedyDiameter, AllPairsOnTinyGraph) {
  const auto g = graph::make_path(6);
  graph::DistanceMatrix oracle(g);
  TrialConfig config;
  config.policy = TrialConfig::PairPolicy::kAllPairs;
  config.resamples = 2;
  const auto est = service_greedy_diameter(g, nullptr, oracle, config, Rng(4));
  EXPECT_EQ(est.pairs.size(), 30u);  // 6*5 ordered pairs
  EXPECT_DOUBLE_EQ(est.max_mean_steps, 5.0);  // diameter of P6
}

TEST(GreedyDiameter, PeripheralPairIncluded) {
  const auto g = graph::make_path(64);
  graph::DistanceMatrix oracle(g);
  TrialConfig config;
  config.num_pairs = 4;
  config.resamples = 2;
  const auto est = service_greedy_diameter(g, nullptr, oracle, config, Rng(5));
  EXPECT_EQ(est.pairs.size(), 4u + 2u);
  // The peripheral pair dominates: its distance is the diameter 63.
  EXPECT_DOUBLE_EQ(est.max_mean_steps, 63.0);
}

TEST(GreedyDiameter, RandomPolicyOnlyRandomPairs) {
  const auto g = graph::make_cycle(32);
  graph::DistanceMatrix oracle(g);
  TrialConfig config;
  config.policy = TrialConfig::PairPolicy::kRandom;
  config.num_pairs = 7;
  config.resamples = 2;
  const auto est = service_greedy_diameter(g, nullptr, oracle, config, Rng(6));
  EXPECT_EQ(est.pairs.size(), 7u);
}

TEST(GreedyDiameter, MaxAtLeastMean) {
  const auto g = graph::make_grid2d(8, 8);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  TrialConfig config;
  config.num_pairs = 6;
  config.resamples = 6;
  const auto est =
      service_greedy_diameter(g, &scheme, oracle, config, Rng(7));
  EXPECT_GE(est.max_mean_steps, est.overall_mean_steps);
  EXPECT_EQ(est.trials, (6u + 2u) * 6u);
}

TEST(GreedyDiameter, DeterministicAcrossRuns) {
  const auto g = graph::make_cycle(128);
  graph::DistanceMatrix oracle(g);
  core::UniformScheme scheme(g);
  TrialConfig config;
  config.num_pairs = 5;
  config.resamples = 5;
  const auto a = service_greedy_diameter(g, &scheme, oracle, config, Rng(8));
  const auto b = service_greedy_diameter(g, &scheme, oracle, config, Rng(8));
  EXPECT_DOUBLE_EQ(a.max_mean_steps, b.max_mean_steps);
  EXPECT_DOUBLE_EQ(a.overall_mean_steps, b.overall_mean_steps);
}

TEST(GreedyDiameter, RequiresRoutableGraph) {
  graph::Graph tiny(1, {});
  graph::DistanceMatrix oracle(tiny);
  TrialConfig config;
  EXPECT_THROW(
      service_greedy_diameter(tiny, nullptr, oracle, config, Rng(9)),
      std::invalid_argument);
}

}  // namespace
}  // namespace nav::routing
