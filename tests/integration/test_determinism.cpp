// test_determinism.cpp — the reproducibility contract: one master seed
// determines every number, regardless of thread count or schedule.
#include <gtest/gtest.h>

#include "api/experiment.hpp"
#include "core/scheme_factory.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "support/service_trials.hpp"
#include "support/trial_reference.hpp"

namespace nav {
namespace {

TEST(Determinism, SweepIdenticalAcrossRuns) {
  const auto sweep = [] {
    return api::Experiment::on("cycle")
        .sizes({128, 256})
        .schemes({"uniform", "ball"})
        .pairs(4)
        .resamples(4)
        .seed(2024)
        .run();
  };
  const auto a = sweep();
  const auto b = sweep();
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cells[i].greedy_diameter, b.cells[i].greedy_diameter)
        << i;
    EXPECT_DOUBLE_EQ(a.cells[i].mean_steps, b.cells[i].mean_steps) << i;
  }
}

TEST(Determinism, PairEstimateIndependentOfParallelism) {
  const auto g = graph::make_path(512);
  graph::DistanceMatrix oracle(g);
  Rng rng(5);
  const auto scheme = core::make_scheme("ball", g, rng);
  // The production batch runs on the global pool at its width (NAV_WORKERS
  // in CI); the reference routes one replicate at a time.
  const auto par = routing::service_pair_estimate(g, scheme.get(), oracle, 0,
                                                  511, 24, Rng(6));
  const auto seq = routing::estimate_pair_reference(
      routing::GreedyRouter(g, oracle), scheme.get(), 0, 511, 24, Rng(6));
  EXPECT_DOUBLE_EQ(par.mean_steps, seq.mean_steps);
  EXPECT_DOUBLE_EQ(par.max_steps, seq.max_steps);
  EXPECT_DOUBLE_EQ(par.mean_long_links, seq.mean_long_links);
}

TEST(Determinism, RandomFamiliesReproducible) {
  for (const auto& fam : graph::all_families()) {
    Rng a(42), b(42);
    const auto g1 = fam.make(200, a);
    const auto g2 = fam.make(200, b);
    EXPECT_EQ(g1.edge_list(), g2.edge_list()) << fam.name;
  }
}

TEST(Determinism, SchemeSamplingReproducible) {
  const auto g = graph::make_grid2d(16, 16);
  Rng build(9);
  for (const auto& spec : {"uniform", "ml", "ball", "rank"}) {
    const auto scheme = core::make_scheme(spec, g, build);
    Rng r1(77), r2(77);
    for (int i = 0; i < 64; ++i) {
      const auto u = static_cast<graph::NodeId>(i % g.num_nodes());
      EXPECT_EQ(scheme->sample_contact(u, r1), scheme->sample_contact(u, r2))
          << spec;
    }
  }
}

}  // namespace
}  // namespace nav
