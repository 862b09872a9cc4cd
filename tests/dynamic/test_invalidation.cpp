// test_invalidation.cpp — the correctness contract of DynamicOracle:
// incremental invalidation serves rows bit-identical to the full-flush
// reference AND to a cold rebuild, across graph families × churn rates and
// both storage backends; the tightness test provably retains rows a flush
// would drop; and the 16-bit watermark survives >2^16 mutations through the
// defensive wrap flush. The closed-loop TrafficDriver contract ("churn:0"
// reproduces open-loop routes bit for bit) rides along, since it is the
// end-to-end face of the same invariant.
#include "dynamic/invalidation.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "api/route_service.hpp"
#include "core/scheme_factory.hpp"
#include "dynamic/mutation_stream.hpp"
#include "graph/families.hpp"
#include "routing/router_factory.hpp"
#include "workload/traffic_driver.hpp"
#include "workload/workload.hpp"

namespace nav::dynamic {
namespace {

using graph::Dist;

// An oracle-free reference: BFS from scratch on the current CSR.
graph::DistVecPtr cold_row(const Graph& g, NodeId target) {
  graph::TargetDistanceCache fresh(g, 1);
  return fresh.distances_to(target);
}

bool rows_equal(const graph::DistVecPtr& a, const graph::DistVecPtr& b) {
  return *a == *b;
}

struct DifferentialOutcome {
  InvalidationStats incremental;
  InvalidationStats full_flush;
};

// Drives one (family, churn) cell: the same mutation trajectory applied to
// two DynamicGraphs, one watched by a kIncremental oracle and one by the
// kFullFlush reference. Every step, probe rows from both are compared
// against each other and against a cold rebuild.
DifferentialOutcome run_differential(const std::string& family,
                                     const std::string& churn_spec,
                                     DynamicOracle::Backend backend,
                                     NodeId n = 256) {
  Rng graph_rng_a(0x1D);
  Rng graph_rng_b(0x1D);
  DynamicGraph dyn_inc(graph::family(family).make(n, graph_rng_a));
  DynamicGraph dyn_flush(graph::family(family).make(n, graph_rng_b));

  DynamicOracle::Options inc_options;
  inc_options.mode = DynamicOracle::Mode::kIncremental;
  inc_options.backend = backend;
  DynamicOracle oracle_inc(dyn_inc, inc_options);

  DynamicOracle::Options flush_options;
  flush_options.mode = DynamicOracle::Mode::kFullFlush;
  flush_options.backend = backend;
  DynamicOracle oracle_flush(dyn_flush, flush_options);

  auto stream = make_mutation_stream(churn_spec);
  const std::vector<NodeId> probes = {0, static_cast<NodeId>(n / 3),
                                      static_cast<NodeId>(n / 2),
                                      static_cast<NodeId>(n - 1)};
  // Warm both oracles so there are resident rows to invalidate or retain.
  for (const auto target : probes) {
    (void)oracle_inc.distances_to(target);
    (void)oracle_flush.distances_to(target);
  }

  for (int step = 0; step < 8; ++step) {
    Rng rng = Rng(0xD1FF).child(step);
    const auto batch = stream->step(dyn_inc, rng);
    const auto delta = dyn_inc.apply(batch);
    // Replaying the *effective* events keeps the twin bit-identical even
    // though churn sampled against dyn_inc's state.
    const auto twin = dyn_flush.apply(delta.events);
    EXPECT_EQ(twin.events.size(), delta.events.size());

    for (const auto target : probes) {
      const auto row_inc = oracle_inc.distances_to(target);
      const auto row_flush = oracle_flush.distances_to(target);
      const auto row_cold = cold_row(dyn_inc.graph(), target);
      EXPECT_TRUE(rows_equal(row_inc, row_flush))
          << family << " " << churn_spec << " step " << step << " target "
          << target;
      EXPECT_TRUE(rows_equal(row_inc, row_cold))
          << family << " " << churn_spec << " step " << step << " target "
          << target;
    }
  }
  return {oracle_inc.stats(), oracle_flush.stats()};
}

class InvalidationDifferential
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(InvalidationDifferential, MatchesFullFlushAndColdRebuild) {
  const auto& [family, churn] = GetParam();
  for (const auto backend :
       {DynamicOracle::Backend::kMatrix, DynamicOracle::Backend::kCache}) {
    const auto outcome = run_differential(family, churn, backend);
    EXPECT_EQ(outcome.incremental.mutations_seen,
              outcome.full_flush.mutations_seen);
    // The reference drops everything each mutation; the tightness test must
    // never invalidate more than that.
    EXPECT_LE(outcome.incremental.targets_invalidated,
              outcome.full_flush.targets_invalidated);
    EXPECT_EQ(outcome.full_flush.targets_retained, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesTimesChurn, InvalidationDifferential,
    ::testing::Combine(::testing::Values("torus2d", "gnp", "random_regular"),
                       ::testing::Values("churn:1", "churn:4")),
    [](const auto& info) {
      auto name = std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (auto& c : name) {
        if (c == ':') c = '_';
      }
      return name;
    });

TEST(Invalidation, TightnessRetainsRowsAFlushWouldDrop) {
  // A long cycle plus one far-away chord: rows for targets near node 0 have
  // both chord endpoints on equal BFS levels only rarely, so slack events
  // exist and retention is observable. churn:1 over many steps guarantees
  // some slack event hits a resident row.
  const auto outcome = run_differential("torus2d", "churn:1",
                                        DynamicOracle::Backend::kMatrix, 1024);
  EXPECT_GT(outcome.incremental.targets_retained, 0u);
  EXPECT_LT(outcome.incremental.targets_invalidated,
            outcome.full_flush.targets_invalidated);
}

TEST(Invalidation, TightnessTestDecodesNarrowSentinels) {
  // A u16 row whose finite entries reach max_finite (0xFFFE) next to the
  // sentinel (0xFFFF, unreachable). Read raw, the pair would differ by 1;
  // decoded, the unreachable endpoint is kInfDist. Adding the edge bridges
  // the node into t's component, so the row changes and must be dropped.
  using graph::DistWidth;
  const std::vector<std::uint16_t> stored = {0, 0xFFFE, 0xFFFF, 0xFFFF,
                                             0xFFFD};
  const graph::DistRow row(stored.data(), stored.size(), DistWidth::kU16);
  ASSERT_EQ(row[1], graph::max_finite(DistWidth::kU16));
  ASSERT_EQ(row[2], graph::kInfDist);
  using Op = EdgeMutation::Op;
  EXPECT_TRUE(DynamicOracle::event_affects_row({Op::kAddEdge, 1, 2}, row));
  EXPECT_FALSE(DynamicOracle::event_affects_row({Op::kRemoveEdge, 1, 2}, row));
  // Both endpoints unreachable: a foreign-component edge, retained.
  EXPECT_FALSE(DynamicOracle::event_affects_row({Op::kAddEdge, 2, 3}, row));
  EXPECT_FALSE(DynamicOracle::event_affects_row({Op::kRemoveEdge, 2, 3}, row));
  // Finite neighbours at the top of the range behave as at any level.
  EXPECT_TRUE(DynamicOracle::event_affects_row({Op::kRemoveEdge, 1, 4}, row));
  EXPECT_FALSE(DynamicOracle::event_affects_row({Op::kAddEdge, 1, 4}, row));
}

TEST(Invalidation, FailStreamDisconnectionStaysExact) {
  // Heavy one-shot failure can disconnect the graph: rows must agree with
  // the cold rebuild including kInfDist entries.
  const auto outcome = run_differential("random_tree", "fail:0.3",
                                        DynamicOracle::Backend::kCache, 128);
  EXPECT_GE(outcome.incremental.mutations_seen, 1u);
}

TEST(Invalidation, WatermarkSurvivesEpochWraparound) {
  // >2^16 effective mutations on a tiny cycle: toggle one chord back and
  // forth. The 16-bit generation must wrap at least once, the defensive
  // wrap flush must fire, and rows must still match a cold rebuild after.
  constexpr NodeId n = 32;
  Rng graph_rng(3);
  DynamicGraph dyn(graph::family("cycle").make(n, graph_rng));
  DynamicOracle::Options options;
  options.backend = DynamicOracle::Backend::kMatrix;
  DynamicOracle oracle(dyn, options);
  (void)oracle.distances_to(0);

  const std::uint16_t watermark_before = oracle.watermark();
  constexpr int kSteps = (1 << 16) + 64;
  for (int i = 0; i < kSteps; ++i) {
    const EdgeMutation toggle{i % 2 == 0 ? EdgeMutation::Op::kAddEdge
                                         : EdgeMutation::Op::kRemoveEdge,
                              0, n / 2};
    const auto delta = dyn.apply({&toggle, 1});
    ASSERT_FALSE(delta.empty());
  }

  const auto stats = oracle.stats();
  EXPECT_EQ(stats.mutations_seen, static_cast<std::uint64_t>(kSteps));
  EXPECT_GE(stats.wrap_flushes, 1u);
  // 64 extra steps past the wrap: the generation counter went round.
  EXPECT_LT(oracle.watermark(), watermark_before + 1000u);

  for (const NodeId target : {NodeId{0}, NodeId{7}, NodeId{n - 1}}) {
    EXPECT_TRUE(rows_equal(oracle.distances_to(target),
                           cold_row(dyn.graph(), target)))
        << "target " << target;
  }
}

TEST(Invalidation, ClosedLoopChurnZeroMatchesOpenLoopBitForBit) {
  // TrafficDriver's dynamic mode collects each batch before the mutation
  // point (closed loop). With a mutation-free stream the routed results
  // must equal the open-loop run exactly — same demand, same rng streams,
  // same routes.
  const NodeId n = 400;
  auto make_report = [&](bool closed_loop) {
    Rng graph_rng(0x5eed);
    DynamicGraph dyn(graph::family("torus2d").make(n, graph_rng));
    const Graph& g = dyn.graph();
    DynamicOracle oracle(dyn);
    Rng scheme_rng(0x5eed);
    const auto scheme = core::make_scheme("ball", g, scheme_rng);
    const auto router = routing::make_router("greedy", g, oracle);
    api::RouteServiceOptions options;
    api::RouteService service(g, oracle, scheme.get(), *router, options);
    const auto demand = workload::make_workload("zipf:1.1", g, Rng(11));
    workload::TrafficOptions traffic;
    traffic.batches = 4;
    traffic.batch_size = 32;
    traffic.keep_results = true;
    auto stream = make_mutation_stream("churn:0");
    if (closed_loop) {
      traffic.dynamic_graph = &dyn;
      traffic.mutations = stream.get();
    }
    workload::TrafficDriver driver(service, *demand, traffic);
    return driver.run(Rng(17));
  };

  const auto open = make_report(false);
  const auto closed = make_report(true);
  ASSERT_EQ(open.results.size(), closed.results.size());
  EXPECT_EQ(closed.mutation_events, 0u);
  EXPECT_EQ(closed.final_epoch, 0u);
  for (std::size_t b = 0; b < open.results.size(); ++b) {
    ASSERT_EQ(open.results[b].size(), closed.results[b].size()) << b;
    for (std::size_t r = 0; r < open.results[b].size(); ++r) {
      const auto& lhs = open.results[b][r];
      const auto& rhs = closed.results[b][r];
      EXPECT_EQ(lhs.steps, rhs.steps) << b << ":" << r;
      EXPECT_EQ(lhs.long_links_used, rhs.long_links_used) << b << ":" << r;
      EXPECT_EQ(lhs.initial_distance, rhs.initial_distance) << b << ":" << r;
      EXPECT_EQ(lhs.reached, rhs.reached) << b << ":" << r;
    }
  }
}

}  // namespace
}  // namespace nav::dynamic
