// test_resilient_service.cpp — graceful degradation through RouteService:
// the bounded-retry loop converges on transient faults (the chaos
// acceptance bar: every batch completes, >= 95% of pairs non-failed), the
// fallback chain routes through a degraded oracle when retries run out,
// fetch_wave walks that ladder on its own, without a service, stalled
// (exact()=false) rows flow through submit()'s prefetch waves with
// reached == false reported rather than thrown, and the virtual-time
// Shed/Adaptive admission paths are deterministic, structured, and
// bit-identical across same-seed runs.
#include "api/route_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "graph/generators.hpp"
#include "graph/oracle_factory.hpp"
#include "resilience/fault_spec.hpp"
#include "resilience/faulty_oracle.hpp"
#include "routing/router_factory.hpp"

namespace nav::api {
namespace {

using Pair = std::pair<graph::NodeId, graph::NodeId>;

std::vector<Pair> mixed_pairs(graph::NodeId n, std::size_t count,
                              std::size_t distinct_targets,
                              std::uint64_t seed) {
  std::vector<Pair> pairs;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = static_cast<graph::NodeId>(i % distinct_targets);
    auto s = static_cast<graph::NodeId>(random_index(rng, n));
    if (s == t) s = (s + 1) % n;
    pairs.emplace_back(s, t);
  }
  return pairs;
}

/// One full faulted serving stack over a shared engine: the faulty oracle,
/// a posture-matched router, and the service. Fresh per run so the fault
/// schedule's attempt counters replay from zero.
struct FaultedStack {
  FaultedStack(const NavigationEngine& engine, const std::string& oracle_spec,
               RouteServiceOptions options = {})
      : oracle(graph::make_oracle(oracle_spec, engine.graph())),
        router(routing::make_router("greedy", engine.graph(), *oracle)),
        service(engine.graph(), *oracle, engine.scheme(), *router,
                std::move(options)) {}

  std::unique_ptr<graph::DistanceOracle> oracle;
  routing::RouterPtr router;
  RouteService service;
};

TEST(ResilientService, ChaosBatchCompletesWithMostPairsServed) {
  // The acceptance bar: under fail:0.05 + stall:0.05 every batch completes
  // with zero uncaught exceptions and >= 95% of pairs non-failed.
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  const auto pairs = mixed_pairs(400, 256, 48, 0xC0);
  RouteServiceOptions options;
  options.tolerate_unreachable = true;
  FaultedStack stack(engine, "faulty:cache:16:fail:0.05:stall:0.05:seed:5",
                     options);

  const auto report = stack.service.route_batch(pairs, Rng(42));
  ASSERT_EQ(report.results.size(), pairs.size());
  ASSERT_EQ(report.status.size(), pairs.size());
  EXPECT_EQ(report.exact_pairs + report.degraded_pairs + report.failed_pairs,
            pairs.size());
  // >= 95% non-failed (exact or degraded).
  EXPECT_GE((report.exact_pairs + report.degraded_pairs) * 20,
            pairs.size() * 19);
  // fail:0.05 over 48 distinct targets virtually guarantees retry work.
  EXPECT_GT(report.retries, 0u);
  // The tallies land in queue_stats() too.
  const auto stats = stack.service.queue_stats();
  EXPECT_EQ(stats.retries, report.retries);
  EXPECT_EQ(stats.degraded_pairs, report.degraded_pairs);
  EXPECT_EQ(stats.failed_pairs, report.failed_pairs);
}

TEST(ResilientService, SameSeedChaosRunsAreBitIdentical) {
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  const auto pairs = mixed_pairs(400, 128, 32, 0xD1);
  const auto run = [&] {
    RouteServiceOptions options;
    options.tolerate_unreachable = true;
    FaultedStack stack(engine, "faulty:cache:16:fail:0.1:stall:0.1:seed:9",
                       options);
    return stack.service.route_batch(pairs, Rng(7));
  };
  const auto a = run();
  const auto b = run();
  // Fault schedule, retry counts, fallback decisions, and every per-pair
  // status and route must replay bit for bit from a fresh stack.
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.fallback_pairs, b.fallback_pairs);
  ASSERT_EQ(a.status, b.status);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].steps, b.results[i].steps) << i;
    EXPECT_EQ(a.results[i].reached, b.results[i].reached) << i;
    EXPECT_EQ(a.results[i].initial_distance, b.results[i].initial_distance)
        << i;
  }
}

TEST(ResilientService, FallbackChainRoutesThroughTheLandmarkTier) {
  // fail:1.0 exhausts every retry; the landmark fallback tier then serves
  // every pair as kDegraded — none failed, none thrown.
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  const auto fallback_oracle =
      graph::make_oracle("landmark:8", engine.graph());
  const auto fallback_router =
      routing::make_router("greedy", engine.graph(), *fallback_oracle);
  RouteServiceOptions options;
  options.resilience.fallback_oracle = fallback_oracle.get();
  options.resilience.fallback_router = fallback_router.get();
  FaultedStack stack(engine, "faulty:cache:16:fail:1.0", options);

  const auto pairs = mixed_pairs(400, 32, 8, 0xE2);
  const auto report = stack.service.route_batch(pairs, Rng(3));
  EXPECT_EQ(report.exact_pairs, 0u);
  EXPECT_EQ(report.degraded_pairs, pairs.size());
  EXPECT_EQ(report.failed_pairs, 0u);
  EXPECT_EQ(report.fallback_pairs, pairs.size());
  // One wave, kMaxRetries rounds of futile retry.
  EXPECT_EQ(report.retries, nav::api::ResilienceOptions::kMaxRetries);
  for (const auto status : report.status) {
    EXPECT_EQ(status, DegradationStatus::kDegraded);
  }
  EXPECT_GT(stack.service.queue_stats().fallback_pairs, 0u);
}

TEST(ResilientService, ToleratedFaultsReportFailedPairs) {
  // No fallback tier, tolerate_unreachable: dead targets surface as per-pair
  // kFailed results (reached = false) instead of a thrown batch.
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  RouteServiceOptions options;
  options.tolerate_unreachable = true;
  FaultedStack stack(engine, "faulty:cache:16:fail:1.0", options);

  const auto pairs = mixed_pairs(400, 12, 3, 0xA4);
  const auto report = stack.service.route_batch(pairs, Rng(5));
  EXPECT_EQ(report.failed_pairs, pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(report.status[i], DegradationStatus::kFailed) << i;
    EXPECT_FALSE(report.results[i].reached) << i;
    EXPECT_EQ(report.results[i].initial_distance, graph::kInfDist) << i;
    EXPECT_EQ(report.results[i].steps, 0u) << i;
  }
  EXPECT_EQ(stack.service.queue_stats().failed_pairs, pairs.size());
}

TEST(ResilientService, WithoutToleranceOrFallbackTheBatchThrows) {
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  FaultedStack stack(engine, "faulty:cache:16:fail:1.0");
  const auto pairs = mixed_pairs(400, 8, 2, 0xB5);
  EXPECT_THROW((void)stack.service.route_batch(pairs, Rng(6)),
               resilience::TransientOracleError);
}

TEST(ResilientService, StalledRowsFlowThroughSubmitPrefetchWaves) {
  // Satellite: the exact()=false stall machinery through the service.
  // stall:1.0 widens every row; the router (built over the faulty oracle)
  // latches the stall-tolerant posture, submit()'s prefetch waves carry the
  // widened rows, and whatever stalls comes back reached == false — counted
  // as degraded, never thrown.
  // 600 distinct targets: two waves of at most kMaxPinnedTargets per batch.
  auto engine = NavigationEngine::from_family("grid2d", 1024);
  engine.use_scheme("uniform");
  FaultedStack stack(engine, "faulty:matrix:stall:1.0:seed:2");
  ASSERT_FALSE(stack.oracle->exact());

  const auto pairs = mixed_pairs(1024, 1200, 600, 0xC6);
  ASSERT_GT(600u, RouteService::kMaxPinnedTargets);
  auto future = stack.service.submit(
      std::vector<Pair>(pairs.begin(), pairs.end()), Rng(11));
  const auto via_submit = future.get();  // must not throw
  ASSERT_EQ(via_submit.size(), pairs.size());

  // Stall membership is attempt-independent, so the same stack's synchronous
  // path replays identically — submit()'s waves changed nothing.
  const auto report = stack.service.route_batch(pairs, Rng(11));
  std::size_t unreached = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(via_submit[i].steps, report.results[i].steps) << i;
    EXPECT_EQ(via_submit[i].reached, report.results[i].reached) << i;
    if (!via_submit[i].reached) ++unreached;
  }
  // Unreached-but-executed pairs are the degraded ones.
  EXPECT_EQ(report.degraded_pairs, unreached);
  EXPECT_EQ(report.exact_pairs, pairs.size() - unreached);
  EXPECT_EQ(report.failed_pairs, 0u);
}

TEST(ResilientService, StalledFieldReportsUnreachedNotThrown) {
  // A field with no descent anywhere (constant distance everywhere except
  // the target itself) stalls greedy immediately: every far pair must come
  // back reached == false through the full prefetch path.
  static constexpr graph::Dist kFlat = 5;
  class FlatOracle final : public graph::DistanceOracle {
   public:
    explicit FlatOracle(std::size_t n) : n_(n) {}
    [[nodiscard]] bool exact() const noexcept override { return false; }
    [[nodiscard]] graph::Dist distance(
        graph::NodeId u, graph::NodeId target) const override {
      return u == target ? 0 : kFlat;
    }
    [[nodiscard]] graph::DistVecPtr distances_to(
        graph::NodeId target) const override {
      std::shared_ptr<graph::Dist[]> row(new graph::Dist[n_]);
      for (std::size_t u = 0; u < n_; ++u) {
        row[u] = (u == target) ? 0 : kFlat;
      }
      std::shared_ptr<const graph::Dist> alias(row, row.get());
      return {std::move(alias), n_};
    }

   private:
    std::size_t n_;
  };

  const auto g = graph::make_grid2d(10, 10);
  FlatOracle flat(g.num_nodes());
  const auto router = routing::make_router("greedy", g, flat);
  RouteService service(g, flat, nullptr, *router);
  // Far pairs: no neighbour of the source ever improves the flat bound.
  const std::vector<Pair> pairs = {{0, 99}, {9, 90}, {0, 55}};
  const auto report = service.route_batch(pairs, Rng(13));
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_FALSE(report.results[i].reached) << i;
    EXPECT_EQ(report.status[i], DegradationStatus::kDegraded) << i;
  }
  EXPECT_EQ(report.degraded_pairs, pairs.size());
}

TEST(ResilientService, VirtualShedCarriesStructuredContext) {
  // Virtual-time Shed is a pure function of arrival times and batch sizes:
  // with cost 2^-7 s/pair, batch 0 (16 pairs) occupies the server until
  // vtime 0.125, so batches 1 and 2 (same arrival) age 0.125 > 0.1 and shed
  // — batch 1 with 16 pairs still queued behind it. (Dyadic cost: every
  // virtual instant is exactly representable, so the equalities are exact.)
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::shed(0.1);
  options.virtual_pair_cost_seconds = 0.0078125;
  RouteService shed_service(engine.graph(), engine.oracle(), engine.scheme(),
                            engine.router(), options);
  const auto pairs = mixed_pairs(400, 16, 4, 0xD7);

  shed_service.pause();
  std::vector<std::future<std::vector<routing::RouteResult>>> futures;
  for (int b = 0; b < 3; ++b) {
    futures.push_back(shed_service.submit(
        std::vector<Pair>(pairs.begin(), pairs.end()), Rng(b), 0.0));
  }
  shed_service.resume();

  EXPECT_EQ(futures[0].get().size(), pairs.size());
  bool caught = false;
  // shared_future keeps the state (and so the ShedError) alive until the
  // handler is done reading it; see TrafficDriver::run.
  const auto shed = futures[1].share();
  try {
    (void)shed.get();
  } catch (const ShedError& e) {
    caught = true;
    EXPECT_EQ(e.reason(), ShedError::Reason::kDeadline);
    EXPECT_DOUBLE_EQ(e.waited_seconds(), 0.125);
    EXPECT_EQ(e.batch_pairs(), 16u);
    EXPECT_EQ(e.queue_depth_pairs(), 16u);  // batch 2 still behind it
  }
  EXPECT_TRUE(caught);
  EXPECT_THROW((void)futures[2].get(), ShedError);
  const auto stats = shed_service.queue_stats();
  EXPECT_EQ(stats.shed_batches, 2u);
  EXPECT_EQ(stats.shed_pairs, 32u);
  EXPECT_EQ(stats.rejected_batches, 0u);
}

TEST(ResilientService, AdaptiveAdmissionIsDeterministic) {
  // All six batches arrive at vtime 0. Batch 0 is admitted into an idle
  // server (backlog 0), costs 32 * 2^-7 = 0.25 s of virtual work, and
  // breaches the 0.05 s SLO — the window halves from 64 to 32. Every later
  // batch then sees backlog 32 + its own 32 > 32 and is rejected. The whole
  // story must replay identically from a fresh service.
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  const auto pairs = mixed_pairs(400, 32, 8, 0xE8);
  struct Outcome {
    std::vector<bool> rejected;
    std::vector<double> sojourns;
    QueueStats stats;
  };
  const auto run = [&] {
    RouteServiceOptions options;
    options.admission = AdmissionPolicy::adaptive(0.05);
    options.virtual_pair_cost_seconds = 0.0078125;
    RouteService service(engine.graph(), engine.oracle(), engine.scheme(),
                         engine.router(), options);
    service.pause();
    std::vector<std::future<std::vector<routing::RouteResult>>> futures;
    for (int b = 0; b < 6; ++b) {
      futures.push_back(service.submit(
          std::vector<Pair>(pairs.begin(), pairs.end()), Rng(b), 0.0));
    }
    service.resume();
    Outcome out;
    for (auto& future : futures) {
      // Held across the handler, as in VirtualShedCarriesStructuredContext.
      const auto done = future.share();
      try {
        (void)done.get();
        out.rejected.push_back(false);
      } catch (const ShedError& e) {
        EXPECT_EQ(e.reason(), ShedError::Reason::kRejected);
        out.rejected.push_back(true);
      }
    }
    out.sojourns = service.virtual_sojourns();
    out.stats = service.queue_stats();
    return out;
  };

  const auto a = run();
  EXPECT_EQ(a.rejected,
            (std::vector<bool>{false, true, true, true, true, true}));
  ASSERT_EQ(a.sojourns.size(), 1u);
  EXPECT_DOUBLE_EQ(a.sojourns[0], 0.25);
  EXPECT_EQ(a.stats.rejected_batches, 5u);
  EXPECT_EQ(a.stats.rejected_pairs, 5u * 32u);
  EXPECT_EQ(a.stats.slo_breaches, 1u);
  EXPECT_EQ(a.stats.adaptive_window_pairs, 32u);
  EXPECT_EQ(a.stats.shed_batches, 0u);

  const auto b = run();
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.sojourns, b.sojourns);
  EXPECT_EQ(a.stats.rejected_pairs, b.stats.rejected_pairs);
  EXPECT_EQ(a.stats.slo_breaches, b.stats.slo_breaches);
  EXPECT_EQ(a.stats.adaptive_window_pairs, b.stats.adaptive_window_pairs);
}

TEST(ResilientService, AdaptiveWindowRecoversAdditively) {
  // Batches spaced a full service interval apart never queue: sojourn ==
  // 0.25 s < slo 0.5, so each served batch grows the window by
  // kAdaptiveIncreasePairs — AIMD's additive half.
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::adaptive(0.5);
  options.virtual_pair_cost_seconds = 0.0078125;
  RouteService service(engine.graph(), engine.oracle(), engine.scheme(),
                       engine.router(), options);
  const auto pairs = mixed_pairs(400, 32, 8, 0xF9);
  std::vector<std::future<std::vector<routing::RouteResult>>> futures;
  for (int b = 0; b < 3; ++b) {
    futures.push_back(service.submit(
        std::vector<Pair>(pairs.begin(), pairs.end()), Rng(b), b * 0.25));
  }
  for (auto& future : futures) EXPECT_EQ(future.get().size(), pairs.size());
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.slo_breaches, 0u);
  EXPECT_EQ(stats.rejected_batches, 0u);
  EXPECT_EQ(stats.adaptive_window_pairs, 64u + 3u * 16u);
  EXPECT_EQ(service.virtual_sojourns(),
            (std::vector<double>{0.25, 0.25, 0.25}));
}

TEST(ResilientService, AdaptivePolicyValidatesItsConfiguration) {
  auto engine = NavigationEngine::from_family("grid2d", 100);
  engine.use_scheme("uniform");
  // kAdaptive without a virtual pair cost can never observe a sojourn.
  RouteServiceOptions no_cost;
  no_cost.admission = AdmissionPolicy::adaptive(0.1);
  EXPECT_THROW(RouteService(engine.graph(), engine.oracle(), engine.scheme(),
                            engine.router(), no_cost),
               std::invalid_argument);
  EXPECT_THROW((void)AdmissionPolicy::adaptive(0.0), std::invalid_argument);
  EXPECT_THROW((void)AdmissionPolicy::adaptive(-1.0), std::invalid_argument);

  // Numeric options are validated at construction: a negative pair cost
  // would silently select the steady clock, a non-finite one poisons every
  // virtual instant.
  const auto build = [&](const RouteServiceOptions& options) {
    return RouteService(engine.graph(), engine.oracle(), engine.scheme(),
                        engine.router(), options);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {-1e-3, nan, inf}) {
    RouteServiceOptions cost;
    cost.virtual_pair_cost_seconds = bad;
    EXPECT_THROW(build(cost), std::invalid_argument) << bad;
  }
  // A fallback router without a fallback oracle would be silently unused.
  RouteServiceOptions router_only;
  router_only.resilience.fallback_router = &engine.router();
  EXPECT_THROW(build(router_only), std::invalid_argument);
}

TEST(ResilientService, VirtualTimeServiceRejectsPlainSubmit) {
  // The clock is fixed at construction: a virtual-time service admits only
  // batches that carry a virtual arrival, so a plain submit() can never
  // bypass the Adaptive window or age on the wrong clock under Shed.
  auto engine = NavigationEngine::from_family("grid2d", 100);
  engine.use_scheme("uniform");
  const std::vector<Pair> pairs = {{0, 99}, {5, 50}};
  RouteServiceOptions adaptive;
  adaptive.admission = AdmissionPolicy::adaptive(0.05);
  adaptive.virtual_pair_cost_seconds = 0.0078125;
  RouteServiceOptions virtual_shed;
  virtual_shed.admission = AdmissionPolicy::shed(0.1);
  virtual_shed.virtual_pair_cost_seconds = 0.0078125;
  for (const auto& options : {adaptive, virtual_shed}) {
    RouteService service(engine.graph(), engine.oracle(), engine.scheme(),
                         engine.router(), options);
    EXPECT_THROW((void)service.submit(pairs, Rng(1)), std::invalid_argument);
    EXPECT_EQ(service.queue_stats().submitted_batches, 0u);
    // The vtime path still serves.
    EXPECT_EQ(service.submit(pairs, Rng(1), 0.0).get().size(), pairs.size());
    EXPECT_EQ(service.virtual_sojourns().size(), 1u);
  }
  // A steady-time service ignores the virtual arrival it is handed.
  RouteService steady(engine.graph(), engine.oracle(), engine.scheme(),
                      engine.router());
  EXPECT_EQ(steady.submit(pairs, Rng(1), 123.0).get().size(), pairs.size());
  EXPECT_TRUE(steady.virtual_sojourns().empty());
}

TEST(ResilientService, VirtualArrivalMustBeFiniteAndNonDecreasing) {
  // A NaN arrival passes every admission comparison (each one is false) and
  // poisons the virtual server clock and the sojourn log; an earlier one
  // breaks FIFO-is-virtual-order. Both are refused at submit(), before the
  // batch is counted or queued.
  auto engine = NavigationEngine::from_family("grid2d", 100);
  engine.use_scheme("uniform");
  const std::vector<Pair> pairs = {{0, 99}, {5, 50}};
  RouteServiceOptions adaptive;
  adaptive.admission = AdmissionPolicy::adaptive(0.05);
  adaptive.virtual_pair_cost_seconds = 0.0078125;
  RouteServiceOptions virtual_shed;
  virtual_shed.admission = AdmissionPolicy::shed(0.1);
  virtual_shed.virtual_pair_cost_seconds = 0.0078125;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& options : {adaptive, virtual_shed}) {
    RouteService service(engine.graph(), engine.oracle(), engine.scheme(),
                         engine.router(), options);
    for (const double bad : {nan, inf, -inf}) {
      EXPECT_THROW((void)service.submit(pairs, Rng(1), bad),
                   std::invalid_argument)
          << bad;
    }
    EXPECT_EQ(service.submit(pairs, Rng(1), 1.0).get().size(), pairs.size());
    // A tie is in order; going back in time is not.
    EXPECT_EQ(service.submit(pairs, Rng(2), 1.0).get().size(), pairs.size());
    EXPECT_THROW((void)service.submit(pairs, Rng(3), 0.5),
                 std::invalid_argument);
    EXPECT_EQ(service.queue_stats().submitted_batches, 2u);
    EXPECT_EQ(service.virtual_sojourns(),
              (std::vector<double>{0.015625, 0.03125}));
  }
}

TEST(ResilientService, ShedErrorFormatsItsStructuredContext) {
  const ShedError shed(ShedError::Reason::kDeadline, 0.25, 32, 64);
  EXPECT_EQ(shed.reason(), ShedError::Reason::kDeadline);
  EXPECT_DOUBLE_EQ(shed.waited_seconds(), 0.25);
  EXPECT_EQ(shed.batch_pairs(), 32u);
  EXPECT_EQ(shed.queue_depth_pairs(), 64u);
  const std::string what = shed.what();
  EXPECT_NE(what.find("32 pairs"), std::string::npos);
  EXPECT_NE(what.find("shed"), std::string::npos);
  const ShedError rejected(ShedError::Reason::kRejected, 0.0, 8, 0);
  EXPECT_NE(std::string(rejected.what()).find("rejected"), std::string::npos);
}

}  // namespace
}  // namespace nav::api
