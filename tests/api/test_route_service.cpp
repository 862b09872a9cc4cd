// test_route_service.cpp — the batch engine's contract: target sharding and
// batch/wave splitting are pure execution concerns; every result bit matches
// sequential per-pair routing for the same seed.
#include "api/route_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "api/engine.hpp"
#include "graph/families.hpp"
#include "graph/oracle_factory.hpp"
#include "routing/router_factory.hpp"
#include "routing/trial_runner.hpp"
#include "support/trial_reference.hpp"

namespace nav::api {
namespace {

using Pair = std::pair<graph::NodeId, graph::NodeId>;

std::vector<Pair> mixed_target_pairs(graph::NodeId n, std::size_t count,
                                     std::size_t distinct_targets,
                                     std::uint64_t seed) {
  // Interleaved targets: the worst case for an LRU target cache, the best
  // case for target sharding.
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

void expect_same_results(const std::vector<routing::RouteResult>& a,
                         const std::vector<routing::RouteResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].steps, b[i].steps) << i;
    EXPECT_EQ(a[i].long_links_used, b[i].long_links_used) << i;
    EXPECT_EQ(a[i].initial_distance, b[i].initial_distance) << i;
    EXPECT_TRUE(a[i].reached) << i;
  }
}

TEST(RouteService, ShardedBatchBitIdenticalToSequentialRouting) {
  auto engine = NavigationEngine::from_family("grid2d", 400);
  engine.use_scheme("uniform");
  const auto pairs = mixed_target_pairs(engine.graph().num_nodes(), 64, 12, 1);
  const Rng rng(42);

  // Ground truth: one route per pair, request order, no service at all.
  std::vector<routing::RouteResult> expected;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected.push_back(engine.route(pairs[i].first, pairs[i].second,
                                    rng.child(i)));
  }

  const RouteService service(engine);
  expect_same_results(service.route_batch(pairs, rng).results, expected);
}

TEST(RouteService, BatchSplitDoesNotChangeResults) {
  // Splitting one batch into arbitrary sub-batches must not move any pair to
  // a different rng stream: route_jobs with explicit child indices glues the
  // halves back together bit for bit.
  auto engine = NavigationEngine::from_family("cycle", 512);
  engine.use_scheme("ball");
  const auto pairs = mixed_target_pairs(engine.graph().num_nodes(), 48, 7, 2);
  const Rng rng(7);
  const RouteService service(engine);
  const auto whole = service.route_batch(pairs, rng).results;

  for (const std::size_t split : {1u, 13u, 24u, 47u}) {
    std::vector<RouteJob> head, tail;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      auto& side = (i < split) ? head : tail;
      side.push_back({pairs[i].first, pairs[i].second, rng.child(i)});
    }
    auto glued = service.route_jobs(std::move(head)).results;
    const auto rest = service.route_jobs(std::move(tail)).results;
    glued.insert(glued.end(), rest.begin(), rest.end());
    expect_same_results(glued, whole);
  }
}

TEST(RouteService, ShardingCutsBfsChurnAtCacheOracleSizes) {
  // A small LRU + interleaved targets: per-pair order thrashes (every pair
  // misses), target shards pay exactly one BFS per distinct target — even
  // across several prefetch waves (600 targets > kMaxPinnedTargets),
  // because shards route through wave-pinned vectors instead of
  // re-querying the oracle.
  Rng graph_rng(3);
  const auto g = graph::family("grid2d").make(1024, graph_rng);
  for (const std::size_t distinct : {16u, 600u}) {
    const auto pairs = mixed_target_pairs(g.num_nodes(), 5 * distinct,
                                          distinct, 4);
    {
      // The per-pair baseline: one direct route per pair, request order.
      graph::TargetDistanceCache cache(g, 4);  // capacity << distinct
      const auto router = routing::make_router("greedy", g, cache);
      const Rng rng(5);
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        (void)router->route(pairs[i].first, pairs[i].second, nullptr,
                            rng.child(i));
      }
      EXPECT_GT(cache.misses(), 4 * distinct) << "distinct=" << distinct;
    }
    graph::TargetDistanceCache cache(g, 4);
    const auto router = routing::make_router("greedy", g, cache);
    const RouteService service(g, cache, nullptr, *router);
    (void)service.route_batch(pairs, Rng(5));
    EXPECT_EQ(cache.misses(), distinct) << "distinct=" << distinct;
  }
}

TEST(RouteService, WaveSplitDoesNotChangeResults) {
  // A batch over more distinct targets than one wave pins runs in several
  // prefetch waves; that schedule must not move a single bit against
  // routing the pairs one by one.
  auto engine = NavigationEngine::from_family("grid2d", 1024);
  engine.use_scheme("uniform");
  const auto pairs =
      mixed_target_pairs(engine.graph().num_nodes(), 1200, 600, 6);
  ASSERT_GT(600u, RouteService::kMaxPinnedTargets);
  const Rng rng(3);
  std::vector<routing::RouteResult> expected;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    expected.push_back(
        engine.route(pairs[i].first, pairs[i].second, rng.child(i)));
  }
  expect_same_results(RouteService(engine).route_batch(pairs, rng).results,
                      expected);
}

TEST(RouteService, UnreachablePairThrowsOnTheCallingThread) {
  // Two components: reachability is checked after the wave prefetch, before
  // the fan-out, so the throw reaches the caller (pool tasks are noexcept
  // by policy) — and a submit() future carries it instead of terminating.
  graph::Graph g(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  graph::DistanceMatrix oracle(g);
  const auto router = routing::make_router("greedy", g, oracle);
  RouteService service(g, oracle, nullptr, *router);
  const std::vector<Pair> cross = {{0, 2}, {0, 5}};
  EXPECT_THROW((void)service.route_batch(cross, Rng(1)),
               std::invalid_argument);
  auto future = service.submit(cross, Rng(1));
  EXPECT_THROW((void)future.get(), std::invalid_argument);
  // Same-component routing still works afterwards.
  EXPECT_EQ(service.route_batch(std::vector<Pair>{{3, 5}}, Rng(2))
                .results.at(0)
                .steps,
            2u);
}

TEST(RouteService, SubmitDeliversFailuresThroughTheFuture) {
  // A bad batch must fail its own future, not kill the service thread; the
  // queue keeps draining afterwards.
  auto engine = NavigationEngine::from_family("path", 64);
  RouteService service(engine);
  auto bad = service.submit({{0, 9999}}, Rng(1));  // target out of range
  auto good = service.submit({{0, 63}}, Rng(2));
  EXPECT_THROW((void)bad.get(), std::invalid_argument);
  EXPECT_EQ(good.get().at(0).steps, 63u);
  // "executed" means dequeued AND routed: the failed batch doesn't count.
  EXPECT_EQ(service.queue_stats().executed_batches, 1u);
  EXPECT_EQ(service.queue_stats().submitted_batches, 2u);
}

TEST(RouteService, EstimateDiameterMatchesTrialRunnerBitForBit) {
  // The Experiment rewiring contract: handed the trial_pairs selection, the
  // batched estimator must reproduce the sequential reference estimator
  // exactly — same child streams, same accumulation order.
  auto engine = NavigationEngine::from_family("grid2d", 256);
  engine.use_scheme("ml");
  routing::TrialConfig config;
  config.num_pairs = 6;
  config.resamples = 5;
  const Rng rng(0xbeef);

  const auto reference = routing::estimate_diameter_reference(
      engine.router(), engine.scheme(), config, rng);
  const auto batched = RouteService(engine).estimate_diameter(
      config, rng, routing::trial_pairs(engine.graph(), config, rng));

  EXPECT_DOUBLE_EQ(batched.max_mean_steps, reference.max_mean_steps);
  EXPECT_DOUBLE_EQ(batched.overall_mean_steps, reference.overall_mean_steps);
  EXPECT_DOUBLE_EQ(batched.max_ci_halfwidth, reference.max_ci_halfwidth);
  EXPECT_EQ(batched.trials, reference.trials);
  ASSERT_EQ(batched.pairs.size(), reference.pairs.size());
  for (std::size_t p = 0; p < reference.pairs.size(); ++p) {
    EXPECT_EQ(batched.pairs[p].s, reference.pairs[p].s);
    EXPECT_EQ(batched.pairs[p].t, reference.pairs[p].t);
    EXPECT_EQ(batched.pairs[p].distance, reference.pairs[p].distance);
    EXPECT_DOUBLE_EQ(batched.pairs[p].mean_steps,
                     reference.pairs[p].mean_steps);
    EXPECT_DOUBLE_EQ(batched.pairs[p].ci_halfwidth,
                     reference.pairs[p].ci_halfwidth);
    EXPECT_DOUBLE_EQ(batched.pairs[p].max_steps, reference.pairs[p].max_steps);
    EXPECT_DOUBLE_EQ(batched.pairs[p].mean_long_links,
                     reference.pairs[p].mean_long_links);
  }
}

TEST(RouteService, SubmitServesQueuedBatches) {
  auto engine = NavigationEngine::from_family("torus2d", 256);
  engine.use_scheme("uniform").use_router("lookahead:1");
  RouteService service(engine);

  std::vector<std::vector<Pair>> batches;
  std::vector<std::future<std::vector<routing::RouteResult>>> futures;
  for (std::uint64_t b = 0; b < 5; ++b) {
    batches.push_back(
        mixed_target_pairs(engine.graph().num_nodes(), 8 + 8 * b, 3 + b, b));
    futures.push_back(service.submit(batches.back(), Rng(b)));
  }
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto async_results = futures[b].get();
    expect_same_results(async_results,
                        service.route_batch(batches[b], Rng(b)).results);
  }
  // Every batch, queued or direct, runs the one execute path and lands in
  // its execution histogram.
  const auto scrape = service.metrics().scrape();
  const auto* exec_ms = scrape.find_histogram("route_service.exec_ms");
  ASSERT_NE(exec_ms, nullptr);
  EXPECT_EQ(exec_ms->total(), 10u);
  EXPECT_EQ(service.queue_stats().executed_batches, 5u);
}

TEST(RouteService, ReportsShardTelemetry) {
  auto engine = NavigationEngine::from_family("path", 128);
  const RouteService service(engine);
  const auto pairs = mixed_target_pairs(128, 30, 5, 9);
  const auto report = service.route_batch(pairs, Rng(1));
  EXPECT_EQ(report.results.size(), 30u);
  EXPECT_EQ(report.batch.pairs, 30u);
  EXPECT_EQ(report.batch.distinct_targets, 5u);
  EXPECT_GE(report.batch.seconds, 0.0);
  EXPECT_EQ(report.exact_pairs, 30u);
}

TEST(RouteService, EmptyBatch) {
  auto engine = NavigationEngine::from_family("path", 16);
  const RouteService service(engine);
  const auto report = service.route_batch(std::vector<Pair>{}, Rng(1));
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.batch.pairs, 0u);
  EXPECT_EQ(report.batch.distinct_targets, 0u);
}

TEST(RouteService, ExplicitPairsEstimateMatchesSelectingOverload) {
  // The workload-axis entry point: handing estimate_diameter the exact
  // trial_pairs selection must reproduce the selecting front end,
  // NavigationEngine::estimate_diameter, bit for bit (same per-pair child
  // streams, same accumulation).
  auto engine = NavigationEngine::from_family("grid2d", 196);
  engine.use_scheme("ball");
  routing::TrialConfig config;
  config.num_pairs = 5;
  config.resamples = 4;
  const Rng rng(0xF00D);
  const RouteService service(engine);

  Rng pair_rng = rng.child(0xA11);
  const auto pairs =
      routing::select_trial_pairs(engine.graph(), config, pair_rng);
  const auto explicit_estimate = service.estimate_diameter(config, rng, pairs);
  const auto selecting_estimate = engine.estimate_diameter(config, rng);

  EXPECT_DOUBLE_EQ(explicit_estimate.max_mean_steps,
                   selecting_estimate.max_mean_steps);
  EXPECT_DOUBLE_EQ(explicit_estimate.overall_mean_steps,
                   selecting_estimate.overall_mean_steps);
  ASSERT_EQ(explicit_estimate.pairs.size(), selecting_estimate.pairs.size());
  for (std::size_t p = 0; p < explicit_estimate.pairs.size(); ++p) {
    EXPECT_EQ(explicit_estimate.pairs[p].s, selecting_estimate.pairs[p].s);
    EXPECT_EQ(explicit_estimate.pairs[p].t, selecting_estimate.pairs[p].t);
    EXPECT_DOUBLE_EQ(explicit_estimate.pairs[p].mean_steps,
                     selecting_estimate.pairs[p].mean_steps);
  }
}

TEST(RouteService, QueueStatsTrackSubmissions) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteService service(engine);
  EXPECT_EQ(service.queue_stats().submitted_batches, 0u);
  auto f1 = service.submit({{0, 63}, {1, 63}}, Rng(1));
  auto f2 = service.submit({{2, 40}}, Rng(2));
  (void)f1.get();
  (void)f2.get();
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.submitted_pairs, 3u);
  EXPECT_EQ(stats.executed_batches, 2u);
  EXPECT_EQ(stats.shed_batches, 0u);
  // Both futures resolved: nothing can still be queued.
  EXPECT_EQ(stats.queued_batches, 0u);
  EXPECT_EQ(stats.queued_pairs, 0u);
  EXPECT_GE(stats.peak_queued_pairs, 1u);
}

/// Every QueueStats field equals its metric in a scrape of the quiescent
/// service's registry; a metric the service never registered is absent from
/// the scrape and its field reads 0.
void expect_stats_equal_scrape(const RouteService& service) {
  const auto stats = service.queue_stats();
  const auto snapshot = service.metrics().scrape();
  const auto scraped = [&](const char* name) -> std::size_t {
    if (const auto* c = snapshot.find_counter(name)) return c->value;
    if (const auto* g = snapshot.find_gauge(name)) {
      return static_cast<std::size_t>(g->value);
    }
    return 0;
  };
  EXPECT_EQ(stats.queued_batches, scraped("route_service.queued_batches"));
  EXPECT_EQ(stats.queued_pairs, scraped("route_service.queued_pairs"));
  EXPECT_EQ(stats.peak_queued_pairs,
            scraped("route_service.peak_queued_pairs"));
  EXPECT_EQ(stats.submitted_batches,
            scraped("route_service.submitted_batches"));
  EXPECT_EQ(stats.submitted_pairs, scraped("route_service.submitted_pairs"));
  EXPECT_EQ(stats.executed_batches,
            scraped("route_service.executed_batches"));
  EXPECT_EQ(stats.shed_batches, scraped("route_service.shed_batches"));
  EXPECT_EQ(stats.shed_pairs, scraped("route_service.shed_pairs"));
  EXPECT_EQ(stats.rejected_batches,
            scraped("route_service.rejected_batches"));
  EXPECT_EQ(stats.rejected_pairs, scraped("route_service.rejected_pairs"));
  EXPECT_EQ(stats.blocked_submits, scraped("route_service.blocked_submits"));
  EXPECT_EQ(stats.retries, scraped("resilience.retries"));
  EXPECT_EQ(stats.fallback_pairs, scraped("resilience.fallback_routes"));
  EXPECT_EQ(stats.degraded_pairs, scraped("resilience.degraded_pairs"));
  EXPECT_EQ(stats.failed_pairs, scraped("resilience.failed_pairs"));
  EXPECT_EQ(stats.slo_breaches, scraped("route_service.slo_breaches"));
  EXPECT_EQ(stats.adaptive_window_pairs,
            scraped("route_service.adaptive_window_pairs"));
}

TEST(RouteService, QueueStatsBitIdenticalToScrapedRegistry) {
  // queue_stats() is a view over the service registry: every field must
  // equal the corresponding route_service.* / resilience.* metric in a
  // scrape taken while the service is quiescent.
  auto engine = NavigationEngine::from_family("grid2d", 256);
  engine.use_scheme("uniform");
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::shed(/*deadline_seconds=*/60.0);
  RouteService service(engine, options);

  const auto pairs = mixed_target_pairs(engine.graph().num_nodes(), 24, 6, 9);
  auto f1 = service.submit(pairs, Rng(3));
  auto f2 = service.submit({{0, 100}, {1, 101}}, Rng(4));
  (void)f1.get();
  (void)f2.get();
  expect_stats_equal_scrape(service);
  // Sanity: the run actually moved the counters, and a fault-free Shed
  // service registers no adaptive or resilience metric.
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.submitted_pairs, 26u);
  const auto snapshot = service.metrics().scrape();
  EXPECT_EQ(snapshot.find_counter("route_service.rejected_batches"), nullptr);
  EXPECT_EQ(snapshot.find_counter("resilience.retries"), nullptr);

  // A faulted Adaptive service moves the rest: all six batches arrive at
  // vtime 0, the first is served over the SLO (a breach, the window halves)
  // and the other five are rejected; fail:1.0 exhausts every retry, so the
  // served batch goes to the fallback tier or, without one, fails per pair.
  const auto oracle =
      graph::make_oracle("faulty:cache:16:fail:1.0", engine.graph());
  const auto router = routing::make_router("greedy", engine.graph(), *oracle);
  const auto landmark = graph::make_oracle("landmark:4", engine.graph());
  const auto fallback =
      routing::make_router("greedy", engine.graph(), *landmark);
  for (const bool with_fallback : {true, false}) {
    RouteServiceOptions faulted;
    faulted.admission = AdmissionPolicy::adaptive(0.05);
    faulted.virtual_pair_cost_seconds = 0.0078125;
    faulted.tolerate_unreachable = true;
    if (with_fallback) {
      faulted.resilience.fallback_oracle = landmark.get();
      faulted.resilience.fallback_router = fallback.get();
    }
    RouteService adaptive(engine.graph(), *oracle, engine.scheme(), *router,
                          faulted);
    const auto batch = mixed_target_pairs(engine.graph().num_nodes(), 32, 8, 5);
    adaptive.pause();
    std::vector<std::future<std::vector<routing::RouteResult>>> futures;
    for (int b = 0; b < 6; ++b) {
      futures.push_back(adaptive.submit(batch, Rng(b), 0.0));
    }
    adaptive.resume();
    for (auto& future : futures) future.wait();
    expect_stats_equal_scrape(adaptive);
    const auto moved = adaptive.queue_stats();
    EXPECT_EQ(moved.executed_batches, 1u);
    EXPECT_EQ(moved.rejected_batches, 5u);
    EXPECT_EQ(moved.rejected_pairs, 5u * 32u);
    EXPECT_EQ(moved.slo_breaches, 1u);
    EXPECT_EQ(moved.adaptive_window_pairs,
              AdmissionPolicy::kAdaptiveStartPairs / 2);
    EXPECT_EQ(moved.retries, ResilienceOptions::kMaxRetries);
    EXPECT_EQ(moved.fallback_pairs, with_fallback ? 32u : 0u);
    EXPECT_EQ(moved.degraded_pairs, with_fallback ? 32u : 0u);
    EXPECT_EQ(moved.failed_pairs, with_fallback ? 0u : 32u);
  }
}

TEST(RouteService, PauseHoldsTheQueueAndResumeDrainsIt) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteService service(engine);
  service.pause();
  auto future = service.submit({{0, 63}}, Rng(1));
  // Paused: the batch must still be queued (dequeueing is frozen, so this
  // cannot race with the service thread).
  EXPECT_EQ(service.queue_stats().queued_batches, 1u);
  EXPECT_EQ(future.wait_for(std::chrono::milliseconds(20)),
            std::future_status::timeout);
  service.resume();
  EXPECT_EQ(future.get().at(0).steps, 63u);
  EXPECT_EQ(service.queue_stats().queued_batches, 0u);
}

TEST(RouteService, BoundedAdmissionBlocksProducersUntilRoomFrees) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::bounded(4);
  RouteService service(engine, options);
  service.pause();

  // Admitted into the empty queue even though it exceeds the bound — the
  // oversized-batch rule that keeps a single big batch serviceable.
  auto big = service.submit({{0, 9}, {1, 9}, {2, 9}, {3, 9}, {4, 9}, {5, 9}},
                            Rng(1));
  EXPECT_EQ(service.queue_stats().queued_pairs, 6u);

  // A second producer must block while the queue is over the bound; while
  // the service stays paused, its batch cannot be enqueued.
  std::promise<void> submitted;
  auto submitted_future = submitted.get_future();
  std::thread producer([&] {
    auto small = service.submit({{7, 20}}, Rng(2));
    submitted.set_value();
    (void)small.get();
  });
  EXPECT_EQ(submitted_future.wait_for(std::chrono::milliseconds(40)),
            std::future_status::timeout);
  EXPECT_EQ(service.queue_stats().queued_batches, 1u);

  service.resume();
  producer.join();
  (void)big.get();
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.blocked_submits, 1u);
  EXPECT_EQ(stats.submitted_batches, 2u);
  EXPECT_EQ(stats.executed_batches, 2u);
}

TEST(RouteService, ShedAdmissionFailsAgedFuturesWithShedError) {
  auto engine = NavigationEngine::from_family("path", 64);
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::shed(1e-6);
  RouteService service(engine, options);
  service.pause();
  auto stale = service.submit({{0, 63}}, Rng(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  service.resume();
  EXPECT_THROW((void)stale.get(), ShedError);
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.shed_batches, 1u);
  EXPECT_EQ(stats.shed_pairs, 1u);
  EXPECT_EQ(stats.executed_batches, 0u);

  // A generous deadline admits everything again: shedding is per batch, not
  // a poisoned state.
  RouteServiceOptions lenient;
  lenient.admission = AdmissionPolicy::shed(60.0);
  RouteService healthy(engine, lenient);
  auto fresh = healthy.submit({{0, 63}}, Rng(1));
  EXPECT_EQ(fresh.get().at(0).steps, 63u);
  EXPECT_EQ(healthy.queue_stats().shed_batches, 0u);
}

TEST(RouteService, SchemeSizeMismatchRejected) {
  Rng graph_rng(1);
  const auto g = graph::family("path").make(32, graph_rng);
  const auto other = graph::family("path").make(33, graph_rng);
  graph::DistanceMatrix oracle(g);
  const auto router = routing::make_router("greedy", g, oracle);
  Rng rng(2);
  const auto scheme = core::make_scheme("uniform", other, rng);
  EXPECT_THROW(RouteService(g, oracle, scheme.get(), *router),
               std::invalid_argument);
}

}  // namespace
}  // namespace nav::api
