// test_traffic_driver.cpp — the load-driving contract: arrival schedules are
// deterministic virtual-time sequences, every admitted batch routes
// bit-identically to sequential routing, and admission policies observably
// block (Bounded) or shed (Shed) under saturating bursts.
#include "workload/traffic_driver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "api/engine.hpp"

namespace nav::workload {
namespace {

using api::AdmissionPolicy;
using api::NavigationEngine;
using api::RouteService;
using api::RouteServiceOptions;

NavigationEngine make_engine(graph::NodeId n = 400) {
  auto engine = NavigationEngine::from_family("grid2d", n);
  engine.use_scheme("uniform");
  return engine;
}

TEST(ArrivalSchedule, ParsesAndRejects) {
  const auto poisson = ArrivalSchedule::parse("poisson:2.5");
  EXPECT_EQ(poisson.kind, ArrivalSchedule::Kind::kPoisson);
  EXPECT_DOUBLE_EQ(poisson.rate, 2.5);
  const auto burst = ArrivalSchedule::parse("burst:4:0.125");
  EXPECT_EQ(burst.kind, ArrivalSchedule::Kind::kBurst);
  EXPECT_EQ(burst.burst_size, 4u);
  EXPECT_DOUBLE_EQ(burst.gap_seconds, 0.125);
  for (const auto* bad : {"steady", "poisson", "poisson:0", "poisson:x",
                          "poisson:inf", "burst:4", "burst:0:1", "burst:2:-1",
                          "burst:4:inf"}) {
    EXPECT_THROW((void)ArrivalSchedule::parse(bad), std::invalid_argument)
        << bad;
  }
}

TEST(ArrivalSchedule, BurstTimesAreGroupedAndGapped) {
  const auto schedule = ArrivalSchedule::parse("burst:3:0.5");
  const auto times = schedule.arrival_times(7, Rng(1));
  const std::vector<double> expected = {0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0};
  EXPECT_EQ(times, expected);
}

TEST(ArrivalSchedule, PoissonTimesAreDeterministicAndIncreasing) {
  const auto schedule = ArrivalSchedule::parse("poisson:10");
  const auto a = schedule.arrival_times(32, Rng(5));
  const auto b = schedule.arrival_times(32, Rng(5));
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // Mean gap should be in the right ballpark of 1/rate = 0.1s.
  EXPECT_GT(a.back(), 0.5);
  EXPECT_LT(a.back(), 10.0);
}

TEST(TrafficDriver, AdmittedBatchesRouteBitIdenticallyToSequential) {
  // The open-loop schedule, the submit() queue, and the service thread are
  // pure execution concerns: batch b still routes exactly like a standalone
  // route_batch(workload.batch(...), rng.child(0xB47).child(b)).results.
  const auto engine = make_engine();
  RouteService service(engine);
  const auto workload = engine.make_workload("hotset:6:0.7", 0xBEEF);
  TrafficOptions options;
  options.schedule = "burst:4:0.0";
  options.batches = 8;
  options.batch_size = 32;
  options.keep_results = true;
  TrafficDriver driver(service, *workload, options);
  const Rng rng(0xD21);
  const auto report = driver.run(rng);

  EXPECT_EQ(report.pairs_submitted, 8u * 32u);
  EXPECT_EQ(report.pairs_admitted, 8u * 32u);
  EXPECT_EQ(report.pairs_shed, 0u);
  EXPECT_EQ(report.hops.count, 8u * 32u);
  ASSERT_EQ(report.results.size(), 8u);

  // Reference: same demand stream, no queue, no service thread.
  const auto reference_workload = engine.make_workload("hotset:6:0.7", 0xBEEF);
  const RouteService reference(engine);
  Rng gen_rng = rng.child(0x6e4);
  for (std::size_t b = 0; b < 8; ++b) {
    const auto pairs = reference_workload->batch(32, gen_rng);
    const auto expected =
        reference.route_batch(pairs, rng.child(0xB47).child(b)).results;
    ASSERT_EQ(report.results[b].size(), expected.size()) << b;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(report.results[b][i].steps, expected[i].steps) << b;
      EXPECT_EQ(report.results[b][i].long_links_used,
                expected[i].long_links_used)
          << b;
      EXPECT_EQ(report.results[b][i].initial_distance,
                expected[i].initial_distance)
          << b;
    }
  }
}

TEST(TrafficDriver, BoundedAdmissionBlocksUnderSaturatingBurst) {
  // A paused service cannot drain, so once the first batch is queued every
  // further submit must block on the bound; a delayed resume() then lets the
  // run complete. Proves backpressure engages (blocked_submits, peak depth)
  // and that blocking never changes a route (bit-identity vs reference).
  const auto engine = make_engine();
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::bounded(32);
  RouteService service(engine, options);
  const auto workload = engine.make_workload("zipf:1.1", 0x2e);
  TrafficOptions traffic;
  traffic.schedule = "burst:6:0.0";  // everything arrives at once
  traffic.batches = 6;
  traffic.batch_size = 32;
  traffic.keep_results = true;
  TrafficDriver driver(service, *workload, traffic);

  service.pause();
  std::thread resumer([&service] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    service.resume();
  });
  const Rng rng(0xB0B);
  const auto report = driver.run(rng);
  resumer.join();

  // Batch 0 is admitted into the empty queue; while the service is paused,
  // batch 1's submit must wait (32 queued + 32 > 32) — backpressure was
  // observably engaged and the queue never exceeded the bound.
  EXPECT_GE(report.queue.blocked_submits, 1u);
  EXPECT_GE(report.queue.peak_queued_pairs, 32u);
  EXPECT_EQ(report.pairs_admitted, 6u * 32u);
  EXPECT_EQ(report.pairs_shed, 0u);

  const auto reference_workload = engine.make_workload("zipf:1.1", 0x2e);
  const RouteService reference(engine);
  Rng gen_rng = rng.child(0x6e4);
  for (std::size_t b = 0; b < 6; ++b) {
    const auto pairs = reference_workload->batch(32, gen_rng);
    const auto expected =
        reference.route_batch(pairs, rng.child(0xB47).child(b)).results;
    ASSERT_EQ(report.results[b].size(), expected.size()) << b;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(report.results[b][i].steps, expected[i].steps) << b;
    }
  }
}

TEST(TrafficDriver, ShedAdmissionDropsAgedBatchesInVirtualTime) {
  // Virtual-time shedding: the driver stamps every batch with its arrival
  // vtime, and with virtual_pair_cost_seconds set the deadline is evaluated
  // against the virtual backlog — a pure function of arrivals and batch
  // sizes, no pause/sleep choreography, deterministic on any machine. The
  // burst lands all four batches at vtime 0; batch 0 occupies the server
  // for 16 * 2^-7 = 0.125 virtual seconds, so batches 1-3 each age 0.125 >
  // 0.1 and shed.
  const auto engine = make_engine();
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::shed(0.1);
  options.virtual_pair_cost_seconds = 0.0078125;
  RouteService service(engine, options);
  const auto workload = engine.make_workload("uniform", 1);
  TrafficOptions traffic;
  traffic.schedule = "burst:4:0.0";
  traffic.batches = 4;
  traffic.batch_size = 16;
  TrafficDriver driver(service, *workload, traffic);
  const auto report = driver.run(Rng(0x5ed));

  EXPECT_EQ(report.pairs_admitted, 16u);
  EXPECT_EQ(report.pairs_shed, 3u * 16u);
  EXPECT_EQ(report.queue.shed_batches, 3u);
  EXPECT_EQ(report.hops.count, 16u);
  EXPECT_FALSE(report.batches[0].shed);
  for (std::size_t b = 1; b < 4; ++b) EXPECT_TRUE(report.batches[b].shed) << b;
  // The exact same run sheds the exact same batches.
  RouteService replay_service(engine, options);
  const auto replay_workload = engine.make_workload("uniform", 1);
  TrafficDriver replay(replay_service, *replay_workload, traffic);
  const auto again = replay.run(Rng(0x5ed));
  EXPECT_EQ(again.pairs_shed, report.pairs_shed);
  EXPECT_EQ(again.pairs_admitted, report.pairs_admitted);
}

TEST(TrafficDriver, SecondRunOnOneVirtualTimeServiceRepeatsTheFirst) {
  // Each run's arrivals start at the service's virtual horizon (past the
  // last arrival and the instant the virtual server frees), so a second
  // same-seed run on the same virtual-time service sees the same relative
  // schedule and admits and sheds exactly what the first did.
  const auto engine = make_engine();
  RouteServiceOptions options;
  options.admission = AdmissionPolicy::shed(0.1);
  options.virtual_pair_cost_seconds = 0.0078125;
  RouteService service(engine, options);
  const auto workload = engine.make_workload("uniform", 1);
  TrafficOptions traffic;
  traffic.schedule = "burst:4:0.25";
  traffic.batches = 8;
  traffic.batch_size = 16;
  traffic.keep_results = true;
  TrafficDriver driver(service, *workload, traffic);
  const auto first = driver.run(Rng(0x5ed));
  const double horizon = service.virtual_horizon();
  EXPECT_DOUBLE_EQ(horizon, 0.375);  // burst 2 arrives at 0.25, runs 0.125
  const auto second = driver.run(Rng(0x5ed));

  EXPECT_EQ(first.pairs_admitted, 2u * 16u);
  EXPECT_EQ(first.pairs_shed, 6u * 16u);
  EXPECT_EQ(second.pairs_admitted, first.pairs_admitted);
  EXPECT_EQ(second.pairs_shed, first.pairs_shed);
  EXPECT_EQ(second.queue.shed_batches, first.queue.shed_batches);
  ASSERT_EQ(second.batches.size(), first.batches.size());
  for (std::size_t b = 0; b < first.batches.size(); ++b) {
    EXPECT_EQ(second.batches[b].shed, first.batches[b].shed) << b;
    EXPECT_DOUBLE_EQ(second.batches[b].arrival_vtime,
                     first.batches[b].arrival_vtime + horizon)
        << b;
    ASSERT_EQ(second.results[b].size(), first.results[b].size()) << b;
    for (std::size_t i = 0; i < first.results[b].size(); ++i) {
      EXPECT_EQ(second.results[b][i].steps, first.results[b][i].steps) << b;
    }
  }
}

TEST(TrafficDriver, AdaptiveAdmissionReportsDeterministicSloVerdict) {
  // Overload through the AIMD controller: every batch arrives at vtime 0,
  // the first admitted batch breaches the 0.05 s SLO (32 pairs * 2^-7 s =
  // 0.25 s sojourn), the window halves, and the rest are rejected. The
  // report's adaptive block carries the virtual quantiles and the strict
  // p99_under_slo verdict, all replay-stable.
  const auto engine = make_engine();
  const auto run = [&] {
    RouteServiceOptions options;
    options.admission = AdmissionPolicy::adaptive(0.05);
    options.virtual_pair_cost_seconds = 0.0078125;
    RouteService service(engine, options);
    const auto workload = engine.make_workload("zipf:1.1", 0x77);
    TrafficOptions traffic;
    traffic.schedule = "burst:6:0.0";
    traffic.batches = 6;
    traffic.batch_size = 32;
    TrafficDriver driver(service, *workload, traffic);
    return driver.run(Rng(0xADA));
  };
  const auto report = run();
  EXPECT_TRUE(report.adaptive);
  EXPECT_DOUBLE_EQ(report.slo_seconds, 0.05);
  EXPECT_EQ(report.pairs_admitted, 32u);
  EXPECT_EQ(report.pairs_rejected, 5u * 32u);
  EXPECT_EQ(report.pairs_shed, 0u);
  EXPECT_EQ(report.queue.rejected_batches, 5u);
  EXPECT_EQ(report.queue.slo_breaches, 1u);
  EXPECT_FALSE(report.p99_under_slo);  // 250 ms p99 vs 50 ms SLO
  EXPECT_EQ(report.sojourn_v_ms.count, 1u);
  EXPECT_DOUBLE_EQ(report.sojourn_v_ms.p99, 250.0);
  EXPECT_EQ(report.queue.adaptive_window_pairs, 32u);
  EXPECT_FALSE(report.batches[0].rejected);
  EXPECT_TRUE(report.batches[1].rejected);
  // The jsonl row grows the adaptive columns only on adaptive runs, and the
  // verdict is replay-stable.
  const auto record = report.record();
  bool has_verdict = false;
  for (const auto& field : record) {
    if (field.key == "p99_under_slo") has_verdict = true;
  }
  EXPECT_TRUE(has_verdict);
  const auto again = run();
  EXPECT_EQ(again.pairs_rejected, report.pairs_rejected);
  EXPECT_EQ(again.queue.slo_breaches, report.queue.slo_breaches);
  EXPECT_EQ(again.p99_under_slo, report.p99_under_slo);
  EXPECT_DOUBLE_EQ(again.sojourn_v_ms.p99, report.sojourn_v_ms.p99);
}

TEST(TrafficDriver, ReportSummarisesQuantilesAndRendersTable) {
  const auto engine = make_engine();
  RouteService service(engine);
  const auto workload = engine.make_workload("local:4");
  TrafficOptions options;
  options.schedule = "poisson:1000";
  options.batches = 5;
  options.batch_size = 20;
  TrafficDriver driver(service, *workload, options);
  const auto report = driver.run(Rng(77));

  EXPECT_EQ(report.workload, "local:4");
  EXPECT_EQ(report.schedule, "poisson:1000");
  EXPECT_EQ(report.hops.count, 100u);
  EXPECT_GE(report.hops.p99, report.hops.p50);
  EXPECT_GE(report.hops.max, report.hops.p99);
  // local:4 pairs start at distance <= 4 and greedy strictly shrinks the
  // distance each hop, so every route is at most 4 hops. (Stretch may dip
  // below 1: a long link can cover several base-graph hops at once.)
  EXPECT_LE(report.hops.max, 4.0);
  EXPECT_GT(report.stretch.p50, 0.0);
  EXPECT_EQ(report.sojourn_ms.count, 5u);

  const auto table = report.table();
  EXPECT_EQ(table.rows(), 5u);
  const auto record = report.record();
  EXPECT_EQ(record[0].key, "workload");
  // The jsonl row and the table must agree on the batch count.
  EXPECT_EQ(std::get<std::uint64_t>(record[2].value), 5u);
}

TEST(TrafficDriver, FailedBatchDoesNotAbandonTheRun) {
  // A custom workload that emits one out-of-range pair in batch 1: that
  // batch's future fails with invalid_argument (not ShedError), the run
  // continues, and every other batch is still admitted and summarised.
  class BrokenWorkload final : public Workload {
   public:
    [[nodiscard]] std::string name() const override { return "broken"; }
    [[nodiscard]] Pair next(Rng& /*rng*/) override {
      ++draws_;
      if (draws_ == 12) return {0, 9999};  // lands in batch 1 of 8-pair batches
      return {0, 1};
    }

   private:
    std::size_t draws_ = 0;
  };

  const auto engine = make_engine(64);
  RouteService service(engine);
  BrokenWorkload workload;
  TrafficOptions options;
  options.batches = 4;
  options.batch_size = 8;
  TrafficDriver driver(service, workload, options);
  const auto report = driver.run(Rng(1));

  EXPECT_EQ(report.pairs_failed, 8u);
  EXPECT_EQ(report.pairs_admitted, 3u * 8u);
  EXPECT_EQ(report.pairs_shed, 0u);
  EXPECT_TRUE(report.batches[1].failed);
  EXPECT_FALSE(report.batches[0].failed);
  EXPECT_NE(report.table().to_ascii().find("failed"), std::string::npos);
}

TEST(TrafficDriver, NegativeShedDeadlineIsRejected) {
  EXPECT_THROW((void)AdmissionPolicy::shed(-1.0), std::invalid_argument);
}

TEST(TrafficDriver, RejectsDegenerateOptions) {
  const auto engine = make_engine(64);
  RouteService service(engine);
  const auto workload = engine.make_workload("uniform");
  TrafficOptions zero_batches;
  zero_batches.batches = 0;
  EXPECT_THROW(TrafficDriver(service, *workload, zero_batches),
               std::invalid_argument);
  TrafficOptions zero_size;
  zero_size.batch_size = 0;
  EXPECT_THROW(TrafficDriver(service, *workload, zero_size),
               std::invalid_argument);
  TrafficOptions bad_schedule;
  bad_schedule.schedule = "tsunami";
  EXPECT_THROW(TrafficDriver(service, *workload, bad_schedule),
               std::invalid_argument);
}

}  // namespace
}  // namespace nav::workload
