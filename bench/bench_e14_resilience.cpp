// bench_e14_resilience.cpp — E14: serving under injected faults — the
// availability surface of the degraded-mode stack.
//
// Claim under test: navigability is robust not just to a stale augmentation
// (E13) but to a *faulty serving stack*: with deterministic fault injection
// (resilience::FaultSpec — seeded stall/fail/slow schedules), bounded
// retries plus a landmark fallback tier keep >= 95% of pairs served under
// fail:0.05 + stall:0.05 chaos; the AIMD admission controller converges on
// its virtual-sojourn SLO under overload and recovers additively when load
// thins.
//
// Two sections:
//   1. E14a — availability surface: fault-spec grid × degraded-mode posture
//      (tolerate-only vs landmark fallback chain). Every cell is a fresh
//      faulted stack (the fault schedule's attempt counters replay from
//      zero), so the exact/degraded/failed split, retry rounds, fallback
//      pairs, and injected-fault tallies are all seed-deterministic.
//   2. E14b — AIMD admission under virtual overload: a TrafficDriver closes
//      the loop around RouteService with AdmissionPolicy::kAdaptive and a
//      dyadic virtual pair cost; an overload burst shrinks the window
//      (p99 over SLO), a paced arrival schedule keeps it growing. Virtual
//      sojourn quantiles are exact doubles — a pinned surface.
//
// BENCH_e14.json: with --jsonl the harness writes the consolidated
// nav-bench-trajectory-v1 document (pinned by the bench golden test; the
// wall-clock fields are masked there).
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace {

using namespace nav;

using Pair = std::pair<graph::NodeId, graph::NodeId>;

/// Deterministic batch: targets cycle through a small distinct pool (so the
/// prefetch waves shard), sources draw from the seeded stream.
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

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("e14", "e14_resilience",
                   "E14 — resilience: fault injection, degraded-mode "
                   "routing, adaptive admission",
                   "bounded retries + a landmark fallback tier keep >= 95% "
                   "of pairs served under fail:0.05+stall:0.05 chaos; the "
                   "AIMD controller tracks its virtual-sojourn SLO under "
                   "overload and grows the window when load thins",
                   argc, argv);
  h.group_by({"faults", "posture"});

  // ---- 1. availability surface: fault grid × degraded-mode posture -------
  if (h.section("E14a: availability surface (fault spec x posture)")) {
    const graph::NodeId n = h.quick() ? 400 : 1600;
    const std::size_t pair_count = h.quick() ? 192 : 768;
    const std::size_t distinct = h.quick() ? 32 : 96;
    const std::vector<std::string> fault_specs =
        h.quick() ? std::vector<std::string>{"none", "stall:0.05", "fail:0.05",
                                             "fail:0.05:stall:0.05",
                                             "fail:0.9"}
                  : std::vector<std::string>{"none", "stall:0.05", "fail:0.05",
                                             "fail:0.05:stall:0.05",
                                             "fail:0.25", "fail:0.9",
                                             "fail:0.25:slow:0.5:200"};
    // Two degraded-mode postures: tolerate-only (failed targets become
    // kFailed rows) vs the full fallback chain (landmark tier catches what
    // retries could not).
    const std::vector<std::string> postures = {"tolerate", "fallback"};

    Rng graph_rng(h.seed(0xE14A));
    const graph::Graph g = graph::family("grid2d").make(n, graph_rng);
    Rng scheme_rng(h.seed(0x5c4e));
    const auto scheme = core::make_scheme("ball", g, scheme_rng);
    const auto pairs = mixed_pairs(g.num_nodes(), pair_count, distinct,
                                   h.seed(0xAB));
    // The fallback tier is fault-free and approximate; its router reads
    // exact() = false at construction and routes stall-tolerantly.
    const auto landmark = graph::make_oracle("landmark:8", g);
    const auto landmark_router = routing::make_router("greedy", g, *landmark);

    for (const auto& posture : postures) {
      Table table({"faults", "exact", "degraded", "failed", "avail",
                   "retries", "fallback", "injected", "stalled"});
      for (const auto& spec : fault_specs) {
        nav::Timer timer;
        // "none" still goes through the decorator at rate 0 — the fault-free
        // transparency cell (identical to an undecorated run).
        const std::string oracle_spec =
            spec == "none"
                ? "faulty:cache:40:fail:0:seed:5"
                : "faulty:cache:40:" + spec + ":seed:5";
        // Fresh stack per cell: the fault schedule's attempt counters
        // replay from zero, so every tally below is seed-deterministic.
        const auto oracle = graph::make_oracle(oracle_spec, g);
        const auto router = routing::make_router("greedy", g, *oracle);
        api::RouteServiceOptions options;
        if (posture == "fallback") {
          options.resilience.fallback_oracle = landmark.get();
          options.resilience.fallback_router = landmark_router.get();
        } else {
          options.tolerate_unreachable = true;
        }
        const api::RouteService service(g, *oracle, scheme.get(), *router,
                                        options);
        const auto report = service.route_batch(pairs, Rng(42));
        NAV_REQUIRE(report.results.size() == pairs.size(),
                    "a faulted batch did not complete");
        const double availability =
            static_cast<double>(report.exact_pairs + report.degraded_pairs) /
            static_cast<double>(pairs.size());
        // The acceptance bar: under the chaos spec, >= 95% of pairs served.
        if (spec == "fail:0.05:stall:0.05") {
          NAV_REQUIRE(availability >= 0.95,
                      "chaos availability fell below 95%");
        }
        const auto* faulty =
            dynamic_cast<const resilience::FaultyOracle*>(oracle.get());
        NAV_REQUIRE(faulty != nullptr, "faulty: spec built no decorator");

        table.add_row({spec, Table::integer(report.exact_pairs),
                       Table::integer(report.degraded_pairs),
                       Table::integer(report.failed_pairs),
                       Table::num(availability, 4),
                       Table::integer(report.retries),
                       Table::integer(report.fallback_pairs),
                       Table::integer(faulty->injected_failures()),
                       Table::integer(faulty->stalled_rows())});
        h.add_cell({{"experiment", std::string("e14_resilience")},
                    {"faults", spec},
                    {"posture", posture},
                    {"n", static_cast<std::uint64_t>(g.num_nodes())},
                    {"pairs", static_cast<std::uint64_t>(pairs.size())},
                    {"exact_pairs",
                     static_cast<std::uint64_t>(report.exact_pairs)},
                    {"degraded_pairs",
                     static_cast<std::uint64_t>(report.degraded_pairs)},
                    {"failed_pairs",
                     static_cast<std::uint64_t>(report.failed_pairs)},
                    {"availability", availability},
                    {"retries", static_cast<std::uint64_t>(report.retries)},
                    {"fallback_pairs",
                     static_cast<std::uint64_t>(report.fallback_pairs)},
                    {"injected_failures", faulty->injected_failures()},
                    {"stalled_rows", faulty->stalled_rows()},
                    {"injected_slow_micros", faulty->injected_slow_micros()},
                    {"seconds", timer.seconds()}});
      }
      std::cout << "posture=" << posture << "\n" << table.to_ascii();
    }
  }

  // ---- 2. AIMD admission under virtual overload ---------------------------
  if (h.section("E14b: adaptive admission (AIMD vs virtual-sojourn SLO)")) {
    const graph::NodeId n = h.quick() ? 256 : 1024;
    const std::size_t batch_size = 32;
    const std::size_t batches = h.quick() ? 8 : 24;
    // Dyadic virtual cost: every sojourn below is an exact double, so the
    // quantiles are a pinnable surface (unlike wall-clock sojourns).
    const double pair_cost = 0.0078125;  // 2^-7 s: 32 pairs = 0.25 s
    struct Regime {
      const char* name;
      const char* schedule;  // arrival schedule handed to the driver
      double slo_seconds;
    };
    // Overload: every batch arrives at vtime 0, so queue wait blows the
    // tight SLO and the window halves to its floor. Paced: arrivals spaced
    // at exactly one batch's service time keep sojourn == service cost,
    // under the loose SLO — the window grows additively every batch.
    const std::vector<Regime> regimes = {
        {"overload", "burst:64:0.0", 0.05},
        {"paced", "burst:1:0.25", 0.5},
    };

    Rng graph_rng(h.seed(0xE14B));
    const graph::Graph g = graph::family("torus2d").make(n, graph_rng);
    Rng scheme_rng(h.seed(0xba11));
    const auto scheme = core::make_scheme("ball", g, scheme_rng);
    const auto oracle = graph::make_oracle("auto", g);
    const auto router = routing::make_router("greedy", g, *oracle);

    Table table({"regime", "slo", "admitted", "rejected", "breaches",
                 "p99 ok", "window", "sojourn p50", "sojourn p99"});
    for (const auto& regime : regimes) {
      nav::Timer timer;
      api::RouteServiceOptions options;
      options.virtual_pair_cost_seconds = pair_cost;
      options.admission = api::AdmissionPolicy::adaptive(regime.slo_seconds);
      api::RouteService service(g, *oracle, scheme.get(), *router, options);
      const auto demand =
          workload::make_workload("uniform", g, Rng(h.seed(0xE14B)));
      workload::TrafficOptions traffic;
      traffic.schedule = regime.schedule;
      traffic.batches = batches;
      traffic.batch_size = batch_size;
      workload::TrafficDriver driver(service, *demand, traffic);
      const auto report = driver.run(Rng(h.seed(0xD82)));
      NAV_REQUIRE(report.adaptive, "adaptive run did not report its verdict");
      if (std::string(regime.name) == "overload") {
        NAV_REQUIRE(!report.p99_under_slo && report.pairs_rejected > 0,
                    "overload failed to trip the AIMD controller");
      } else {
        NAV_REQUIRE(report.p99_under_slo && report.pairs_rejected == 0,
                    "paced arrivals tripped the AIMD controller");
      }

      table.add_row({regime.name, Table::num(regime.slo_seconds, 2),
                     Table::integer(report.pairs_admitted),
                     Table::integer(report.pairs_rejected),
                     Table::integer(report.queue.slo_breaches),
                     report.p99_under_slo ? "yes" : "no",
                     Table::integer(report.queue.adaptive_window_pairs),
                     Table::num(report.sojourn_v_ms.p50, 3),
                     Table::num(report.sojourn_v_ms.p99, 3)});
      h.add_cell({{"experiment", std::string("e14_resilience")},
                  {"regime", std::string(regime.name)},
                  {"n", static_cast<std::uint64_t>(g.num_nodes())},
                  {"batches", static_cast<std::uint64_t>(batches)},
                  {"batch_size", static_cast<std::uint64_t>(batch_size)},
                  {"slo_seconds", regime.slo_seconds},
                  {"pairs_admitted",
                   static_cast<std::uint64_t>(report.pairs_admitted)},
                  {"pairs_rejected",
                   static_cast<std::uint64_t>(report.pairs_rejected)},
                  {"slo_breaches",
                   static_cast<std::uint64_t>(report.queue.slo_breaches)},
                  {"p99_under_slo",
                   static_cast<std::uint64_t>(report.p99_under_slo ? 1 : 0)},
                  {"adaptive_window_pairs",
                   static_cast<std::uint64_t>(
                       report.queue.adaptive_window_pairs)},
                  {"sojourn_v_ms_p50", report.sojourn_v_ms.p50},
                  {"sojourn_v_ms_p99", report.sojourn_v_ms.p99},
                  {"hops_p50", report.hops.p50},
                  {"hops_p95", report.hops.p95},
                  {"seconds", timer.seconds()}});
    }
    std::cout << table.to_ascii();
  }

  return h.finish();
}
