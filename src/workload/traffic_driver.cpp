#include "workload/traffic_driver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/parse.hpp"
#include "runtime/timer.hpp"

namespace nav::workload {

ArrivalSchedule ArrivalSchedule::parse(const std::string& spec) {
  ArrivalSchedule schedule;
  schedule.spec = spec;
  const auto tokens = split_spec(spec);
  if (tokens.front() == "poisson" && tokens.size() == 2) {
    schedule.kind = Kind::kPoisson;
    schedule.rate = parse_spec_number<double>(tokens[1], spec);
    NAV_REQUIRE(schedule.rate > 0.0, "poisson rate must be > 0: " + spec);
    return schedule;
  }
  if (tokens.front() == "burst" && tokens.size() == 3) {
    schedule.kind = Kind::kBurst;
    schedule.burst_size = parse_spec_number<std::size_t>(tokens[1], spec);
    schedule.gap_seconds = parse_spec_number<double>(tokens[2], spec);
    NAV_REQUIRE(schedule.burst_size >= 1, "burst size must be >= 1: " + spec);
    NAV_REQUIRE(schedule.gap_seconds >= 0.0,
                "burst gap must be >= 0: " + spec);
    return schedule;
  }
  throw std::invalid_argument(
      "schedule spec must be poisson:<rate> or burst:<size>:<gap>: " + spec);
}

std::vector<double> ArrivalSchedule::arrival_times(std::size_t count,
                                                   Rng rng) const {
  std::vector<double> times;
  times.reserve(count);
  if (kind == Kind::kPoisson) {
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      // Exponential gap by inversion; next_double() < 1 keeps the log finite.
      t += -std::log(1.0 - rng.next_double()) / rate;
      times.push_back(t);
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      times.push_back(gap_seconds * static_cast<double>(i / burst_size));
    }
  }
  return times;
}

TrafficDriver::TrafficDriver(api::RouteService& service, Workload& workload,
                             TrafficOptions options)
    : service_(service),
      workload_(workload),
      options_(std::move(options)),
      schedule_(ArrivalSchedule::parse(options_.schedule)) {
  NAV_REQUIRE(options_.batches >= 1, "traffic needs at least one batch");
  NAV_REQUIRE(options_.batch_size >= 1, "traffic needs non-empty batches");
  NAV_REQUIRE((options_.mutations == nullptr) ==
                  (options_.dynamic_graph == nullptr),
              "mutations and dynamic_graph must be set together");
}

WorkloadReport TrafficDriver::run(Rng rng) {
  NAV_OBS_SPAN("traffic.run", "batches",
               static_cast<double>(options_.batches));
  // Registered against the SERVICE's registry (not necessarily the default
  // one), so a scrape of the service sees its demand and its admissions side
  // by side. counter()/histogram() dedup by name, so repeat runs share
  // handles.
  obs::Registry& reg = service_.metrics();
  obs::Counter batches_submitted = reg.counter("traffic.batches_submitted");
  obs::Counter pairs_submitted = reg.counter("traffic.pairs_submitted");
  obs::Counter pairs_admitted = reg.counter("traffic.pairs_admitted");
  obs::Counter pairs_shed = reg.counter("traffic.pairs_shed");
  obs::Counter pairs_rejected = reg.counter("traffic.pairs_rejected");
  obs::Counter pairs_failed = reg.counter("traffic.pairs_failed");
  obs::Counter mutation_steps = reg.counter("traffic.mutation_steps");
  obs::Counter mutation_events = reg.counter("traffic.mutation_events");
  obs::HistogramHandle sojourn_hist =
      reg.histogram("traffic.sojourn_ms", 0.0, 1000.0, 50);

  WorkloadReport report;
  report.workload = workload_.name();
  report.schedule = schedule_.spec;
  // Snapshot so the report attributes only THIS run's admissions to itself
  // even when the service is shared across driver runs (bench_e12 reuses
  // one service per scheme).
  const api::QueueStats before = service_.queue_stats();
  const std::size_t vsojourns_before = service_.virtual_sojourns().size();
  // The schedule's times are relative to the run: shifting them past the
  // service's virtual horizon lets a virtual-time service serve a second
  // run exactly as it served the first (a fresh or steady-time service
  // has horizon 0, leaving the times untouched).
  auto arrivals = schedule_.arrival_times(options_.batches, rng.child(0xA881));
  const double vtime_origin = service_.virtual_horizon();
  for (double& t : arrivals) t += vtime_origin;
  Rng gen_rng = rng.child(0x6e4);

  // Submission phase: generate and submit in arrival order, never waiting on
  // completions (open loop). Bounded admission may still block inside
  // submit() — that is the backpressure under test, not a closed loop.
  // With a MutationStream configured the loop CLOSES: each batch is
  // collected right after submission so the graph is quiescent at every
  // mutation point. The demand/routing streams are identical either way.
  const bool mutating = options_.mutations != nullptr;
  Rng mutation_rng = rng.child(0xD71);  // dedicated subtree, like 0xB47
  std::vector<std::future<std::vector<routing::RouteResult>>> futures;
  std::vector<double> submitted_at(options_.batches, 0.0);
  futures.reserve(options_.batches);
  report.batches.reserve(options_.batches);
  std::vector<double> hops, stretch, sojourn_ms;
  if (options_.keep_results) report.results.resize(options_.batches);
  Timer wall;

  // Collects batch b's future into the report (FIFO completion order).
  const auto collect = [&](std::size_t b) {
    // future::get() releases the batch's shared state before a handler
    // runs, so the service thread could free a caught ShedError while
    // e.reason() reads it, ordered only by the exception's refcount inside
    // the (uninstrumented) runtime library. Holding the state in a
    // shared_future until the handlers finish orders that release through
    // the state's own reference count, which ThreadSanitizer sees.
    const auto done = futures[b].share();
    try {
      const auto& results = done.get();
      report.batches[b].sojourn_seconds = wall.seconds() - submitted_at[b];
      sojourn_ms.push_back(report.batches[b].sojourn_seconds * 1e3);
      sojourn_hist.observe(report.batches[b].sojourn_seconds * 1e3);
      report.pairs_admitted += results.size();
      pairs_admitted.inc(results.size());
      for (const auto& result : results) {
        if (!result.reached) {
          ++report.pairs_unreached;
          continue;  // no hops/stretch sample from a non-route
        }
        hops.push_back(static_cast<double>(result.steps));
        if (result.initial_distance >= 1) {
          stretch.push_back(static_cast<double>(result.steps) /
                            static_cast<double>(result.initial_distance));
        }
      }
      if (options_.keep_results) report.results[b] = results;
    } catch (const api::ShedError& e) {
      report.batches[b].sojourn_seconds = wall.seconds() - submitted_at[b];
      if (e.reason() == api::ShedError::Reason::kRejected) {
        report.batches[b].rejected = true;
        report.pairs_rejected += report.batches[b].pairs;
        pairs_rejected.inc(report.batches[b].pairs);
      } else {
        report.batches[b].shed = true;
        report.pairs_shed += report.batches[b].pairs;
        pairs_shed.inc(report.batches[b].pairs);
      }
    } catch (const std::exception&) {
      // A batch that failed routing (e.g. an out-of-range endpoint from a
      // custom Workload) must not abandon the rest of the run: the report
      // keeps every other batch and accounts this one as failed.
      report.batches[b].failed = true;
      report.batches[b].sojourn_seconds = wall.seconds() - submitted_at[b];
      report.pairs_failed += report.batches[b].pairs;
      pairs_failed.inc(report.batches[b].pairs);
    }
  };

  for (std::size_t b = 0; b < options_.batches; ++b) {
    auto pairs = workload_.batch(options_.batch_size, gen_rng);
    BatchTrace trace;
    trace.index = b;
    trace.arrival_vtime = arrivals[b];
    trace.pairs = pairs.size();
    trace.queued_pairs_at_submit = service_.queue_stats().queued_pairs;
    report.pairs_submitted += pairs.size();
    batches_submitted.inc();
    pairs_submitted.inc(pairs.size());
    submitted_at[b] = wall.seconds();
    // Routing streams live in their own subtree (0xB47) so no batch index
    // can collide with the generation (0x6e4) or arrival (0xA881) streams.
    // The virtual arrival time rides along: a virtual-time service
    // (virtual_pair_cost_seconds > 0) admits on it deterministically; a
    // steady-time service ignores it.
    futures.push_back(service_.submit(std::move(pairs),
                                      rng.child(0xB47).child(b), arrivals[b]));
    report.batches.push_back(trace);
    if (mutating) {
      collect(b);  // drain before any mutation may touch the graph
      if (b + 1 < options_.batches) {
        const auto events =
            options_.mutations->step(*options_.dynamic_graph, mutation_rng);
        const dynamic::MutationDelta delta =
            options_.dynamic_graph->apply(events);
        ++report.mutation_steps;
        report.mutation_events += delta.events.size();
        mutation_steps.inc();
        mutation_events.inc(delta.events.size());
      }
    }
  }

  // Collection phase: batches complete FIFO, so waiting in submission order
  // observes each completion promptly. (Closed-loop runs collected inline.)
  if (!mutating) {
    for (std::size_t b = 0; b < options_.batches; ++b) collect(b);
  }
  if (options_.dynamic_graph != nullptr) {
    report.final_epoch = options_.dynamic_graph->epoch();
  }
  report.seconds = wall.seconds();
  report.hops = summarize(std::move(hops));
  report.stretch = summarize(std::move(stretch));
  report.sojourn_ms = summarize(std::move(sojourn_ms));
  // Cumulative counters become this-run deltas; the live gauges stay as
  // the service reports them.
  report.queue = service_.queue_stats().since(before);

  // Adaptive-run summary: deterministic virtual sojourns of the batches
  // this run actually served, and the strict p99-vs-SLO verdict.
  const auto& admission = service_.options().admission;
  if (admission.kind == api::AdmissionPolicy::Kind::kAdaptive) {
    report.adaptive = true;
    report.slo_seconds = admission.slo_seconds;
    const auto vsojourns = service_.virtual_sojourns();
    std::vector<double> run_v_ms;
    run_v_ms.reserve(vsojourns.size() - vsojourns_before);
    for (std::size_t i = vsojourns_before; i < vsojourns.size(); ++i) {
      run_v_ms.push_back(vsojourns[i] * 1e3);
    }
    report.sojourn_v_ms = summarize(std::move(run_v_ms));
    report.p99_under_slo =
        report.sojourn_v_ms.p99 <= report.slo_seconds * 1e3;
  }
  return report;
}

Table WorkloadReport::table() const {
  Table out({"batch", "vtime", "pairs", "depth@submit", "sojourn ms",
             "status"});
  for (const auto& b : batches) {
    out.add_row({Table::integer(b.index), Table::num(b.arrival_vtime, 3),
                 Table::integer(b.pairs),
                 Table::integer(b.queued_pairs_at_submit),
                 Table::num(b.sojourn_seconds * 1e3, 2),
                 b.shed ? "shed"
                        : (b.rejected ? "rejected"
                                      : (b.failed ? "failed" : "ok"))});
  }
  return out;
}

api::Record WorkloadReport::record() const {
  const double routes_per_sec =
      static_cast<double>(pairs_admitted) / std::max(seconds, 1e-9);
  api::Record row = {
      {"workload", workload},
      {"schedule", schedule},
      {"batches", static_cast<std::uint64_t>(batches.size())},
      {"pairs_submitted", static_cast<std::uint64_t>(pairs_submitted)},
      {"pairs_admitted", static_cast<std::uint64_t>(pairs_admitted)},
      {"pairs_shed", static_cast<std::uint64_t>(pairs_shed)},
      {"pairs_failed", static_cast<std::uint64_t>(pairs_failed)},
      {"hops_mean", hops.mean},
      {"hops_p50", hops.p50},
      {"hops_p95", hops.p95},
      {"hops_p99", hops.p99},
      {"hops_max", hops.max},
      {"stretch_p50", stretch.p50},
      {"stretch_p95", stretch.p95},
      {"stretch_p99", stretch.p99},
      {"sojourn_ms_p50", sojourn_ms.p50},
      {"sojourn_ms_p95", sojourn_ms.p95},
      {"sojourn_ms_p99", sojourn_ms.p99},
      {"peak_queued_pairs", static_cast<std::uint64_t>(queue.peak_queued_pairs)},
      {"blocked_submits", static_cast<std::uint64_t>(queue.blocked_submits)},
      {"seconds", seconds},
      {"routes_per_sec", routes_per_sec},
  };
  // Adaptive fields are appended ONLY for adaptive runs: the static schema
  // above — and every golden pinned to it — stays byte-identical when the
  // controller is off. sojourn_v_* and p99_under_slo are virtual-time
  // numbers, hence STRICT under golden comparison (unlike sojourn_ms_*).
  if (adaptive) {
    row.push_back({"pairs_rejected", static_cast<std::uint64_t>(pairs_rejected)});
    row.push_back({"slo_ms", slo_seconds * 1e3});
    row.push_back({"sojourn_v_ms_p50", sojourn_v_ms.p50});
    row.push_back({"sojourn_v_ms_p95", sojourn_v_ms.p95});
    row.push_back({"sojourn_v_ms_p99", sojourn_v_ms.p99});
    row.push_back(
        {"slo_breaches", static_cast<std::uint64_t>(queue.slo_breaches)});
    row.push_back(
        {"p99_under_slo", static_cast<std::uint64_t>(p99_under_slo ? 1 : 0)});
    row.push_back({"adaptive_window_pairs",
                   static_cast<std::uint64_t>(queue.adaptive_window_pairs)});
  }
  return row;
}

}  // namespace nav::workload
