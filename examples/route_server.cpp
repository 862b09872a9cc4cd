// route_server.cpp — the always-on batch routing engine under a workload.
//
// Models a routing service under sustained, possibly skewed load: a
// workload::TrafficDriver generates (source, target) demand from a named
// demand model, submits it to an api::RouteService as an open-loop burst
// process, and the service queues batches on its service thread under a
// configurable admission policy — Unbounded FIFO, Bounded backpressure, or
// deadline Shedding.
//
//   ./route_server [n] [batches] [workload] [admission]
//                  [--mutations <spec>] [--oracle <spec>] [--faults <spec>]
//
//   n          graph size (torus2d), default 8192
//   batches    batches to submit, default 12 (x 256 pairs each; under
//              adaptive admission x 64 pairs, one per virtual service time)
//   workload   any workload::make_workload spec, default "zipf:1.1"
//              (uniform | zipf:<s> | local:<r> | adversarial |
//               hotset:<k>:<p> | trace:<path>)
//   admission  unbounded | bounded:<max_queued_pairs> | shed:<seconds>
//              | adaptive:<slo_seconds>. shed and adaptive run in VIRTUAL
//              time here (50us per pair), so their drop decisions are
//              deterministic across runs and machines; adaptive drives the
//              AIMD admission window against the given sojourn SLO.
//
//   --mutations <spec>  perturb the graph between batches
//              (churn:<rate> | fail:<fraction> | targeted:<k> |
//               trace:<path> | none). Mutations close the driver loop
//              (each batch is collected before the graph changes), so the
//              queue never builds and bounded/shed admission would never
//              engage: a non-"none" spec is mutually exclusive with a
//              non-unbounded admission policy, checked up front.
//   --oracle <spec>  distance backend for the static run
//              (auto | matrix[:width] | cache[:cap][:width] |
//               landmark:<k>[:sel] — see graph::make_oracle). A custom
//              backend is built once on the static graph and cannot track
//              mutations, so a non-"auto" spec is mutually exclusive with
//              a non-"none" --mutations, checked up front.
//   --faults <spec>  deterministic chaos: wrap the serving oracle in a
//              resilience::FaultyOracle ("stall:<p>", "fail:<p>",
//              "slow:<p>:<us>", "seed:<n>", combinable with ':', or none).
//              Faulted runs get a degraded-mode fallback chain — landmark:16
//              oracle + inexact greedy router — plus bounded retries, and
//              report a "resilience:" summary line. Composes with
//              --mutations (faults wrap the dynamic oracle) and --oracle.
//   --metrics-out <path>  scrape the process-wide obs registry after the
//              run and write it in Prometheus text format ("-" = stdout).
//   --trace-out <path>    enable NAV_TRACE span collection for the run and
//              write the spans as chrome://tracing JSON (load in
//              chrome://tracing or https://ui.perfetto.dev).
//
// The whole stack runs on the dynamic subsystem: the graph lives in an
// epoch-versioned dynamic::DynamicGraph and distances come from a
// dynamic::DynamicOracle that invalidates exactly the cached targets each
// mutation can affect — in the static case (no --mutations) that reduces
// to the classic matrix/cache oracle, in the mutating case the
// invalidation counters are reported after the run.
//
// Output: one line per batch (queue depth at submit, sojourn, status) plus
// hop/latency percentiles and the admission counters.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "nav/nav.hpp"

namespace {

// Strict parsing throughout: "bounded:abc" must be an error rather than
// bounded(0), and "16k" must not silently run as n=16.
nav::api::AdmissionPolicy parse_admission(const std::string& spec) {
  using nav::api::AdmissionPolicy;
  const auto tokens = nav::split_spec(spec);
  if (tokens.front() == "unbounded" && tokens.size() == 1) {
    return AdmissionPolicy::unbounded();
  }
  if (tokens.front() == "bounded" && tokens.size() == 2) {
    return AdmissionPolicy::bounded(
        nav::parse_spec_number<std::size_t>(tokens[1], spec));
  }
  if (tokens.front() == "shed" && tokens.size() == 2) {
    return AdmissionPolicy::shed(
        nav::parse_spec_number<double>(tokens[1], spec));
  }
  if (tokens.front() == "adaptive" && tokens.size() == 2) {
    return AdmissionPolicy::adaptive(
        nav::parse_spec_number<double>(tokens[1], spec));
  }
  throw std::invalid_argument("admission must be unbounded | bounded:<pairs> "
                              "| shed:<seconds> | adaptive:<slo_seconds>, "
                              "got: " +
                              spec);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace nav;
  // Flags take a value; everything else stays positional.
  std::vector<std::string> positional;
  std::string mutation_spec = "none";
  std::string oracle_spec = "auto";
  std::string fault_spec = "none";
  std::string metrics_out;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto flag_value = [&](const char* usage) {
      if (i + 1 >= argc) throw std::invalid_argument(usage);
      return std::string(argv[++i]);
    };
    if (arg == "--mutations") {
      mutation_spec = flag_value(
          "--mutations needs a spec: churn:<rate> | fail:<fraction> | "
          "targeted:<k> | trace:<path> | none");
    } else if (arg == "--oracle") {
      oracle_spec = flag_value(
          "--oracle needs a spec: auto | matrix[:width] | "
          "cache[:cap][:width] | landmark:<k>[:degree|farthest]");
    } else if (arg == "--faults") {
      fault_spec = flag_value(
          "--faults needs a spec: [stall:<p>][:fail:<p>][:slow:<p>:<us>]"
          "[:seed:<n>] or none");
    } else if (arg == "--metrics-out") {
      metrics_out = flag_value(
          "--metrics-out needs a path for the Prometheus text dump "
          "(\"-\" = stdout)");
    } else if (arg == "--trace-out") {
      trace_out = flag_value(
          "--trace-out needs a path for the chrome://tracing JSON dump");
    } else {
      positional.push_back(arg);
    }
  }
  // Spans record only while enabled; flipping the gate before the run makes
  // the whole driver run (submits, batch executions, oracle waves) visible.
  if (!trace_out.empty()) obs::Tracer::instance().set_enabled(true);
  const auto n = !positional.empty()
                     ? parse_spec_number<graph::NodeId>(positional[0],
                                                        positional[0])
                     : graph::NodeId{8192};
  const std::size_t num_batches =
      positional.size() > 1
          ? parse_spec_number<std::size_t>(positional[1], positional[1])
          : 12;
  const std::string workload_spec =
      positional.size() > 2 ? positional[2] : "zipf:1.1";
  const std::string admission_spec =
      positional.size() > 3 ? positional[3] : "unbounded";

  // Both specs go through their strict registries BEFORE the exclusivity
  // check, so a malformed spec reports as such rather than as a conflict.
  api::RouteServiceOptions options;
  options.admission = parse_admission(admission_spec);
  const bool mutating = mutation_spec != "none";
  dynamic::MutationStreamPtr stream;
  if (mutating) stream = dynamic::make_mutation_stream(mutation_spec);
  if (mutating && admission_spec != "unbounded") {
    throw std::invalid_argument(
        "--mutations " + mutation_spec + " conflicts with admission " +
        admission_spec +
        ": mutating runs collect each batch before the graph changes "
        "(closed loop), so bounded/shed admission never engages; use "
        "admission=unbounded");
  }
  if (mutating && oracle_spec != "auto") {
    throw std::invalid_argument(
        "--oracle " + oracle_spec + " conflicts with --mutations " +
        mutation_spec +
        ": a custom backend is built once on the static graph and cannot "
        "track mutations; use --oracle auto");
  }

  // Cache-oracle regime on purpose: n above the dense limit is where target
  // sharding earns its keep — and skewed demand (the zipf default) is where
  // one BFS serves the most pairs. The DynamicOracle applies the same
  // size policy (dense matrix <= 4096 nodes, LRU target cache above) and
  // additionally tracks graph mutations by epoch-stamped invalidation.
  Rng graph_rng(0x5eed);
  dynamic::DynamicGraph dyn(graph::family("torus2d").make(n, graph_rng));
  const graph::Graph& g = dyn.graph();
  dynamic::DynamicOracle oracle(dyn);
  // A non-"auto" spec swaps in a make_oracle backend for the whole run; the
  // exclusivity check above guarantees the graph stays static under it.
  std::unique_ptr<graph::DistanceOracle> custom_oracle;
  if (oracle_spec != "auto") {
    custom_oracle = graph::make_oracle(oracle_spec, g);
  }
  graph::DistanceOracle& dist =
      custom_oracle ? *custom_oracle
                    : static_cast<graph::DistanceOracle&>(oracle);
  // Deterministic chaos: the fault decorator wraps whatever oracle is
  // serving (dynamic or custom) WITHOUT owning it, so mutations keep
  // invalidating beneath the faults.
  const bool faulted = fault_spec != "none";
  std::unique_ptr<resilience::FaultyOracle> faulty;
  if (faulted) {
    faulty = std::make_unique<resilience::FaultyOracle>(
        static_cast<const graph::DistanceOracle&>(dist),
        resilience::FaultSpec::parse(split_spec(fault_spec), fault_spec));
  }
  graph::DistanceOracle& serving =
      faulty ? static_cast<graph::DistanceOracle&>(*faulty) : dist;
  Rng scheme_rng(0x5eed);
  const auto scheme = core::make_scheme("ball", g, scheme_rng);
  // Built over the SERVING oracle: a stall fault makes it inexact, and the
  // router factory then configures the greedy descent for bound-only rows.
  const auto router = routing::make_router("greedy", g, serving);
  // Failures may disconnect demand pairs, and faults may leave a pair with
  // no usable row; report them instead of aborting.
  options.tolerate_unreachable = mutating || faulted;
  // Degraded-mode chain for faulted runs: exact-path retries first, then a
  // landmark fallback (approximate but fault-free).
  std::unique_ptr<graph::DistanceOracle> fallback_oracle;
  std::unique_ptr<routing::Router> fallback_router;
  if (faulted) {
    fallback_oracle = graph::make_oracle("landmark:16", g);
    fallback_router = routing::make_router("greedy", g, *fallback_oracle);
    options.resilience.fallback_oracle = fallback_oracle.get();
    options.resilience.fallback_router = fallback_router.get();
  }
  // Shed and adaptive run in virtual time here: 50us of virtual service per
  // pair makes every drop decision a pure function of the arrival schedule.
  if (options.admission.kind == api::AdmissionPolicy::Kind::kShed ||
      options.admission.kind == api::AdmissionPolicy::Kind::kAdaptive) {
    options.virtual_pair_cost_seconds = 50e-6;
  }
  // Fold the service's counters into the process-wide registry so one
  // --metrics-out scrape sees the whole stack (service + oracle + BFS).
  options.metrics = &obs::default_registry();
  api::RouteService service(g, serving, scheme.get(), *router, options);

  const auto demand = workload::make_workload(workload_spec, g, Rng(2026));
  workload::TrafficOptions traffic;
  traffic.schedule = "burst:4:0.0";  // four simultaneous batches per wave
  traffic.batches = num_batches;
  traffic.batch_size = 256;
  if (options.admission.kind == api::AdmissionPolicy::Kind::kAdaptive) {
    // The AIMD window opens at kAdaptiveStartPairs, so a larger batch could
    // never be admitted after the first; batches of that size arriving one
    // virtual service time apart keep the server just busy, and fault
    // latency (retry backoffs) is what pushes sojourns toward the SLO.
    traffic.batch_size = api::AdmissionPolicy::kAdaptiveStartPairs;
    traffic.schedule =
        "burst:1:" + std::to_string(static_cast<double>(traffic.batch_size) *
                                    options.virtual_pair_cost_seconds);
  }
  traffic.keep_results = true;  // feeds the hop histogram below
  if (mutating) {
    traffic.dynamic_graph = &dyn;
    traffic.mutations = stream.get();
  }
  workload::TrafficDriver driver(service, *demand, traffic);

  std::cout << "route_server: torus2d n=" << g.num_nodes()
            << ", scheme=ball, router=greedy, workload=" << demand->name()
            << ", admission=" << admission_spec
            << ", mutations=" << mutation_spec
            << ", oracle=" << oracle_spec
            << ", faults=" << fault_spec << ", "
            << nav::global_pool().thread_count() << " pool threads\n\n";

  const auto report = driver.run(Rng(2026));
  std::cout << report.table().to_ascii();

  // Binned view of the hop distribution: the streaming-friendly variant of
  // the report's exact quantiles (Histogram::percentile interpolates inside
  // the crossing bin, so binned p95 tracks report.hops.p95).
  if (report.hops.count > 0) {
    Histogram hop_histogram(0.0, report.hops.max + 1.0,
                            std::min<std::size_t>(
                                12, static_cast<std::size_t>(
                                        report.hops.max) + 1));
    for (const auto& batch : report.results) {
      for (const auto& route : batch) {
        if (route.reached) {
          hop_histogram.add(static_cast<double>(route.steps));
        }
      }
    }
    std::cout << "\nhop distribution (binned p95 ~ "
              << Table::num(hop_histogram.percentile(0.95), 1) << "):\n"
              << hop_histogram.render(40);
  }

  std::cout << "\nhops: p50=" << Table::num(report.hops.p50, 1)
            << "  p95=" << Table::num(report.hops.p95, 1)
            << "  p99=" << Table::num(report.hops.p99, 1)
            << "  max=" << Table::num(report.hops.max, 0)
            << "\nsojourn ms: p50=" << Table::num(report.sojourn_ms.p50, 2)
            << "  p95=" << Table::num(report.sojourn_ms.p95, 2)
            << "  p99=" << Table::num(report.sojourn_ms.p99, 2) << "\n";
  std::cout << "admission: " << report.pairs_admitted << " admitted, "
            << report.pairs_shed << " shed, "
            << report.queue.blocked_submits << " blocked submits, peak queue "
            << report.queue.peak_queued_pairs << " pairs\n";
  if (faulted) {
    // Deterministic under a fixed seed and a virtual-time (or unbounded)
    // admission policy: every number is a pure function of the fault
    // schedule and the demand — the chaos-smoke CI job diffs this line
    // across two same-seed runs.
    std::cout << "resilience: " << faulty->injected_failures() << " injected "
              << "failures, " << report.queue.retries << " retries, "
              << report.queue.fallback_pairs << " fallback pairs, "
              << report.queue.degraded_pairs << " degraded, "
              << report.queue.failed_pairs << " failed\n";
  }
  if (report.adaptive) {
    std::cout << "adaptive: window " << report.queue.adaptive_window_pairs
              << " pairs, " << report.pairs_rejected << " pairs rejected, "
              << report.queue.slo_breaches << " slo breaches, sojourn(v) p99 "
              << Table::num(report.sojourn_v_ms.p99, 2) << " ms, slo "
              << (report.p99_under_slo ? "met" : "missed") << "\n";
  }
  if (mutating) {
    const auto stats = oracle.stats();
    std::cout << "mutations: " << report.mutation_steps << " steps, "
              << report.mutation_events << " events applied, final epoch "
              << report.final_epoch << ", " << report.pairs_unreached
              << " pairs unreached\n";
    std::cout << "invalidation: " << stats.targets_scanned
              << " cached targets scanned, " << stats.targets_invalidated
              << " invalidated, " << stats.targets_retained << " retained, "
              << stats.rows_rebuilt << " rows rebuilt, " << stats.full_flushes
              << " full flushes\n";
  }
  // Executed batches and pairs from the run's queue stats; the execution
  // seconds from the service's route_service.exec_ms histogram (admission
  // drops never execute).
  const std::size_t executed_pairs = report.queue.submitted_pairs -
                                     report.queue.shed_pairs -
                                     report.queue.rejected_pairs;
  const double exec_seconds =
      service.metrics().scrape().find_histogram("route_service.exec_ms")->sum /
      1e3;
  std::cout << "service totals: " << report.queue.executed_batches
            << " batches, " << executed_pairs << " routes, "
            << Table::num(exec_seconds, 2) << "s batch execution, "
            << Table::num(static_cast<double>(executed_pairs) /
                              std::max(exec_seconds, 1e-9),
                          0)
            << " routes/sec\n";

  if (!metrics_out.empty()) {
    const auto snapshot = obs::default_registry().scrape();
    if (metrics_out == "-") {
      obs::write_prometheus(snapshot, std::cout);
    } else {
      std::ofstream out(metrics_out);
      if (!out) {
        throw std::invalid_argument("cannot open --metrics-out path: " +
                                    metrics_out);
      }
      obs::write_prometheus(snapshot, out);
      std::cout << "metrics written: " << metrics_out << "\n";
    }
  }
  if (!trace_out.empty()) {
    obs::Tracer::instance().set_enabled(false);
    std::ofstream out(trace_out);
    if (!out) {
      throw std::invalid_argument("cannot open --trace-out path: " +
                                  trace_out);
    }
    obs::Tracer::instance().write_chrome_trace(out);
    std::cout << "trace written: " << trace_out << " ("
              << obs::Tracer::instance().event_count() << " spans, "
              << obs::Tracer::instance().dropped_events() << " dropped)\n";
  }
  return 0;
} catch (const std::exception& error) {
  // Bad CLI arguments (unknown workload/admission spec, unreadable trace,
  // conflicting --mutations/admission combinations) surface as a one-line
  // error, matching sweep_cli.
  std::cerr << "error: " << error.what() << "\n";
  return 1;
}
