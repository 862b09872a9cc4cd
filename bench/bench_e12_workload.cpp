// bench_e12_workload.cpp — E12: navigability under non-uniform demand, and
// the RouteService under admission-controlled load.
//
// Claim under test: the paper's bounds are stated for uniform (s, t) demand,
// but navigability is demand-sensitive (Achlioptas–Siminelakis). Skewed
// targets (zipf/hotset) are the friendly regime for target-sharded prefetch
// (few distinct BFS per batch); far-pair demand (adversarial) is where the
// sqrt(n)-barrier bites; local demand barely exercises long links at all.
//
// Three sections:
//   1. Experiment grid with workloads as the fourth axis (fixed n):
//      greedy-diameter cells per workload × scheme, streamed via the
//      standard sweep machinery (--jsonl: sweep_torus2d.jsonl).
//   2. Service-level load drive: a TrafficDriver per workload × scheme
//      feeds RouteService submit() batches and reports hop/stretch/latency
//      percentiles (--jsonl: bench_e12_workload.jsonl, one row per cell —
//      pinned by the bench golden test; wall-clock fields are masked there).
//      Includes a recorded-trace replay cell (trace:<file> round trip).
//   3. Backpressure demo: a saturating burst against Bounded and Shed
//      admission, printing the queue counters (stdout only — inherently
//      timing-dependent, so no trajectory cells are recorded for it).
//
// BENCH_e12.json: with --jsonl the harness also writes the consolidated
// trajectory document (schema nav-bench-trajectory-v1) that
// scripts/plot_bench.py renders and scripts/compare_bench.py diffs.
#include "harness.hpp"

namespace {

using namespace nav;

/// One flat jsonl record per cell: bench identity + the driver's summary.
/// The field set and order are pinned by the bench golden test.
api::Record cell_record(const workload::WorkloadReport& report,
                        graph::NodeId n, const std::string& scheme) {
  api::Record record = {{"experiment", std::string("e12_workload")},
                        {"family", std::string("torus2d")},
                        {"n", static_cast<std::uint64_t>(n)},
                        {"scheme", scheme}};
  const auto summary = report.record();
  record.insert(record.end(), summary.begin(), summary.end());
  return record;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("e12", "e12_workload",
                   "E12 — workloads: navigability and service behaviour "
                   "under non-uniform demand",
                   "hop percentiles depend on the demand distribution (local "
                   "<< uniform << adversarial); skewed targets shrink "
                   "distinct-BFS cost; bounded admission sheds/blocks under "
                   "saturating bursts at identical routes",
                   argc, argv);
  h.group_by({"scheme", "workload"});

  const graph::NodeId n = h.quick() ? 1024 : 8192;
  const std::vector<std::string> workloads = {
      "uniform", "zipf:1.2", "local:8", "adversarial", "hotset:8:0.9"};
  const std::vector<std::string> schemes =
      h.quick() ? std::vector<std::string>{"uniform", "ball"}
                : std::vector<std::string>{"uniform", "ball", "ml"};

  // ---- 1. the Experiment workload axis ---------------------------------
  if (h.section("E12a: workload axis in the sweep grid (greedy diameter)")) {
    h.run_and_print(api::Experiment::on("torus2d")
                        .sizes({h.quick() ? graph::NodeId{512}
                                          : graph::NodeId{2048}})
                        .workloads(workloads)
                        .schemes(schemes)
                        .pairs(h.quick() ? 6 : 16)
                        .resamples(h.quick() ? 4 : 8)
                        .seed(h.seed(0xE12)));
  }

  // ---- 2. service-level load drive per workload × scheme ----------------
  if (h.section("E12b: TrafficDriver against RouteService (per-route "
                "percentiles)")) {
    auto engine = api::NavigationEngine::from_family("torus2d", n);
    std::cout << "torus2d n=" << engine.graph().num_nodes()
              << "  batches=" << (h.quick() ? 8 : 32)
              << "  batch_size=" << (h.quick() ? 64 : 256)
              << "  schedule=burst:4:0.0\n";

    workload::TrafficOptions traffic;
    traffic.schedule = "burst:4:0.0";
    traffic.batches = h.quick() ? 8 : 32;
    traffic.batch_size = h.quick() ? 64 : 256;

    const std::string trace_file = "bench_e12_trace.jsonl";
    const std::string trace_path = h.out_path(trace_file);
    for (const auto& scheme : schemes) {
      engine.use_scheme(scheme, h.seed(0x5eed));
      api::RouteService service(engine);

      // The sweep workloads, plus a trace replay of the zipf demand: record
      // one batch of pairs, save, and drive the service from the file.
      auto specs = workloads;
      {
        const auto zipf = engine.make_workload("zipf:1.2", h.seed(0xE12));
        Rng trace_rng(h.seed(0x7ace));
        workload::save_trace(trace_path,
                             zipf->batch(traffic.batch_size, trace_rng));
        specs.push_back("trace:" + trace_path);
      }

      Table table({"workload", "pairs", "hops p50", "hops p95", "hops p99",
                   "stretch p95", "sojourn p95 ms", "routes/s"});
      for (const auto& spec : specs) {
        const auto demand = engine.make_workload(spec, h.seed(0xE12));
        workload::TrafficDriver driver(service, *demand, traffic);
        auto report = driver.run(Rng(h.seed(0xD81)));
        // Key the replay cell by the trace's file name: --out must not
        // rename the series.
        if (spec == "trace:" + trace_path) {
          report.workload = "trace:" + trace_file;
        }
        table.add_row(
            {report.workload, Table::integer(report.pairs_admitted),
             Table::num(report.hops.p50, 1), Table::num(report.hops.p95, 1),
             Table::num(report.hops.p99, 1),
             Table::num(report.stretch.p95, 2),
             Table::num(report.sojourn_ms.p95, 2),
             Table::num(static_cast<double>(report.pairs_admitted) /
                            std::max(report.seconds, 1e-9),
                        0)});
        h.add_cell(cell_record(report, engine.graph().num_nodes(), scheme));
      }
      std::cout << "scheme=" << scheme << "\n" << table.to_ascii();
    }
  }

  // ---- 3. admission under a saturating burst ----------------------------
  if (h.section("E12c: admission policies under a saturating burst")) {
    auto engine = api::NavigationEngine::from_family("torus2d", n);
    engine.use_scheme("uniform", h.seed(0x5eed));
    const auto demand = engine.make_workload("zipf:1.2", h.seed(0xE12));
    workload::TrafficOptions flood;
    flood.schedule = "burst:16:0.0";
    flood.batches = 16;
    flood.batch_size = h.quick() ? 128 : 512;

    Table admission_table({"admission", "admitted", "shed", "blocked submits",
                           "peak queued pairs", "sojourn p95 ms"});
    const auto drive = [&](const std::string& name,
                           api::AdmissionPolicy policy) {
      api::RouteServiceOptions options;
      options.admission = policy;
      api::RouteService service(engine, options);
      workload::TrafficDriver driver(service, *demand, flood);
      const auto report = driver.run(Rng(h.seed(0xADA)));
      admission_table.add_row(
          {name, Table::integer(report.pairs_admitted),
           Table::integer(report.pairs_shed),
           Table::integer(report.queue.blocked_submits),
           Table::integer(report.queue.peak_queued_pairs),
           Table::num(report.sojourn_ms.p95, 2)});
    };
    drive("unbounded", api::AdmissionPolicy::unbounded());
    drive("bounded:" + std::to_string(flood.batch_size),
          api::AdmissionPolicy::bounded(flood.batch_size));
    drive("shed:1ms", api::AdmissionPolicy::shed(1e-3));
    std::cout << admission_table.to_ascii()
              << "(admitted routes are bit-identical across policies; only "
                 "queueing behaviour differs)\n";
  }
  return h.finish();
}
