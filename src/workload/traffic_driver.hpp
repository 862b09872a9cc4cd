// traffic_driver.hpp — open-loop load driving for api::RouteService.
//
// A Workload says WHO routes to whom; the TrafficDriver adds WHEN. It turns
// a workload into an arrival process of batches, feeds them to a
// RouteService through submit() without waiting for completions (open loop —
// demand does not slow down when the service falls behind, which is exactly
// when queues grow and admission policies earn their keep), and distils the
// run into a WorkloadReport: per-batch queue depth and sojourn, and
// p50/p95/p99 summaries of hops, stretch, and latency via runtime/stats.
//
// Arrival schedules are deterministic virtual-time sequences:
//   "poisson:<rate>"      exponential inter-arrival gaps at `rate` batches
//                         per virtual second, drawn from the run's Rng;
//   "burst:<size>:<gap>"  groups of `size` simultaneous batches separated by
//                         `gap` virtual seconds — the saturating shape that
//                         drives a Bounded/Shed queue into its limits.
// The driver floods: batches are submitted back-to-back in arrival order and
// the virtual times annotate the report (and drive admission on a
// virtual-time service); it never sleeps.
//
// Determinism: batch b's routing stream is rng.child(0xB47).child(b) (a
// dedicated subtree, collision-free with the other streams at any batch
// count) and pair generation consumes rng.child(0x6e4) sequentially, so
// every admitted batch routes bit-identically to
// `service.route_batch(workload.batch(size, g), rng.child(0xB47).child(b))
// .results`
// — asserted by the test suite. Queue depths and sojourn times are
// wall-clock observations and are NOT deterministic; everything about the
// demand and the routes is.
#pragma once

/// \file
/// \brief TrafficDriver: admission-controlled open-loop load driving of
/// RouteService under a Workload, with a quantile-summarised WorkloadReport.

#include <cstdint>
#include <string>
#include <vector>

#include "api/result_sink.hpp"
#include "api/route_service.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/mutation_stream.hpp"
#include "runtime/stats.hpp"
#include "runtime/table.hpp"
#include "workload/workload.hpp"

namespace nav::workload {

/// Deterministic virtual-time arrival process for batches.
struct ArrivalSchedule {
  /// Process shape.
  enum class Kind : std::uint8_t {
    kPoisson,  ///< exponential gaps (memoryless open-loop arrivals)
    kBurst     ///< groups of simultaneous arrivals separated by a fixed gap
  };
  Kind kind = Kind::kBurst;     ///< selected shape
  double rate = 1.0;            ///< kPoisson: batches per virtual second
  std::size_t burst_size = 1;   ///< kBurst: batches per burst
  double gap_seconds = 0.0;     ///< kBurst: gap between bursts
  std::string spec = "burst:1:0";  ///< the text this schedule was parsed from

  /// Parses "poisson:<rate>" / "burst:<size>:<gap>"; throws
  /// std::invalid_argument on unknown or malformed specs.
  [[nodiscard]] static ArrivalSchedule parse(const std::string& spec);

  /// The first `count` virtual arrival times (seconds, non-decreasing).
  /// Poisson gaps draw from `rng`; burst times are rng-free.
  [[nodiscard]] std::vector<double> arrival_times(std::size_t count,
                                                  Rng rng) const;
};

/// Shape of one TrafficDriver run.
struct TrafficOptions {
  std::string schedule = "burst:4:0.0";  ///< ArrivalSchedule::parse spec
  std::size_t batches = 16;              ///< batches to submit
  std::size_t batch_size = 64;           ///< pairs per batch
  /// Retain every admitted batch's RouteResults in the report (tests that
  /// check bit-identity; costs memory on big runs).
  bool keep_results = false;

  // ---- dynamic-graph interleaving (both pointers set together) -----------
  /// The versioned graph the service routes over; mutations apply here.
  dynamic::DynamicGraph* dynamic_graph = nullptr;
  /// Perturbation process stepped once after every collected batch but the
  /// last. Setting it switches the driver to a CLOSED loop: each batch's
  /// future is collected before the next mutation point, so no route ever
  /// runs concurrently with a CSR rebuild (the DynamicGraph quiescence
  /// contract). The demand and routing streams are unchanged — a
  /// mutation-free stream (e.g. "churn:0") reproduces the open-loop routes
  /// bit for bit.
  dynamic::MutationStream* mutations = nullptr;
};

/// One submitted batch as the driver saw it.
struct BatchTrace {
  std::size_t index = 0;                 ///< submission order
  double arrival_vtime = 0.0;            ///< virtual arrival time (seconds)
  std::size_t pairs = 0;                 ///< pairs in the batch
  std::size_t queued_pairs_at_submit = 0;  ///< queue depth seen at submit
  double sojourn_seconds = 0.0;          ///< wall submit -> future ready
  bool shed = false;                     ///< aged out by Shed admission
  bool rejected = false;                 ///< refused by the Adaptive window
  /// Failed in routing (its future carried a non-shed exception, e.g. an
  /// out-of-range endpoint from a custom Workload). The run continues.
  bool failed = false;
};

/// The distilled run: per-batch traces plus quantile summaries.
struct WorkloadReport {
  std::string workload;   ///< Workload::name()
  std::string schedule;   ///< arrival spec
  std::vector<BatchTrace> batches;  ///< per-batch traces, submission order

  std::size_t pairs_submitted = 0;  ///< total pairs handed to submit()
  std::size_t pairs_admitted = 0;   ///< pairs whose batch executed
  std::size_t pairs_shed = 0;       ///< pairs whose batch aged out (Shed)
  std::size_t pairs_rejected = 0;   ///< pairs refused by Adaptive admission
  std::size_t pairs_failed = 0;     ///< pairs whose batch failed routing

  QuantileSummary hops;        ///< steps per admitted route
  QuantileSummary stretch;     ///< steps / dist(s, t) (distance >= 1 routes)
  QuantileSummary sojourn_ms;  ///< per-batch queue+execute latency, ms

  /// Admission counters attributed to this run: cumulative fields are
  /// deltas against the service's state when run() started; the live
  /// gauges and peak_queued_pairs remain service-lifetime values.
  api::QueueStats queue;
  double seconds = 0.0;  ///< wall clock, first submit to last completion

  // ---- dynamic-run observations (not part of record(): the jsonl row and
  // its goldens are the static schema) --------------------------------------
  std::size_t mutation_steps = 0;   ///< stream steps applied this run
  std::size_t mutation_events = 0;  ///< effective edge events across them
  std::uint64_t final_epoch = 0;    ///< graph epoch when the run ended
  /// Admitted routes reported unreached (needs the service's
  /// tolerate_unreachable; always 0 on a static connected graph).
  std::size_t pairs_unreached = 0;

  // ---- adaptive-admission observations (appended to record() ONLY when
  // adaptive is true, so the static jsonl schema — and its goldens — stay
  // byte-identical for every non-adaptive run) ------------------------------
  /// True when the service ran AdmissionPolicy::kAdaptive in virtual time.
  bool adaptive = false;
  double slo_seconds = 0.0;        ///< the controller's target
  /// Virtual sojourns of THIS run's served batches, milliseconds.
  /// Deterministic (virtual time), unlike sojourn_ms.
  QuantileSummary sojourn_v_ms;
  /// The strict acceptance metric: p99 virtual sojourn within the SLO.
  bool p99_under_slo = false;

  /// Admitted batches' results (submission order), only when
  /// TrafficOptions::keep_results was set; shed batches leave empty slots.
  std::vector<std::vector<routing::RouteResult>> results;

  /// Per-batch rendering: batch | vtime | pairs | depth | sojourn | status.
  [[nodiscard]] Table table() const;

  /// One flat summary row (jsonl trajectories: bench_e12_workload). Counts
  /// and hop/stretch quantiles are seed-deterministic; sojourn quantiles,
  /// seconds, routes_per_sec, and queue-depth fields are wall-clock
  /// observations (golden tests mask them).
  [[nodiscard]] api::Record record() const;
};

/// Feeds workload batches into a RouteService as an open-loop arrival
/// process. The service and workload must outlive the driver; the service's
/// own RouteServiceOptions::admission decides what happens when the driver
/// outruns it.
class TrafficDriver {
 public:
  /// Binds driver to service + workload. Throws on a malformed schedule
  /// spec or zero batches/batch_size.
  TrafficDriver(api::RouteService& service, Workload& workload,
                TrafficOptions options = {});

  /// Runs the full arrival process and waits for every future. One rng pins
  /// the demand (see header comment for the stream layout). Arrivals start
  /// at the service's virtual_horizon(), so repeat runs on one virtual-time
  /// service see the same relative schedule.
  [[nodiscard]] WorkloadReport run(Rng rng);

 private:
  api::RouteService& service_;
  Workload& workload_;
  TrafficOptions options_;
  ArrivalSchedule schedule_;
};

}  // namespace nav::workload
