// workload.hpp — demand models: who routes to whom.
//
// The paper evaluates augmentation schemes on uniform random (s, t) pairs,
// but navigability is sensitive to the demand distribution (Achlioptas &
// Siminelakis, "Navigability is a Robust Property"), and a routing service
// sees skewed, bursty, locality-biased traffic — not uniform draws. A
// Workload is a deterministic pair generator: given a graph at construction
// and an Rng at draw time, it yields (source, target) pairs; everything
// downstream (TrafficDriver, bench_e12_workload, the Experiment workload
// axis) consumes pairs through this one interface.
//
// Registry specs (make_workload):
//   "uniform"          s, t uniform, s != t — draw-for-draw identical to
//                      routing::select_trial_pairs under PairPolicy::kRandom
//                      (asserted by test), so uniform workloads reproduce
//                      every existing bench's pair stream.
//   "zipf:<s>"         Zipf-popular targets with exponent s over a random
//                      popularity permutation of the nodes; sources uniform.
//                      The skewed-demand case target-sharded prefetch
//                      (api::RouteService) was built for.
//   "local:<r>"        s uniform, t uniform in B(s, r) \ {s}: short-range
//                      demand. Contrast with uniform stresses the far-pair
//                      regime where the sqrt(n)-barrier bites.
//   "adversarial"      far pairs by construction: s uniform, t the farther
//                      of the two double-sweep peripheral endpoints.
//   "hotset:<k>:<p>"   k hot targets (chosen at construction) absorb
//                      probability p; the rest of the demand is uniform.
//   "trace:<path>"     replay of a recorded JSONL trace (one {"s":..,"t":..}
//                      object per line; save_trace/load_trace round-trip),
//                      cycled when the trace is shorter than the demand.
//
// Determinism: a workload's construction randomness (hot sets, popularity
// permutations) comes from the Rng passed to make_workload; draw randomness
// comes from the Rng passed to next()/batch(). Same seeds, same pairs —
// independent of thread count, because generation is always sequential.
#pragma once

/// \file
/// \brief Workload: deterministic (source, target) demand generators behind
/// a registry (uniform / zipf / local / adversarial / hotset / trace).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/rng.hpp"

namespace nav::workload {

/// One demand unit: route from `first` to `second`.
using Pair = std::pair<graph::NodeId, graph::NodeId>;

/// A deterministic (source, target) pair generator over one graph. Stateful
/// only where the model demands it (trace replay position); all randomness
/// comes from the caller's Rng, so one seed pins the full demand stream.
class Workload {
 public:
  virtual ~Workload() = default;  ///< Workloads are deleted through the base.

  /// The registry spec this workload was built from (tables, jsonl rows).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Draws the next (source, target) pair; source != target.
  [[nodiscard]] virtual Pair next(Rng& rng) = 0;

  /// Rewinds internal replay state (trace position). Stateless generators
  /// are no-ops. Lets one constructed workload serve many grid cells with
  /// identical demand — the Experiment axis resets before every cell
  /// instead of reconstructing (adversarial pays BFS sweeps, trace rereads
  /// its file).
  virtual void reset() {}

  /// Draws `count` pairs by repeated next() — the batch shape TrafficDriver
  /// and the Experiment workload axis consume.
  [[nodiscard]] std::vector<Pair> batch(std::size_t count, Rng& rng);
};

/// Owning handle for registry-built workloads.
using WorkloadPtr = std::unique_ptr<Workload>;

/// Builds the workload for `spec` over g (which must outlive the workload).
/// `rng` seeds construction-time randomness only (hot-set choice, zipf
/// popularity permutation); uniform/local/adversarial/trace ignore it.
/// Throws std::invalid_argument on unknown or malformed specs.
[[nodiscard]] WorkloadPtr make_workload(const std::string& spec,
                                        const graph::Graph& g, Rng rng);

/// One registry entry: spec template plus a one-line description.
struct WorkloadInfo {
  std::string spec;         ///< spec template, e.g. "zipf:<s>"
  std::string description;  ///< what demand it models
};

/// The registry contents, in stable order (docs, --help text).
[[nodiscard]] const std::vector<WorkloadInfo>& workload_catalog();

/// All concrete specs suitable for a cross-workload comparison sweep.
[[nodiscard]] std::vector<std::string> standard_workload_specs();

/// Writes pairs as a JSONL trace ({"s": ..., "t": ...} per line) that
/// "trace:<path>" replays. Throws std::runtime_error on I/O failure.
void save_trace(const std::string& path, const std::vector<Pair>& pairs);

/// Parses a JSONL trace file. Throws std::runtime_error when the file can't
/// be opened and std::invalid_argument on malformed lines and on an "s"/"t"
/// that does not fit a NodeId (each "<path>:<line>: ...").
[[nodiscard]] std::vector<Pair> load_trace(const std::string& path);

}  // namespace nav::workload
