// experiment.hpp — fluent sweep grids: family × sizes × workloads × schemes
// × routers.
//
// Replaces the SweepConfig plumbing every bench binary used to re-wire by
// hand. A sweep is declared in one expression and returns structured rows:
//
//   auto result = api::Experiment::on("cycle")
//                     .sizes({1024, 4096})
//                     .workloads({"uniform", "zipf:1.1"})
//                     .schemes({"ball", "ml"})
//                     .routers({"greedy", "lookahead:1"})
//                     .run();
//   std::cout << result.table().to_ascii();
//
// Routers are a sweep axis like schemes ("Navigability is a Robust Property"
// -style grids need both), workloads are a fourth axis (navigability under
// non-uniform demand — the same robustness question from the demand side),
// and results stream to any attached ResultSink (table / CSV / JSON Lines)
// as cells finish, so long sweeps emit trajectories natively.
//
// The workload axis value "uniform" (the default) denotes the classic trial
// pair selection — TrialConfig::policy via select_trial_pairs, bit-identical
// to pre-workload grids. Any other value replaces pair selection with
// workload::make_workload(spec) draws: num_pairs pairs from the demand
// model, the policy field ignored.
//
// Determinism: one seed fixes the whole grid. Cell (size si, workload wi,
// scheme ki, router ri) derives graph, workload, scheme, and trial
// randomness from disjoint child streams of the root, so adding an axis
// value does not perturb the other columns; "uniform" cells keep their
// legacy stream addresses exactly.
#pragma once

/// \file
/// \brief Experiment: fluent sweep grids (family × sizes × mutations ×
/// workloads × schemes × routers) with streamed results.

#include <cstdint>
#include <string>
#include <vector>

#include "api/result_sink.hpp"
#include "graph/graph.hpp"
#include "routing/trial_runner.hpp"
#include "runtime/stats.hpp"

namespace nav::api {

/// One grid cell: (graph source, n) × mutation × oracle × workload × scheme
/// × router.
struct CellResult {
  std::string family;              ///< graph source: family name or file spec
  std::string workload;            ///< workload spec ("uniform" = legacy)
  std::string scheme;              ///< core::make_scheme spec
  std::string router;              ///< routing::make_router spec
  std::string mutations = "none";  ///< dynamic::make_mutation_stream spec
  std::string oracle = "auto";     ///< graph::make_oracle spec
  graph::NodeId n_requested = 0;   ///< size asked of the family
  graph::NodeId n_actual = 0;      ///< size the family produced
  graph::EdgeId m = 0;             ///< edge count (after mutation)
  graph::Dist diameter_lb = 0;     ///< double-sweep lower bound
  double greedy_diameter = 0.0;    ///< max over pairs of mean steps
  double mean_steps = 0.0;         ///< mean over pairs
  double ci_halfwidth = 0.0;       ///< CI at the maximising pair
  double success_rate = 1.0;       ///< fraction of pairs still connected
  double seconds = 0.0;            ///< wall time of the cell
  /// True when the sweep carries an explicit mutations axis; gates the
  /// "mutations"/"success_rate" fields so legacy grids keep their exact
  /// record layout (the BENCH_*.quick.json goldens pin it).
  bool show_mutations = false;
  /// Same gating for the "oracle" field: only an explicit oracles() axis
  /// emits it.
  bool show_oracle = false;

  /// Flat record for ResultSink streaming.
  [[nodiscard]] Record record() const;
};

/// Per-(workload, scheme, router, mutations, oracle) power-law fit of greedy
/// diameter vs n.
struct AxisFit {
  std::string workload;            ///< workload spec of this fit's cells
  std::string scheme;              ///< scheme spec of this fit's cells
  std::string router;              ///< router spec of this fit's cells
  std::string mutations = "none";  ///< mutation spec of this fit's cells
  std::string oracle = "auto";     ///< oracle spec of this fit's cells
  nav::PowerFit fit;               ///< log-log slope (the exponent) and R²
};

/// The finished grid: every cell plus table/fit renderings.
struct ExperimentResult {
  /// Cells ordered size-major, then workload, then scheme, then router.
  std::vector<CellResult> cells;

  /// Paper-style table: family | workload | scheme | router | n | m |
  /// diam>= | greedy-diam | mean | ci | sec.
  [[nodiscard]] Table table() const;

  /// Exponent fits, grid order (workload-major, then scheme, then router).
  [[nodiscard]] std::vector<AxisFit> fits() const;

  /// Renders the fits: workload | scheme | router | exponent | R².
  [[nodiscard]] Table fit_table() const;

  /// Replays every cell into a sink (for post-hoc export).
  void write(ResultSink& sink) const;
};

/// Fluent sweep-grid builder: graph sources × sizes × schemes × routers.
class Experiment {
 public:
  /// Starts a sweep over the named graph::families entry.
  [[nodiscard]] static Experiment on(std::string family);

  /// Starts a sweep over several graph sources — family names and/or
  /// file-backed specs ("file:<path>", "dimacs:<path>"; see
  /// graph::graph_source). on(f) is exactly graphs({f}); a single-source
  /// sweep keeps the legacy RNG streams bit for bit, later sources get
  /// disjoint streams. File-backed sources ignore the sizes() axis value
  /// (the file decides n) and a sweep whose sources are ALL file-backed may
  /// omit sizes() entirely.
  [[nodiscard]] static Experiment graphs(std::vector<std::string> specs);

  /// Node counts to sweep (requested; families may round).
  Experiment& sizes(std::vector<graph::NodeId> sizes);
  /// Workload axis: workload::make_workload specs (default {"uniform"},
  /// which keeps the legacy TrialConfig pair selection bit for bit).
  Experiment& workloads(std::vector<std::string> workload_specs);
  /// Scheme axis: core::make_scheme specs (default {"uniform"}).
  Experiment& schemes(std::vector<std::string> scheme_specs);
  /// Router axis: routing::make_router specs (default {"greedy"}).
  Experiment& routers(std::vector<std::string> router_specs);
  /// Mutation axis: dynamic::make_mutation_stream specs plus the sentinel
  /// "none" (the default {"none"} keeps the legacy static-graph path bit
  /// for bit). Any other spec is applied — one stream step — to a
  /// DynamicGraph copy of the cell's graph before measurement; the scheme
  /// stays the one built on the pristine graph (stale augmentation is the
  /// robustness question), distances come from a fresh oracle on the
  /// mutated graph, and pairs the mutation disconnected are dropped from
  /// the estimate and reported via CellResult::success_rate.
  Experiment& mutations(std::vector<std::string> mutation_specs);
  /// Oracle axis: graph::make_oracle specs (default {"auto"}, the legacy
  /// size-selected backend, bit for bit). Cells across oracle values share
  /// their trial streams — same pairs, same contact draws — so a
  /// landmark-vs-exact column difference isolates the backend's stretch.
  /// Non-"auto" backends are built once per (size, mutation, oracle) cell
  /// block, outside the cell timers.
  Experiment& oracles(std::vector<std::string> oracle_specs);
  /// Random (s, t) pairs per cell (routing::TrialConfig::num_pairs).
  Experiment& pairs(std::size_t num_pairs);
  /// Augmentation redraws per pair (routing::TrialConfig::resamples).
  Experiment& resamples(std::size_t resamples);
  /// How cells pick their (s, t) pairs.
  Experiment& pair_policy(routing::TrialConfig::PairPolicy policy);
  /// Full trial configuration in one call (overrides pairs/resamples).
  Experiment& trials(const routing::TrialConfig& config);
  /// Master seed: one value pins every graph, scheme, and trial draw.
  Experiment& seed(std::uint64_t seed);
  /// Streams each finished cell to `sink` (call repeatedly to stack sinks;
  /// the sink must outlive run()).
  Experiment& stream_to(ResultSink& sink);

  /// The first (often only) graph source this sweep runs on.
  [[nodiscard]] const std::string& family() const noexcept {
    return graph_specs_.front();
  }

  /// Runs the grid; cells ordered source-major, then size, then mutation,
  /// then oracle, then workload, then scheme, then router. Throws
  /// std::invalid_argument on an empty grid or unknown specs.
  [[nodiscard]] ExperimentResult run() const;

 private:
  explicit Experiment(std::vector<std::string> specs)
      : graph_specs_(std::move(specs)) {}

  std::vector<std::string> graph_specs_;
  std::vector<graph::NodeId> sizes_;
  std::vector<std::string> workloads_ = {"uniform"};
  std::vector<std::string> schemes_ = {"uniform"};
  std::vector<std::string> routers_ = {"greedy"};
  std::vector<std::string> mutations_ = {"none"};
  std::vector<std::string> oracles_ = {"auto"};
  routing::TrialConfig trials_;
  std::uint64_t seed_ = 0x5eed;
  std::vector<ResultSink*> sinks_;
};

}  // namespace nav::api
