// invalidation.hpp — incremental distance-oracle repair under mutation.
//
// A mutation invalidates a cached distance row only if it can actually
// change it. For an exact row d(·) = dist(·, t) on the pre-event graph and
// an edge event on {u, v}, write Δ = max(d(u), d(v)) − min(d(u), d(v)):
//
//   * removing {u, v} can change the row  iff Δ == 1  — an edge lies on some
//     shortest-path DAG towards t exactly when its endpoints sit on adjacent
//     BFS levels; any other edge is slack and its removal moves nothing.
//   * adding {u, v} can change the row    iff Δ >= 2  — the new edge offers
//     a shortcut x→u→v (or x→v→u) only when it skips at least one level.
//
// The unsigned max−min form handles unreachability for free: both endpoints
// at kInfDist give Δ == 0 (retained — an edge inside a foreign component
// cannot touch t's distances), one endpoint at kInfDist gives a huge Δ
// (an addition that bridges into t's component is invalidated; a removal
// with exactly one infinite endpoint cannot occur in an exact row, since an
// existing edge bounds its endpoints' distances within 1 of each other).
//
// Scanning a mutation batch sequentially per row is sound by induction: a
// row that passes event i's test is still exact after event i, so event
// i+1's test reads correct values; the first failing event invalidates the
// row and the scan stops.
//
// DynamicOracle wraps either oracle backend behind the same
// graph::DistanceOracle interface and subscribes to a DynamicGraph. The
// backend comes from graph::make_oracle ("auto", "cache" or "matrix": u32
// rows, 64 cache slots), so kAuto follows the one size rule,
// graph::kDenseOracleLimit:
//
//   * TargetDistanceCache backend — invalidated residents are erased (their
//     arena slots recycle; the next query lazily re-BFSes against the
//     mutated CSR); retained residents keep serving hits.
//   * DistanceMatrix backend — every target is always resident, so
//     invalidated rows are eagerly repaired in place (rebuild_rows), one
//     parallel sweep over exactly the affected targets.
//
// The watermark channel reuses the PR 5 epoch-stamp idiom (BfsWorkspace):
// a 16-bit generation counter bumps per effective mutation; every row
// validated under the current generation carries its stamp, and serving a
// row whose stamp disagrees with the watermark is an invalidation bug
// caught by NAV_ASSERT rather than a silently wrong route. On wraparound
// (every 65536 mutations) the oracle takes one defensive full flush — the
// same amortised-O(1) reset the workspace performs — counted separately in
// InvalidationStats::wrap_flushes and covered by a >2^16-epoch stress test.
//
// Mode::kFullFlush keeps the obvious reference behaviour (drop/recompute
// everything per mutation) alive as the differential baseline: the test
// suite proves routed results under kIncremental are bit-identical to
// kFullFlush and to a cold rebuild, across families × churn rates.
//
// Concurrency: queries are as thread-safe as the backend; on_mutation
// requires the DynamicGraph's quiescence contract (no concurrent queries
// during apply()).
#pragma once

/// \file
/// \brief DynamicOracle: epoch-watermarked incremental invalidation of
/// cached distance rows under graph mutation, with a full-flush reference
/// mode and differential counters.

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "dynamic/dynamic_graph.hpp"
#include "graph/distance_oracle.hpp"

namespace nav::dynamic {

using graph::Dist;
using graph::DistVecPtr;

/// Differential counters for the invalidation layer. The bench's acceptance
/// assertion — incremental invalidates strictly fewer targets than a flush —
/// reads targets_retained > 0 here.
struct InvalidationStats {
  std::uint64_t mutations_seen = 0;   ///< effective deltas observed
  std::uint64_t events_seen = 0;      ///< edge events across those deltas
  std::uint64_t targets_scanned = 0;  ///< resident rows tested
  std::uint64_t targets_invalidated = 0;  ///< rows dropped / repaired
  std::uint64_t targets_retained = 0;     ///< rows proven still exact
  std::uint64_t rows_rebuilt = 0;     ///< eager repairs (matrix backend)
  std::uint64_t full_flushes = 0;     ///< whole-oracle drops (kFullFlush)
  std::uint64_t wrap_flushes = 0;     ///< defensive flushes at 2^16 wrap
};

/// Distance oracle over a DynamicGraph that stays exact across mutations.
class DynamicOracle final : public graph::DistanceOracle,
                            public MutationListener {
 public:
  /// Invalidation strategy.
  enum class Mode : std::uint8_t {
    kIncremental,  ///< per-row tightness test; drop/repair only affected rows
    kFullFlush     ///< reference: drop/recompute everything per mutation
  };

  /// Storage strategy behind the oracle interface.
  enum class Backend : std::uint8_t {
    kAuto,    ///< make_oracle("auto"): matrix up to graph::kDenseOracleLimit
    kCache,   ///< TargetDistanceCache (lazy repair)
    kMatrix   ///< DistanceMatrix (eager in-place repair)
  };

  /// Construction knobs.
  struct Options {
    Mode mode = Mode::kIncremental;      ///< invalidation strategy
    Backend backend = Backend::kAuto;    ///< storage selection
  };

  /// Builds the backend over g.graph() and subscribes to g (g must outlive
  /// the oracle).
  DynamicOracle(DynamicGraph& g, Options options);

  /// Default options (kIncremental, kAuto backend).
  explicit DynamicOracle(DynamicGraph& g) : DynamicOracle(g, Options{}) {}

  /// Unsubscribes from the graph.
  ~DynamicOracle() override;

  DynamicOracle(const DynamicOracle&) = delete;             ///< non-copyable
  DynamicOracle& operator=(const DynamicOracle&) = delete;  ///< non-copyable

  // ---- graph::DistanceOracle --------------------------------------------
  [[nodiscard]] Dist distance(graph::NodeId u,
                              graph::NodeId target) const override;
  [[nodiscard]] DistVecPtr distances_to(graph::NodeId target) const override;
  void prefetch_into(std::span<const graph::NodeId> targets,
                     std::vector<DistVecPtr>& out) const override;

  // ---- MutationListener --------------------------------------------------
  /// Runs the per-row tightness test (or the reference flush) against the
  /// delta. Called by DynamicGraph::apply under the quiescence contract.
  void on_mutation(const DynamicGraph& g, const MutationDelta& delta) override;

  // ---- introspection -----------------------------------------------------
  /// Cumulative differential counters.
  [[nodiscard]] InvalidationStats stats() const;
  /// Current 16-bit generation (diagnostics; lets the wraparound stress
  /// assert it actually wrapped).
  [[nodiscard]] std::uint16_t watermark() const;
  /// The selected invalidation strategy.
  [[nodiscard]] Mode mode() const noexcept { return options_.mode; }

  /// The per-row tightness test: true when the event can change the exact
  /// row d (see header comment). Rows of any storage width qualify: entries
  /// are decoded before the unsigned max−min, so a narrow row's sentinel
  /// reads as kInfDist, never as max_finite + 1.
  [[nodiscard]] static bool event_affects_row(const EdgeMutation& event,
                                              const graph::DistRow& row);

 private:
  void flush(const DynamicGraph& g);
  void stamp_validated(graph::NodeId target) const;

  DynamicGraph& graph_;
  Options options_;
  std::unique_ptr<graph::DistanceOracle> backend_;  // from make_oracle
  // Exactly one is non-null: the backend, downcast to its repair surface.
  graph::DistanceMatrix* matrix_ = nullptr;
  graph::TargetDistanceCache* cache_ = nullptr;

  mutable std::mutex mutex_;  // guards stamps_, watermark_, stats_
  mutable std::unordered_map<graph::NodeId, std::uint16_t> stamps_;
  std::uint16_t watermark_ = 0;
  InvalidationStats stats_;
};

}  // namespace nav::dynamic
