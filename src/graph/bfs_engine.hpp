// bfs_engine.hpp — the reusable, allocation-free BFS engine.
//
// Every subsystem bottoms out in unweighted BFS: the distance oracle runs
// one sweep per distinct target, the Theorem 4 ball scheme samples from
// B(u, 2^k) millions of times, diameter/pathshape sweep all sources, and
// lookahead routers multiply distance queries per hop. The hot paths
// (oracle, schemes, workloads, decomposition measures) call this engine
// directly; the few free functions in bfs.hpp are thin wrappers over it.
//
// Design:
//
//   * BfsWorkspace owns grow-only scratch (queues, epoch-stamped visited /
//     marker arrays, frontier bitmaps). prepare() opens a fresh traversal in
//     O(1) by bumping a 16-bit generation counter — a node is visited iff
//     its stamp equals the current epoch, so nothing is cleared between
//     traversals. On epoch wraparound (every 65535 prepares) the stamp
//     arrays are re-zeroed once, keeping the reset amortised O(1) and the
//     stale-stamp collision impossible (tested by a >2^16-iteration stress).
//
//   * One full-sweep kernel, row_into<T>, writes a distance row at its
//     storage width (uint8_t / uint16_t / Dist, see dist_slab.hpp) straight
//     into the caller's span — an arena slot, a DistanceMatrix slab row —
//     using the row itself as the visited set. distances_into is its Dist
//     instance; the oracles call it at their slab width. It reports
//     saturation (a reachable node beyond the width's max_finite) exactly,
//     and a warm workspace performs ZERO heap allocations per sweep (proven
//     by the counting-allocator test).
//
//   * On graphs past the size gate the kernel is direction-optimizing
//     (Beamer et al., "Direction-Optimizing Breadth-First Search"): when the
//     frontier's out-edges exceed 1/alpha of the unexplored edges the sweep
//     flips to bottom-up — every unvisited node probes its neighbours, eight
//     per branch, for a frontier member — and flips back once the frontier
//     falls under n/beta. Until the first flip it keeps no visited bitmap
//     and reads no degrees: while frontier size x max degree proves the flip
//     test fails it skips the edge sums, and recovers them exactly from the
//     queue (which then holds every visited node in level order) when that
//     bound first passes. On low-diameter families (hypercube, G(n,p)) the
//     flip is worth 2-4x; high-diameter ones (torus, grid) never flip and
//     pay only the plain top-down sweep. Rows are byte-identical under any
//     schedule by level synchronisation (differential-tested across
//     families and widths).
//
//   * Sparse kernels (ball / farthest) never touch O(n) output: cost is
//     O(|visited| + |edges scanned|) via the epoch stamps.
//     This is what makes the ball scheme's inner sampling loop cheap: ball()
//     also reports |B| at power-of-two depths and can stop after a given
//     number of members, so a scheme that knows |B| pays only up to the
//     member it drew.
//
//   * The visitation primitives (prepare / try_visit / visited / mark /
//     marked / queue) are public so specialised traversals — bag-length
//     measurement in decomposition/measures.cpp, the workload ball sampler —
//     build on the same scratch instead of growing their own.
//
// Workspaces are pooled per worker thread: call local_bfs_workspace() (built
// on runtime/scratch_pool.hpp) from any thread, including nav::parallel_for
// bodies — each thread reuses its private instance with no synchronisation.
// A workspace is NOT re-entrant: one traversal at a time per instance. A
// parallel_for body also runs on the calling thread, so never hold the
// reference across a fan-out whose body uses a workspace.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/dist_slab.hpp"
#include "graph/graph.hpp"

namespace nav::graph {

class BfsWorkspace {
 public:
  // ---- lifecycle --------------------------------------------------------
  /// Opens a fresh traversal over a graph of (at least) n nodes: bumps the
  /// epoch and clears the queue. O(1) amortised; allocates only when n grows
  /// beyond every previous prepare on this instance.
  void prepare(std::size_t n);

  /// Current generation counter (diagnostics; lets the wraparound stress
  /// test assert it actually wrapped).
  [[nodiscard]] std::uint16_t epoch() const noexcept { return epoch_; }

  /// Nodes this workspace can traverse without reallocating.
  [[nodiscard]] std::size_t capacity() const noexcept { return stamp_.size(); }

  // ---- visitation primitives (valid between prepares) -------------------
  /// Marks v visited; true iff v was unvisited this epoch.
  bool try_visit(NodeId v) {
    if (stamp_[v] == epoch_) return false;
    stamp_[v] = epoch_;
    return true;
  }
  [[nodiscard]] bool visited(NodeId v) const { return stamp_[v] == epoch_; }

  /// Second, independent epoch-scoped marker channel (bag membership,
  /// source sets). Lazily sized on first use; wraps with the visited stamps.
  void mark(NodeId v);
  [[nodiscard]] bool marked(NodeId v) const {
    return v < mark_stamp_.size() && mark_stamp_[v] == epoch_;
  }

  /// Scratch queue for custom traversals (also used by the kernels below;
  /// contents are invalidated by any kernel call on this workspace).
  [[nodiscard]] std::vector<NodeId>& queue() noexcept { return queue_; }

  // ---- dense kernels (write a full distance array) -----------------------
  /// Which kernel the last dense sweep on this workspace dispatched to —
  /// the observable surface of the sparse/dense cutover (tests pin it).
  enum class SweepKind : std::uint8_t {
    kNone,                 ///< no dense sweep yet
    kScalarBounded,        ///< frontier-bounded scalar kernel (binding radius)
    kScalarFull,           ///< top-down full sweep (graph under the gate)
    kDirectionOptimizing,  ///< full sweep past the gate (may flip bottom-up)
  };
  [[nodiscard]] SweepKind last_sweep_kind() const noexcept {
    return last_sweep_kind_;
  }

  /// Cumulative dense sweeps dispatched to `kind` on this workspace since
  /// construction — the per-instance tally behind last_sweep_kind(), and the
  /// surface bench_micro's strict sweep-kind gate cells read. Mirrored into
  /// the process-wide `bfs.sweep_*` registry counters.
  [[nodiscard]] std::uint64_t sweep_count(SweepKind kind) const noexcept {
    return sweep_tally_[static_cast<std::size_t>(kind)];
  }

  /// Top-down -> bottom-up switches in the last full sweep (row_into or
  /// distances_into without a binding radius), and the levels it expanded
  /// bottom-up: both 0 under the size gate and on graphs whose frontiers
  /// never explode. Tests pin the flip schedule with them.
  [[nodiscard]] std::uint32_t last_flip_count() const noexcept {
    return last_flips_;
  }
  [[nodiscard]] std::uint32_t last_bottom_up_levels() const noexcept {
    return last_bottom_up_levels_;
  }

  /// Single-source distances into out (size n; unreached entries get
  /// kInfDist). radius == kInfDist runs the full sweep, row_into<Dist>; a
  /// finite radius runs the frontier-bounded scalar kernel (nodes farther
  /// than radius keep kInfDist). A finite radius >= n-1 can never bind (all
  /// finite distances are <= n-1), so it is explicitly promoted to the full
  /// sweep instead of silently degrading to a bounded scan of the whole
  /// graph — last_sweep_kind() exposes the decision. Zero allocations once
  /// warm.
  void distances_into(const Graph& g, NodeId source, std::span<Dist> out,
                      Dist radius = kInfDist);

  /// The full sweep at a row's storage width: T is std::uint8_t,
  /// std::uint16_t or Dist, and out (size n) gets d(source, v) with
  /// unreached entries at T's sentinel (numeric max). Direction-optimizing
  /// once the graph clears the size gate, plain top-down below it (the
  /// kDirectionOptimizing / kScalarFull sweep kinds). Returns true iff some
  /// reachable node lies farther than max_finite of the width — the row is
  /// then saturated and invalid; its entries beyond max_finite keep the
  /// sentinel, exactly as packing the Dist row would store them.
  template <typename T>
  bool row_into(const Graph& g, NodeId source, std::span<T> out);

  /// row_into at a runtime width: dst holds n * width_bytes(width) bytes.
  bool row_into(const Graph& g, NodeId source, DistWidth width,
                std::uint8_t* dst);

  /// The frontier-bounded scalar kernel behind finite-radius
  /// distances_into — public so differential tests and bench_micro can
  /// run it at any radius.
  void distances_into_scalar(const Graph& g, NodeId source, std::span<Dist> out,
                             Dist radius = kInfDist);

  // ---- sparse kernels (cost O(|ball|), no O(n) output) -------------------
  /// No cap on the members ball() discovers.
  static constexpr std::size_t kAllMembers = static_cast<std::size_t>(-1);

  /// The ball B(center, radius) in BFS (distance, id) order.
  struct BallView {
    /// Members in discovery order, center first. Points into the workspace
    /// queue: valid until the next kernel call or prepare on this instance.
    std::span<const NodeId> order;
    /// True when the ball swallowed the whole graph at depth <= radius; the
    /// expansion stops there (further levels cannot add members).
    bool whole_graph = false;
    /// The depth at which that happened (an eccentricity upper bound for
    /// center); 0 when whole_graph is false.
    Dist exhausted_depth = 0;
    /// pow2_sizes[j] = |B(center, 2^j)| for every depth 2^j the traversal
    /// settled: each one it completed and, once the ball stopped growing
    /// (whole graph or center's component exhausted), every larger one.
    /// 0 where unknown.
    std::array<std::uint32_t, 32> pow2_sizes{};
  };
  /// With max_members, expansion stops once at least that many members are
  /// discovered: order is then a prefix of the full ball's order (same
  /// nodes, same positions), and the fields above describe only the levels
  /// completed before the stop.
  [[nodiscard]] BallView ball(const Graph& g, NodeId center, Dist radius,
                              std::size_t max_members = kAllMembers);

  /// Farthest reachable node (smallest id among ties) and its distance —
  /// the distance is source's eccentricity within its component.
  [[nodiscard]] FarthestResult farthest(const Graph& g, NodeId source);

 private:
  void count_sweep(SweepKind kind);
  void ensure_bitmaps(std::size_t words);

  std::vector<std::uint16_t> stamp_;       // visited iff stamp_[v] == epoch_
  std::vector<std::uint16_t> mark_stamp_;  // marked  iff mark_stamp_[v] == epoch_
  std::uint16_t epoch_ = 0;
  SweepKind last_sweep_kind_ = SweepKind::kNone;
  std::uint32_t last_flips_ = 0;
  std::uint32_t last_bottom_up_levels_ = 0;
  std::uint64_t sweep_tally_[4] = {0, 0, 0, 0};  // indexed by SweepKind
  std::vector<NodeId> queue_;
  // row_into's level queue: grow-only, sized to n, indexed by a tail counter.
  std::vector<NodeId> row_queue_;
  // Direction-optimizing scratch: current/next frontier and visited bitmaps.
  std::vector<std::uint64_t> front_bits_, next_bits_, visited_bits_;
};

/// The calling thread's pooled workspace (one per worker thread, via
/// runtime/scratch_pool.hpp). Safe from parallel_for bodies; never hold the
/// reference across a point where the same thread may re-enter the engine,
/// such as a parallel_for whose body uses a workspace (bodies run on the
/// caller too).
[[nodiscard]] BfsWorkspace& local_bfs_workspace();

}  // namespace nav::graph
