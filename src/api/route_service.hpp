// route_service.hpp — always-on batch routing with target-sharded oracle
// prefetch.
//
// Routing a mixed batch pair by pair thrashes a TargetDistanceCache: each
// pair whose target was evicted pays a fresh BFS. RouteService has one
// execute path that pays exactly one BFS per distinct target per batch,
// whatever the cache capacity, pool width or request order:
//
//   1. shard the batch by target (order of first appearance),
//   2. fetch the shard targets in waves of at most kMaxPinnedTargets
//      (fetch_wave: one batched prefetch, one BFS per miss farmed across the
//      pool; the rows stay pinned for the wave, immune to LRU eviction),
//   3. execute the wave's shards across the pool (parallel_for's claim loop —
//      shards are uneven), each routing through its pinned row
//      (Router::route_row), so no pool task ever queries the oracle,
//   4. inside a shard, route pairs in request order.
//
// Determinism: pair i of route_batch draws from rng.child(i) whatever shard
// it lands in, and routes are pure functions of (s, t, scheme, rng state),
// so results are bit-identical to sequential routing at any pool width.
// Both fan-outs run on the calling thread as well as the pool and wait only
// for their own indices, so route_batch / route_jobs / estimate_diameter
// may be called from any thread, a pool task included; submit()'s batches
// run on the service's own thread.
//
// "Always-on": submit() enqueues a batch on a lazily started service thread
// and returns a std::future; batches execute FIFO and the destructor drains
// the queue. RouteServiceOptions::admission bounds that queue: Unbounded,
// Bounded (backpressure on the producer), Shed (drop batches that waited
// past a deadline) or Adaptive (an AIMD window over admitted work); the
// AdmissionPolicy takes every admission decision.
//
// The service runs on ONE clock, fixed at construction. With
// virtual_pair_cost_seconds > 0 it is virtual time: batches arrive at the
// submitter's finite, non-decreasing virtual times (submit's vtime
// overload), a batch of P pairs costs P * virtual_pair_cost_seconds plus any
// latency the fault layer injected, and every admission decision is a pure
// function of arrival times and batch sizes. Otherwise it is the steady wall
// clock. Shed and Adaptive both measure a batch's wait as start - arrival on
// that clock.
//
// Resilience: when the oracle injects transient faults
// (resilience::FaultyOracle), fetch_wave retries a wave's FAILED SUBSET with
// exponential virtual-time backoff, then falls back to a degraded
// oracle/router pair (RouteServiceOptions::resilience), and RouteReport
// classifies every pair. With a fault-free oracle none of that code runs.
#pragma once

/// \file
/// \brief RouteService: always-on batch routing with target-sharded oracle
/// prefetch.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "obs/metrics.hpp"
#include "resilience/virtual_clock.hpp"
#include "routing/router.hpp"
#include "routing/trial_runner.hpp"
#include "runtime/assert.hpp"

namespace nav::api {

/// One routing job: a (source, target) pair plus the private rng stream the
/// route consumes. Batch drivers that need a custom stream layout (e.g. the
/// trial estimator's pair×replicate grid) build jobs directly; plain batches
/// go through route_batch, which derives job i's stream as rng.child(i).
struct RouteJob {
  /// Start node of the route.
  graph::NodeId source = 0;
  /// Destination node; jobs sharing a target share one BFS.
  graph::NodeId target = 0;
  /// Private randomness for this route's lazy contact draws.
  Rng rng;
};

/// Thrown through a submit() future when admission drops the batch: Shed
/// (it aged past the deadline in the queue) or Adaptive (the controller's
/// window had no room). Carries the structured context of the drop — wait,
/// batch size, queue depth — so drivers can aggregate without parsing what().
/// A consumer that reads the caught error should hold the batch's state in a
/// shared_future (`future.share()`) until its handler returns, so the
/// error's release is ordered through a reference count ThreadSanitizer can
/// see (TrafficDriver::run does this).
class ShedError : public std::runtime_error {
 public:
  /// Why the batch was dropped.
  enum class Reason : std::uint8_t {
    kDeadline,  ///< Shed: queued longer than the policy deadline
    kRejected   ///< Adaptive: admitting it would overflow the AIMD window
  };

  ShedError(Reason reason, double waited_seconds, std::size_t batch_pairs,
            std::size_t queue_depth_pairs)
      : std::runtime_error(
            "batch of " + std::to_string(batch_pairs) + " pairs " +
            (reason == Reason::kDeadline ? "shed after " : "rejected after ") +
            std::to_string(waited_seconds) + "s in queue (" +
            std::to_string(queue_depth_pairs) + " pairs behind it)"),
        reason_(reason),
        waited_seconds_(waited_seconds),
        batch_pairs_(batch_pairs),
        queue_depth_pairs_(queue_depth_pairs) {}

  /// Deadline aging (Shed) vs window rejection (Adaptive).
  [[nodiscard]] Reason reason() const noexcept { return reason_; }
  /// How long the batch waited before the drop, in seconds on the service's
  /// clock (virtual seconds on a virtual-time service).
  [[nodiscard]] double waited_seconds() const noexcept {
    return waited_seconds_;
  }
  /// Pairs in the dropped batch.
  [[nodiscard]] std::size_t batch_pairs() const noexcept {
    return batch_pairs_;
  }
  /// Pairs still queued behind the batch at the moment it was dropped.
  [[nodiscard]] std::size_t queue_depth_pairs() const noexcept {
    return queue_depth_pairs_;
  }

 private:
  Reason reason_;
  double waited_seconds_;
  std::size_t batch_pairs_;
  std::size_t queue_depth_pairs_;
};

/// Admission policy for the submit() queue (route_batch/route_jobs run on
/// the caller's thread and are never queued, so admission does not apply).
/// The fields configure it; the member functions take every admission
/// decision and own the Adaptive window. RouteService calls them on its own
/// copy, under its queue mutex.
struct AdmissionPolicy {
  /// How submit() reacts when demand outruns the service.
  enum class Kind : std::uint8_t {
    kUnbounded,  ///< queue every batch (the original FIFO)
    kBounded,    ///< block the producer until the queue has room
    kShed,       ///< drop batches that queued longer than the deadline
    kAdaptive    ///< AIMD window targeting a p99 virtual-sojourn SLO
  };
  /// Selected behaviour; the other fields apply per kind.
  Kind kind = Kind::kUnbounded;
  /// kBounded: max pairs waiting in the queue. A batch larger than the bound
  /// is admitted when the queue is empty (no single-batch deadlock).
  std::size_t max_queued_pairs = 0;
  /// kShed: a batch that waited longer than this many seconds (on the
  /// service's clock) is shed at dequeue; its future fails with ShedError.
  double deadline_seconds = 0.0;
  /// kAdaptive: the controller's target — a served batch whose virtual
  /// sojourn (arrival -> completion) exceeds this breaches the SLO and
  /// shrinks the window. Requires a virtual-time service
  /// (virtual_pair_cost_seconds > 0, checked at construction).
  double slo_seconds = 0.0;

  /// kAdaptive window, in pairs: it opens at kAdaptiveStartPairs, grows by
  /// kAdaptiveIncreasePairs per SLO-respecting batch, and halves on a breach
  /// but never below kAdaptiveMinPairs (so the service keeps serving).
  static constexpr std::size_t kAdaptiveStartPairs = 64;
  static constexpr std::size_t kAdaptiveMinPairs = 16;
  static constexpr std::size_t kAdaptiveIncreasePairs = 16;

  /// The original unbounded FIFO (default).
  [[nodiscard]] static AdmissionPolicy unbounded() { return {}; }
  /// Backpressure: block submit() while `max_queued_pairs` pairs wait.
  /// bounded(0) is the degenerate-but-valid full serialization: every batch
  /// waits for an empty queue.
  [[nodiscard]] static AdmissionPolicy bounded(std::size_t max_queued_pairs) {
    AdmissionPolicy policy;
    policy.kind = Kind::kBounded;
    policy.max_queued_pairs = max_queued_pairs;
    return policy;
  }
  /// Load shedding: drop batches older than `deadline_seconds` at dequeue.
  /// Throws std::invalid_argument on a negative deadline (which would shed
  /// every batch — say shed(0.0) if that is really what you mean).
  [[nodiscard]] static AdmissionPolicy shed(double deadline_seconds) {
    NAV_REQUIRE(deadline_seconds >= 0.0, "shed deadline must be >= 0");
    AdmissionPolicy policy;
    policy.kind = Kind::kShed;
    policy.deadline_seconds = deadline_seconds;
    return policy;
  }
  /// SLO-driven adaptive admission: AIMD over an admitted-work window in
  /// pairs, targeting a virtual-sojourn SLO of `slo_seconds` per batch.
  /// Deterministic: every decision is a pure function of virtual arrival
  /// times, batch sizes, and FIFO order.
  [[nodiscard]] static AdmissionPolicy adaptive(double slo_seconds) {
    NAV_REQUIRE(slo_seconds > 0.0, "adaptive SLO must be > 0");
    AdmissionPolicy policy;
    policy.kind = Kind::kAdaptive;
    policy.slo_seconds = slo_seconds;
    return policy;
  }

  /// At submit(): may `incoming` pairs join `queued_pairs` waiting ones?
  [[nodiscard]] bool has_room(std::size_t queued_pairs,
                              std::size_t incoming) const noexcept {
    return kind != Kind::kBounded || queued_pairs == 0 ||
           queued_pairs + incoming <= max_queued_pairs;
  }
  /// At dequeue: why a batch of `pairs` that waited `waited_seconds` (a
  /// backlog of waited_seconds / pair_cost_seconds pairs) is dropped, or
  /// nullopt to serve it.
  [[nodiscard]] std::optional<ShedError::Reason> verdict(
      double waited_seconds, std::size_t pairs, double pair_cost_seconds);
  /// After a batch was served with virtual sojourn `sojourn_seconds`: the
  /// AIMD update (kAdaptive only).
  void served(double sojourn_seconds);
  /// Points the SLO-breach counter and the window gauge at the service's
  /// registry (kAdaptive; no-ops until then).
  void attach(obs::Counter slo_breaches, obs::Gauge window) noexcept {
    slo_breaches_ = std::move(slo_breaches);
    window_ = std::move(window);
  }

 private:
  std::size_t window_pairs_ = 0;  // 0 until the first kAdaptive verdict
  obs::Counter slo_breaches_;
  obs::Gauge window_;
};

/// Live queue depth plus cumulative admission counters (queue_stats()): a
/// point-in-time view over the service's `route_service.*` and
/// `resilience.*` registry metrics, read under the queue mutex through one
/// field-to-metric table (route_service.cpp), which since() reuses.
struct QueueStats {
  std::size_t queued_batches = 0;     ///< batches waiting right now
  std::size_t queued_pairs = 0;       ///< pairs waiting right now
  std::size_t peak_queued_pairs = 0;  ///< high-water mark of queued_pairs
  std::size_t submitted_batches = 0;  ///< batches ever accepted by submit()
  std::size_t submitted_pairs = 0;    ///< pairs ever accepted by submit()
  std::size_t executed_batches = 0;   ///< batches dequeued and routed
  std::size_t shed_batches = 0;       ///< batches aged out by Shed admission
  std::size_t shed_pairs = 0;         ///< pairs aged out by Shed admission
  std::size_t rejected_batches = 0;   ///< batches refused by Adaptive window
  std::size_t rejected_pairs = 0;     ///< pairs refused by Adaptive window
  std::size_t blocked_submits = 0;    ///< submits that had to wait (Bounded)
  // Degradation counters (resilience.* metrics; zero on a fault-free stack).
  std::size_t retries = 0;             ///< prefetch retry rounds taken
  std::size_t fallback_pairs = 0;      ///< pairs routed via the fallback
  std::size_t degraded_pairs = 0;      ///< pairs completed degraded
  std::size_t failed_pairs = 0;        ///< pairs with no usable row at all
  std::size_t slo_breaches = 0;        ///< Adaptive: served-over-SLO batches
  std::size_t adaptive_window_pairs = 0;  ///< Adaptive: live window size

  /// This view minus an earlier one of the same service: cumulative counters
  /// become deltas; the gauges (queued_*, the lifetime peak_queued_pairs,
  /// adaptive_window_pairs) keep this view's values.
  [[nodiscard]] QueueStats since(const QueueStats& before) const;
};

/// How a pair's route was produced, per RouteReport entry. Order matters:
/// later values are strictly worse, so drivers can fold with std::max.
enum class DegradationStatus : std::uint8_t {
  kExact,     ///< routed on the primary oracle's row and reached the target
  kDegraded,  ///< completed, but via fallback rows, a stalled (bound-only)
              ///< row that did not reach, or a tolerated-unreachable pair
  kShed,      ///< never executed: dropped by Shed/Adaptive admission
  kFailed     ///< executed but unroutable: no usable distance row survived
};

/// The fallback tier the service routes through when the oracle's
/// resilience::TransientOracleError outlives kMaxRetries retry rounds.
/// Default: no fallback tier.
struct ResilienceOptions {
  /// Retry rounds per prefetch wave before giving up on a target. Each
  /// round retries only the still-failing subset (the oracle's partial-
  /// success contract fills everything else), so convergence is per-target.
  static constexpr std::size_t kMaxRetries = 3;
  /// Virtual backoff before retry round k: kBackoffBaseSeconds * 2^(k-1),
  /// advanced on the virtual clock — deterministic, never a real sleep.
  static constexpr double kBackoffBaseSeconds = 1e-3;
  /// Degraded oracle consulted for targets whose retries are exhausted
  /// (e.g. a landmark oracle — approximate but fault-free). Must outlive
  /// the service. nullptr = no fallback tier.
  const graph::DistanceOracle* fallback_oracle = nullptr;
  /// Router used for fallback rows; must accept inexact distances
  /// (Router{exact = false}). nullptr routes fallback rows with the primary
  /// router. Setting it without a fallback_oracle is rejected.
  const routing::Router* fallback_router = nullptr;
};

/// Execution knobs for RouteService. The global pool's width alone decides
/// fan-out; results are bit-identical at any width.
struct RouteServiceOptions {
  /// How submit() admits batches when demand outruns the service.
  AdmissionPolicy admission;
  /// Report a pair the service cannot route as RouteResult{reached = false,
  /// initial_distance = kInfDist, steps = 0} instead of throwing: kDegraded
  /// when it is unreachable, kFailed when its target has no usable row after
  /// the retries and no fallback tier (instead of failing the whole batch
  /// with the oracle's TransientOracleError). The dynamic-graph and chaos
  /// posture: a robustness bench wants the success *rate*.
  bool tolerate_unreachable = false;
  /// Registry the service records its `route_service.*` metrics into.
  /// nullptr (default) gives the service a private registry — multiple
  /// services never collide on metric names — reachable via metrics().
  /// Pass &obs::default_registry() to fold the service into the process-wide
  /// scrape surface (what examples/route_server.cpp does for --metrics-out).
  obs::Registry* metrics = nullptr;
  /// Picks the service's clock. 0 (default): steady wall-clock time. > 0:
  /// virtual time, where a batch of P pairs costs P * this many virtual
  /// seconds plus any virtual time the fault layer injected while executing
  /// it, and batches must arrive through submit's vtime overload. Must be
  /// finite and >= 0.
  double virtual_pair_cost_seconds = 0.0;
  /// Degraded-mode behaviour under transient oracle faults.
  ResilienceOptions resilience;
};

/// Where one pinned row of a prefetch wave came from (fetch_wave).
enum class RowSource : std::uint8_t {
  kPrimary,   ///< the service's own oracle (possibly after retries)
  kFallback,  ///< the degraded fallback oracle
  kNone       ///< no usable row: retries exhausted, no fallback, tolerated
};

/// One prefetch wave's pinned rows, in target order (rows[k] is null when
/// source[k] is kNone). Reused across waves: after the first wave its
/// containers allocate nothing.
struct WaveRows {
  std::vector<graph::DistVecPtr> rows;  ///< distance row toward target k
  std::vector<RowSource> source;        ///< how rows[k] was obtained
  std::size_t retries = 0;              ///< retry rounds the wave took
};

/// The resilience ladder over one wave: prefetch `targets` from `oracle` in
/// one batch; retry the failing subset for up to kMaxRetries rounds, round k
/// after kBackoffBaseSeconds * 2^(k-1) of `clock` time; then take the rest
/// from `fallback` (one prefetch_into wave), or mark it kNone when
/// `tolerate`, or throw resilience::TransientOracleError naming exactly the
/// dead targets.
void fetch_wave(const graph::DistanceOracle& oracle,
                std::span<const graph::NodeId> targets,
                const graph::DistanceOracle* fallback, bool tolerate,
                resilience::VirtualClock& clock, WaveRows& out);

/// Execution telemetry for one batch.
struct BatchReport {
  /// Jobs in the batch.
  std::size_t pairs = 0;
  /// Distinct route targets in the batch (= shards handed to the pool).
  std::size_t distinct_targets = 0;
  /// Wall-clock seconds spent executing the batch.
  double seconds = 0.0;
};

/// A batch's results plus its per-pair degradation story — what route_batch
/// and route_jobs return and what submit() tallies into the resilience
/// counters. With a fault-free oracle every status is kExact (or kDegraded
/// only for tolerated-unreachable pairs).
struct RouteReport {
  /// Route result i corresponds to input pair (or job) i.
  std::vector<routing::RouteResult> results;
  /// status[i] classifies how results[i] was produced.
  std::vector<DegradationStatus> status;
  std::size_t exact_pairs = 0;     ///< status == kExact
  std::size_t degraded_pairs = 0;  ///< status == kDegraded
  std::size_t failed_pairs = 0;    ///< status == kFailed
  /// Prefetch retry rounds this batch consumed.
  std::size_t retries = 0;
  /// Pairs routed through the fallback oracle/router tier.
  std::size_t fallback_pairs = 0;
  /// The plain execution telemetry.
  BatchReport batch;
};

/// Batch routing engine over one graph + oracle + scheme + router. All
/// referenced components must outlive the service; the service itself is
/// immutable apart from its queue and metrics, and safe for concurrent
/// route_batch calls.
class RouteService {
 public:
  /// Shards execute in waves of at most this many targets; each wave's
  /// distance rows are prefetched in one batch and pinned for the wave's
  /// duration, bounding peak pinned memory at
  /// kMaxPinnedTargets × n × width_bytes(oracle width) bytes per batch.
  static constexpr std::size_t kMaxPinnedTargets = 512;

  /// Wraps explicit components (the Experiment per-cell path). `scheme` may
  /// be null: local links only. Throws std::invalid_argument on inconsistent
  /// options (see RouteServiceOptions / ResilienceOptions).
  RouteService(const graph::Graph& g, const graph::DistanceOracle& oracle,
               const core::AugmentationScheme* scheme,
               const routing::Router& router, RouteServiceOptions options = {});

  /// Wraps a NavigationEngine's current components. The engine must outlive
  /// the service and keep its scheme/router selection unchanged meanwhile.
  explicit RouteService(const NavigationEngine& engine,
                        RouteServiceOptions options = {});

  /// Drains the submit() queue (every returned future completes), then
  /// stops the service thread.
  ~RouteService();

  /// Non-copyable: the service owns a queue and (lazily) a thread.
  RouteService(const RouteService&) = delete;
  /// Non-copyable: the service owns a queue and (lazily) a thread.
  RouteService& operator=(const RouteService&) = delete;

  /// Routes a batch; result i corresponds to pairs[i] and draws from
  /// rng.child(i) — bit-identical to routing the pairs one by one.
  [[nodiscard]] RouteReport route_batch(
      std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
      Rng rng) const;

  /// The execute path every batch takes: runs pre-built jobs (result i =
  /// jobs[i]), each on its own stream, in target-sharded waves.
  [[nodiscard]] RouteReport route_jobs(std::span<const RouteJob> jobs) const;

  /// Enqueues a batch on the service thread and returns its future. Batches
  /// execute FIFO; each still fans its shards across the thread pool.
  /// Admission applies here (see RouteServiceOptions::admission): Bounded
  /// may block the caller until the queue has room; Shed and Adaptive may
  /// later fail the returned future with ShedError. The batch arrives now on
  /// the steady clock. Throws std::invalid_argument on a virtual-time
  /// service (use the vtime overload) and when the service is stopping
  /// (including producers woken from a Bounded wait by destruction).
  [[nodiscard]] std::future<std::vector<routing::RouteResult>> submit(
      std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng);

  /// submit() with a VIRTUAL arrival time (seconds on the driver's virtual
  /// axis, e.g. workload::ArrivalSchedule times). On a virtual-time service
  /// the batch arrives at `arrival_vtime`, which must be finite and no
  /// earlier than the previous submit's (FIFO order is the virtual order);
  /// otherwise this throws std::invalid_argument. A steady-time service
  /// ignores `arrival_vtime`.
  [[nodiscard]] std::future<std::vector<routing::RouteResult>> submit(
      std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng,
      double arrival_vtime);

  /// Freezes dequeueing: submitted batches accumulate (and age, under Shed)
  /// until resume(). Lets tests and drain-style drivers build a queue of
  /// known depth deterministically. Destruction drains even while paused.
  void pause();

  /// Resumes dequeueing after pause().
  void resume();

  /// Live queue depth and cumulative admission counters — a snapshot view
  /// over the `route_service.*` registry metrics (see metrics()).
  [[nodiscard]] QueueStats queue_stats() const;

  /// The registry this service records into: the injected one
  /// (RouteServiceOptions::metrics) or the service's own. Scrape it for the
  /// queue/admission counters plus the sojourn and execution histograms.
  [[nodiscard]] obs::Registry& metrics() const { return *metrics_; }

  /// Greedy-diameter estimation over `pairs`, routed as one batch: pair p,
  /// replicate r draws from rng.child(p + 1).child(r) and the grid folds
  /// through routing::fold_trial_grid. This is the library's one
  /// Monte-Carlo path: callers pass the routing::trial_pairs selection for
  /// the classic estimate (as Experiment and the benches do), or workload
  /// pairs (the Experiment workload axis).
  [[nodiscard]] routing::GreedyDiameterEstimate estimate_diameter(
      const routing::TrialConfig& config, Rng rng,
      std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs) const;

  /// The options the service was built with (drivers read the virtual pair
  /// cost and the admission policy back).
  [[nodiscard]] const RouteServiceOptions& options() const noexcept {
    return options_;
  }

  /// Virtual sojourn (arrival -> completion, virtual seconds) of every
  /// batch a virtual-time service has served so far, in completion order;
  /// empty on a steady-time service. Drivers slice this to compute windowed
  /// p99s against an SLO.
  [[nodiscard]] std::vector<double> virtual_sojourns() const;

  /// The earliest virtual instant a new arrival stream may start at: the
  /// later of the last submitted arrival and the instant the virtual server
  /// frees (0 on a fresh or steady-time service). Drivers offset a run's
  /// arrivals past it so one virtual-time service serves successive runs.
  [[nodiscard]] double virtual_horizon() const;

 private:
  struct PendingBatch {
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
    Rng rng;
    std::promise<std::vector<routing::RouteResult>> promise;
    /// Arrival on the service's clock (virtual or steady seconds).
    double arrival = 0.0;
  };

  /// A QueueStats row's registry handle: a counter, or a gauge.
  struct StatHandle {
    obs::Counter counter;
    obs::Gauge gauge;
  };

  /// Registers one tier of QueueStats rows (see the row table in the .cpp;
  /// under queue_mutex_ once the service is shared).
  void register_stats(std::uint8_t tier) const;

  void service_loop();

  const graph::Graph& graph_;
  const graph::DistanceOracle& oracle_;
  const core::AugmentationScheme* scheme_;  // may be null
  const routing::Router& router_;
  RouteServiceOptions options_;
  bool virtual_time_ = false;  // virtual_pair_cost_seconds > 0

  // Metric storage. The owned registry backs metrics_ unless options.metrics
  // injected an external one. stats_ holds one handle per QueueStats row, in
  // the row table's order; an unregistered row is a read-as-zero no-op.
  // Every row is written ONLY under queue_mutex_, so queue_stats() (which
  // reads under the same mutex) sees exact values — the mutex provides the
  // happens-before the relaxed shard cells need. Mutable because resilience
  // rows register and count inside const route_jobs, on the thread that ran
  // it (never from pool tasks).
  obs::Registry owned_metrics_;
  obs::Registry* metrics_ = nullptr;
  mutable std::vector<StatHandle> stats_;
  mutable bool resilience_registered_ = false;
  obs::HistogramHandle batch_pairs_hist_;
  obs::HistogramHandle queue_wait_ms_hist_;
  obs::HistogramHandle exec_ms_hist_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;        // work available / stopping
  std::condition_variable queue_space_cv_;  // room freed (Bounded waiters)
  std::deque<PendingBatch> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  std::thread service_thread_;  // started lazily by submit()

  // Serving state (all under queue_mutex_). admission_ is the live copy of
  // options_.admission that owns the Adaptive window; vfree_ is the virtual
  // instant the single logical server becomes free. The window and the
  // sojourn log are pure functions of (arrival vtimes, batch sizes, FIFO
  // order, injected fault latency) — no wall clock anywhere.
  AdmissionPolicy admission_;
  double vfree_ = 0.0;
  double last_arrival_ = -std::numeric_limits<double>::infinity();
  std::vector<double> virtual_sojourns_;
};

}  // namespace nav::api
