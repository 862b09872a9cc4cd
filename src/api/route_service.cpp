#include "api/route_service.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <unordered_map>

#include "obs/trace.hpp"
#include "resilience/fault_spec.hpp"
#include "resilience/virtual_clock.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/timer.hpp"

namespace nav::api {

namespace {

/// Adaptive admission's multiplicative decrease: an SLO breach halves the
/// admitted-work window.
constexpr double kAdaptiveDecrease = 0.5;

/// The steady clock in seconds: a steady-time service's arrival and start
/// instants.
double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// QueueStats rows, in kStatRows order (the index into RouteService's
/// stats_ handles).
enum Stat : std::uint8_t {
  kQueuedBatches, kQueuedPairs, kPeakQueuedPairs, kSubmittedBatches,
  kSubmittedPairs, kExecutedBatches, kShedBatches, kShedPairs,
  kRejectedBatches, kRejectedPairs, kBlockedSubmits, kRetries,
  kFallbackPairs, kDegradedPairs, kFailedPairs, kSloBreaches,
  kAdaptiveWindowPairs, kStatCount
};

/// When a QueueStats row's metric registers: at construction, at
/// construction under kAdaptive only, or on the first degradation event —
/// so a fault-free, non-adaptive service scrapes only the queue rows.
enum StatTier : std::uint8_t { kQueueTier, kAdaptiveTier, kResilienceTier };

/// One QueueStats field and the registry metric it views.
struct StatRow {
  const char* metric;
  std::size_t QueueStats::*field;
  bool gauge;  // a live value: since() keeps it, registers as a gauge
  StatTier tier;
};

/// The one QueueStats table: queue_stats() reads it, QueueStats::since()
/// differences it, and register_stats() registers it tier by tier, in this
/// order.
constexpr std::array<StatRow, kStatCount> kStatRows = {{
    {"route_service.queued_batches", &QueueStats::queued_batches, true,
     kQueueTier},
    {"route_service.queued_pairs", &QueueStats::queued_pairs, true,
     kQueueTier},
    {"route_service.peak_queued_pairs", &QueueStats::peak_queued_pairs, true,
     kQueueTier},
    {"route_service.submitted_batches", &QueueStats::submitted_batches, false,
     kQueueTier},
    {"route_service.submitted_pairs", &QueueStats::submitted_pairs, false,
     kQueueTier},
    {"route_service.executed_batches", &QueueStats::executed_batches, false,
     kQueueTier},
    {"route_service.shed_batches", &QueueStats::shed_batches, false,
     kQueueTier},
    {"route_service.shed_pairs", &QueueStats::shed_pairs, false, kQueueTier},
    {"route_service.rejected_batches", &QueueStats::rejected_batches, false,
     kAdaptiveTier},
    {"route_service.rejected_pairs", &QueueStats::rejected_pairs, false,
     kAdaptiveTier},
    {"route_service.blocked_submits", &QueueStats::blocked_submits, false,
     kQueueTier},
    {"resilience.retries", &QueueStats::retries, false, kResilienceTier},
    {"resilience.fallback_routes", &QueueStats::fallback_pairs, false,
     kResilienceTier},
    {"resilience.degraded_pairs", &QueueStats::degraded_pairs, false,
     kResilienceTier},
    {"resilience.failed_pairs", &QueueStats::failed_pairs, false,
     kResilienceTier},
    {"route_service.slo_breaches", &QueueStats::slo_breaches, false,
     kAdaptiveTier},
    {"route_service.adaptive_window_pairs", &QueueStats::adaptive_window_pairs,
     true, kAdaptiveTier},
}};

}  // namespace

std::optional<ShedError::Reason> AdmissionPolicy::verdict(
    double waited_seconds, std::size_t pairs, double pair_cost_seconds) {
  if (kind == Kind::kShed && waited_seconds > deadline_seconds) {
    return ShedError::Reason::kDeadline;
  }
  if (kind != Kind::kAdaptive) return std::nullopt;
  if (window_pairs_ == 0) {
    window_pairs_ = kAdaptiveStartPairs;
    window_.set(static_cast<std::int64_t>(window_pairs_));
  }
  // Reject iff the server is already behind AND admitting this batch would
  // push the backlog past the window. An idle server always admits (no
  // single-batch livelock, mirroring Bounded).
  const double backlog_pairs = waited_seconds / pair_cost_seconds;
  if (backlog_pairs > 0.0 && backlog_pairs + static_cast<double>(pairs) >
                                 static_cast<double>(window_pairs_)) {
    return ShedError::Reason::kRejected;
  }
  return std::nullopt;
}

void AdmissionPolicy::served(double sojourn_seconds) {
  if (kind != Kind::kAdaptive) return;
  if (sojourn_seconds > slo_seconds) {
    // Multiplicative decrease, floored: stay serving even when every batch
    // breaches.
    slo_breaches_.inc();
    window_pairs_ = std::max(
        kAdaptiveMinPairs,
        static_cast<std::size_t>(static_cast<double>(window_pairs_) *
                                 kAdaptiveDecrease));
  } else {
    window_pairs_ += kAdaptiveIncreasePairs;
  }
  window_.set(static_cast<std::int64_t>(window_pairs_));
}

QueueStats QueueStats::since(const QueueStats& before) const {
  QueueStats delta = *this;
  for (const StatRow& row : kStatRows) {
    if (!row.gauge) delta.*row.field -= before.*row.field;
  }
  return delta;
}

void fetch_wave(const graph::DistanceOracle& oracle,
                std::span<const graph::NodeId> targets,
                const graph::DistanceOracle* fallback, bool tolerate,
                resilience::VirtualClock& clock, WaveRows& out) {
  out.source.assign(targets.size(), RowSource::kPrimary);
  out.retries = 0;
  try {
    oracle.prefetch_into(targets, out.rows);
  } catch (const resilience::TransientOracleError&) {
    // Partial success: a well-behaved thrower (FaultyOracle) has filled
    // every non-failing slot already; the retry rounds finish the holes.
  }
  out.rows.resize(targets.size());  // nulls at any holes
  // The still-missing slots, retried as a shrinking subset with exponential
  // VIRTUAL backoff: deterministic, never a real sleep.
  std::vector<std::size_t> pending;
  for (std::size_t k = 0; k < targets.size(); ++k) {
    if (!out.rows[k]) pending.push_back(k);
  }
  double backoff = ResilienceOptions::kBackoffBaseSeconds;
  for (; !pending.empty() && out.retries < ResilienceOptions::kMaxRetries;
       ++out.retries, backoff *= 2.0) {
    clock.advance_seconds(backoff);
    std::vector<std::size_t> still;
    for (const std::size_t k : pending) {
      try {
        out.rows[k] = oracle.distances_to(targets[k]);
      } catch (const resilience::TransientOracleError&) {
        still.push_back(k);
      }
    }
    pending.swap(still);
  }
  if (pending.empty()) return;
  if (fallback == nullptr && tolerate) {
    for (const std::size_t k : pending) out.source[k] = RowSource::kNone;
    return;
  }
  std::vector<graph::NodeId> dead;
  dead.reserve(pending.size());
  for (const std::size_t k : pending) dead.push_back(targets[k]);
  if (fallback == nullptr) {
    throw resilience::TransientOracleError(std::move(dead));
  }
  // The dead subset is one batched wave on the fallback tier.
  std::vector<graph::DistVecPtr> fallback_rows;
  fallback->prefetch_into(dead, fallback_rows);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    out.source[pending[i]] = RowSource::kFallback;
    out.rows[pending[i]] = std::move(fallback_rows[i]);
  }
}

RouteService::RouteService(const graph::Graph& g,
                           const graph::DistanceOracle& oracle,
                           const core::AugmentationScheme* scheme,
                           const routing::Router& router,
                           RouteServiceOptions options)
    : graph_(g),
      oracle_(oracle),
      scheme_(scheme),
      router_(router),
      options_(options),
      virtual_time_(options.virtual_pair_cost_seconds > 0.0),
      stats_(kStatCount),
      admission_(options.admission) {
  if (scheme_ != nullptr) {
    NAV_REQUIRE(scheme_->num_nodes() == graph_.num_nodes(),
                "scheme/graph size mismatch");
  }
  NAV_REQUIRE(std::isfinite(options_.virtual_pair_cost_seconds) &&
                  options_.virtual_pair_cost_seconds >= 0.0,
              "virtual_pair_cost_seconds must be finite and >= 0");
  NAV_REQUIRE(options_.resilience.fallback_router == nullptr ||
                  options_.resilience.fallback_oracle != nullptr,
              "fallback_router needs a fallback_oracle");
  const bool adaptive = admission_.kind == AdmissionPolicy::Kind::kAdaptive;
  NAV_REQUIRE(!adaptive || virtual_time_,
              "adaptive admission needs virtual_pair_cost_seconds > 0");
  NAV_REQUIRE(!adaptive || admission_.slo_seconds > 0.0,
              "adaptive admission needs an SLO > 0");
  metrics_ = options_.metrics != nullptr ? options_.metrics : &owned_metrics_;
  register_stats(kQueueTier);
  batch_pairs_hist_ =
      metrics_->histogram("route_service.batch_pairs", 0.0, 4096.0, 64);
  queue_wait_ms_hist_ =
      metrics_->histogram("route_service.queue_wait_ms", 0.0, 1000.0, 50);
  exec_ms_hist_ =
      metrics_->histogram("route_service.exec_ms", 0.0, 1000.0, 50);
  if (adaptive) {
    register_stats(kAdaptiveTier);
    admission_.attach(stats_[kSloBreaches].counter,
                      stats_[kAdaptiveWindowPairs].gauge);
  }
}

void RouteService::register_stats(std::uint8_t tier) const {
  for (std::size_t i = 0; i < kStatRows.size(); ++i) {
    const StatRow& row = kStatRows[i];
    if (row.tier != tier) continue;
    if (row.gauge) {
      stats_[i].gauge = metrics_->gauge(row.metric);
    } else {
      stats_[i].counter = metrics_->counter(row.metric);
    }
  }
}

RouteService::RouteService(const NavigationEngine& engine,
                           RouteServiceOptions options)
    : RouteService(engine.graph(), engine.oracle(), engine.scheme(),
                   engine.router(), options) {}

RouteService::~RouteService() {
  {
    std::lock_guard lock(queue_mutex_);
    stopping_ = true;
  }
  // Wake the service thread (stopping_ overrides pause) and any producers
  // blocked on a full Bounded queue — those throw from submit().
  queue_cv_.notify_all();
  queue_space_cv_.notify_all();
  if (service_thread_.joinable()) service_thread_.join();
}

RouteReport RouteService::route_batch(
    std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
    Rng rng) const {
  std::vector<RouteJob> jobs;
  jobs.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    jobs.push_back({pairs[i].first, pairs[i].second, rng.child(i)});
  }
  return route_jobs(jobs);
}

RouteReport RouteService::route_jobs(std::span<const RouteJob> jobs) const {
  NAV_OBS_SPAN("route_service.execute_jobs", "pairs",
               static_cast<double>(jobs.size()));
  nav::Timer timer;
  // Validate before building shards: endpoints reach BFS (prefetch) before
  // they reach the router's own precondition checks.
  for (const auto& job : jobs) {
    NAV_REQUIRE(
        job.source < graph_.num_nodes() && job.target < graph_.num_nodes(),
        "route endpoint out of range");
  }
  RouteReport report;
  std::vector<routing::RouteResult>& results = report.results;
  std::vector<DegradationStatus>& status = report.status;
  results.resize(jobs.size());
  status.assign(jobs.size(), DegradationStatus::kExact);

  // Shard index: shard k holds the job indices of the k-th distinct target,
  // in order of first appearance — a deterministic function of the batch.
  std::unordered_map<graph::NodeId, std::size_t> shard_of;
  shard_of.reserve(jobs.size());
  std::vector<graph::NodeId> shard_target;
  std::vector<std::vector<std::size_t>> shard_jobs;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto [it, inserted] =
        shard_of.try_emplace(jobs[i].target, shard_target.size());
    if (inserted) {
      shard_target.push_back(jobs[i].target);
      shard_jobs.emplace_back();
    }
    shard_jobs[it->second].push_back(i);
  }

  const ResilienceOptions& rz = options_.resilience;
  // Wave by wave: fetch the wave's distance rows (one batched prefetch, one
  // BFS per miss farmed across the pool, pinned past any eviction, plus the
  // resilience ladder when the oracle faults), then route every shard
  // through its pinned row via route_row — shards never touch the oracle,
  // so exactly one BFS per distinct target regardless of cache capacity,
  // concurrency, or batch order.
  WaveRows wave;
  for (std::size_t lo = 0; lo < shard_jobs.size(); lo += kMaxPinnedTargets) {
    const std::size_t hi = std::min(shard_jobs.size(), lo + kMaxPinnedTargets);
    const auto targets =
        std::span<const graph::NodeId>(shard_target).subspan(lo, hi - lo);
    fetch_wave(oracle_, targets, rz.fallback_oracle,
               options_.tolerate_unreachable,
               resilience::global_virtual_clock(), wave);
    report.retries += wave.retries;
    // Reachability check BEFORE the fan-out: pool tasks are noexcept by
    // policy, so every route precondition must be established on this
    // thread, where a throw reaches the caller (or a submit() future).
    // Under tolerate_unreachable a disconnected or rowless (kNone) pair
    // becomes a reached = false result here and its job is excluded from
    // routing; fallback-sourced pairs are classified here too.
    for (std::size_t k = lo; k < hi; ++k) {
      const RowSource source = wave.source[k - lo];
      const graph::DistVecPtr& row = wave.rows[k - lo];
      if (source == RowSource::kFallback) {
        report.fallback_pairs += shard_jobs[k].size();
      }
      for (const std::size_t i : shard_jobs[k]) {
        if (source == RowSource::kFallback) {
          status[i] = DegradationStatus::kDegraded;
        }
        if (row && (*row)[jobs[i].source] != graph::kInfDist) continue;
        NAV_REQUIRE(options_.tolerate_unreachable ||
                        source == RowSource::kFallback,
                    "target unreachable from source");
        results[i].reached = false;
        results[i].initial_distance = graph::kInfDist;
        status[i] =
            row ? DegradationStatus::kDegraded : DegradationStatus::kFailed;
      }
    }
    // Dynamic scheduling: shard sizes are as skewed as the workload.
    nav::parallel_for(lo, hi, [&](std::size_t k) {
      const graph::DistVecPtr& row = wave.rows[k - lo];
      if (!row) return;
      const routing::Router& shard_router =
          wave.source[k - lo] == RowSource::kFallback &&
                  rz.fallback_router != nullptr
              ? *rz.fallback_router
              : router_;
      for (const std::size_t i : shard_jobs[k]) {
        if ((*row)[jobs[i].source] == graph::kInfDist) {
          continue;  // already reported as unreached
        }
        results[i] = shard_router.route_row(
            jobs[i].source, jobs[i].target, *row, scheme_, jobs[i].rng);
      }
    });
  }

  // A pair that executed on a primary row but did not reach its target (a
  // stalled bound-only row starved the greedy descent) completed degraded,
  // not exact.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (status[i] == DegradationStatus::kExact && !results[i].reached) {
      status[i] = DegradationStatus::kDegraded;
    }
    if (status[i] == DegradationStatus::kExact) ++report.exact_pairs;
    else if (status[i] == DegradationStatus::kDegraded) ++report.degraded_pairs;
    else if (status[i] == DegradationStatus::kFailed) ++report.failed_pairs;
  }

  report.batch.pairs = jobs.size();
  report.batch.distinct_targets = shard_target.size();
  report.batch.seconds = timer.seconds();
  exec_ms_hist_.observe(report.batch.seconds * 1000.0);
  if (report.retries != 0 || report.fallback_pairs != 0 ||
      report.degraded_pairs != 0 || report.failed_pairs != 0) {
    // Written under queue_mutex_ so queue_stats() sees exact values; the
    // fault-free fast path never takes this lock.
    std::lock_guard lock(queue_mutex_);
    if (!std::exchange(resilience_registered_, true)) {
      register_stats(kResilienceTier);
    }
    stats_[kRetries].counter.inc(report.retries);
    stats_[kFallbackPairs].counter.inc(report.fallback_pairs);
    stats_[kDegradedPairs].counter.inc(report.degraded_pairs);
    stats_[kFailedPairs].counter.inc(report.failed_pairs);
  }
  return report;
}

std::future<std::vector<routing::RouteResult>> RouteService::submit(
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng) {
  NAV_REQUIRE(!virtual_time_,
              "a virtual-time RouteService needs submit(pairs, rng, vtime)");
  return submit(std::move(pairs), rng, 0.0);
}

std::future<std::vector<routing::RouteResult>> RouteService::submit(
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng,
    double arrival_vtime) {
  PendingBatch batch{std::move(pairs), rng, {}, arrival_vtime};
  auto future = batch.promise.get_future();
  const std::size_t incoming = batch.pairs.size();
  {
    std::unique_lock lock(queue_mutex_);
    const obs::Gauge& queued_pairs = stats_[kQueuedPairs].gauge;
    // Backpressure (Bounded): wait for room. The gauge is only written
    // under queue_mutex_, so reading it here is race-free.
    bool waited = false;
    while (!stopping_ &&
           !admission_.has_room(
               static_cast<std::size_t>(queued_pairs.value()), incoming)) {
      waited = true;
      queue_space_cv_.wait(lock);
    }
    NAV_REQUIRE(!stopping_, "submit on a stopping RouteService");
    if (virtual_time_) {
      NAV_REQUIRE(
          std::isfinite(batch.arrival) && batch.arrival >= last_arrival_,
          "virtual arrival times must be finite and non-decreasing");
      last_arrival_ = batch.arrival;
    } else {
      batch.arrival = steady_seconds();  // arrives when it enters the queue
    }
    if (waited) stats_[kBlockedSubmits].counter.inc();
    if (!service_thread_.joinable()) {
      service_thread_ = std::thread([this] { service_loop(); });
    }
    queue_.push_back(std::move(batch));
    stats_[kSubmittedBatches].counter.inc();
    stats_[kSubmittedPairs].counter.inc(incoming);
    batch_pairs_hist_.observe(static_cast<double>(incoming));
    stats_[kQueuedBatches].gauge.add(1);
    queued_pairs.add(static_cast<std::int64_t>(incoming));
    stats_[kPeakQueuedPairs].gauge.set_max(queued_pairs.value());
  }
  queue_cv_.notify_one();
  return future;
}

void RouteService::pause() {
  {
    std::lock_guard lock(queue_mutex_);
    paused_ = true;
  }
  queue_cv_.notify_all();
}

void RouteService::resume() {
  {
    std::lock_guard lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

QueueStats RouteService::queue_stats() const {
  // Holding queue_mutex_ while reading makes the view exact: every writer
  // updated the registry under this mutex, so its relaxed shard stores
  // happen-before these reads. Lock order is queue_mutex_ -> registry
  // mutex (Counter::value sums shards under the registry lock); no path
  // acquires them in the opposite order.
  std::lock_guard lock(queue_mutex_);
  QueueStats stats;
  for (std::size_t i = 0; i < kStatRows.size(); ++i) {
    const StatHandle& handle = stats_[i];
    stats.*kStatRows[i].field = static_cast<std::size_t>(
        kStatRows[i].gauge ? handle.gauge.value() : handle.counter.value());
  }
  return stats;
}

std::vector<double> RouteService::virtual_sojourns() const {
  std::lock_guard lock(queue_mutex_);
  return virtual_sojourns_;
}

double RouteService::virtual_horizon() const {
  std::lock_guard lock(queue_mutex_);
  return std::max(last_arrival_, vfree_);
}

void RouteService::service_loop() {
  resilience::VirtualClock& vclock = resilience::global_virtual_clock();
  while (true) {
    PendingBatch batch;
    double start = 0.0;
    {
      std::unique_lock lock(queue_mutex_);
      // stopping_ overrides pause: destruction always drains the queue.
      queue_cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) return;  // stopping and drained
      batch = std::move(queue_.front());
      queue_.pop_front();
      const std::size_t pairs = batch.pairs.size();
      stats_[kQueuedBatches].gauge.sub(1);
      stats_[kQueuedPairs].gauge.sub(static_cast<std::int64_t>(pairs));
      // The instant the server can start this batch, on the service's
      // clock: now, or once the virtual server has worked off its backlog.
      start = virtual_time_ ? std::max(batch.arrival, vfree_) : steady_seconds();
      const double waited = start - batch.arrival;
      queue_wait_ms_hist_.observe(waited * 1000.0);
      if (const auto reason = admission_.verdict(
              waited, pairs, options_.virtual_pair_cost_seconds)) {
        const bool shed = *reason == ShedError::Reason::kDeadline;
        stats_[shed ? kShedBatches : kRejectedBatches].counter.inc();
        stats_[shed ? kShedPairs : kRejectedPairs].counter.inc(pairs);
        const auto depth =
            static_cast<std::size_t>(stats_[kQueuedPairs].gauge.value());
        lock.unlock();
        queue_space_cv_.notify_all();
        batch.promise.set_exception(
            std::make_exception_ptr(ShedError(*reason, waited, pairs, depth)));
        continue;
      }
    }
    queue_space_cv_.notify_all();
    try {
      NAV_OBS_SPAN("route_service.batch", "pairs",
                   static_cast<double>(batch.pairs.size()));
      // Injected virtual latency (slow faults, retry backoffs) during this
      // batch's execution counts toward its virtual service time.
      const double vexec_before = vclock.seconds();
      auto results = route_batch(batch.pairs, batch.rng).results;
      const double vexec_injected = vclock.seconds() - vexec_before;
      {
        // Counted only on success — "executed" keeps meaning "dequeued AND
        // routed" when a bad batch fails its future below — and before the
        // future resolves, so a caller returning from get() observes it.
        std::lock_guard lock(queue_mutex_);
        stats_[kExecutedBatches].counter.inc();
        if (virtual_time_) {
          vfree_ = start +
                   static_cast<double>(batch.pairs.size()) *
                       options_.virtual_pair_cost_seconds +
                   vexec_injected;
          virtual_sojourns_.push_back(vfree_ - batch.arrival);
          admission_.served(virtual_sojourns_.back());
        }
      }
      batch.promise.set_value(std::move(results));
    } catch (...) {
      // A bad batch (e.g. an out-of-range endpoint, or a transient fault
      // that outlived its retries with no fallback configured) fails its
      // own future; the service thread lives on to serve the rest of the
      // queue.
      batch.promise.set_exception(std::current_exception());
    }
  }
}

routing::GreedyDiameterEstimate RouteService::estimate_diameter(
    const routing::TrialConfig& config, Rng rng,
    std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs) const {
  NAV_REQUIRE(config.resamples >= 1, "need at least one resample");
  NAV_REQUIRE(!pairs.empty(), "no source/target pairs selected");
  // The full pair × replicate grid as one batch, on the trial runner's
  // stream addresses.
  std::vector<RouteJob> jobs;
  jobs.reserve(pairs.size() * config.resamples);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const Rng pair_stream = rng.child(p + 1);
    for (std::size_t r = 0; r < config.resamples; ++r) {
      jobs.push_back({pairs[p].first, pairs[p].second, pair_stream.child(r)});
    }
  }
  return routing::fold_trial_grid(pairs, config.resamples,
                                  route_jobs(jobs).results);
}

}  // namespace nav::api
