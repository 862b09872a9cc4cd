#include "api/route_service.hpp"

#include <algorithm>
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

/// Per-wave row provenance (see ResilienceOptions): how each pinned slot's
/// distance vector was obtained.
enum class RowSource : std::uint8_t {
  kPrimary,   ///< the service's own oracle (possibly after retries)
  kFallback,  ///< the degraded fallback oracle
  kNone       ///< no usable row — retries exhausted, no fallback, tolerated
};

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

}  // namespace

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
      virtual_time_(options.virtual_pair_cost_seconds > 0.0) {
  if (scheme_ != nullptr) {
    NAV_REQUIRE(scheme_->num_nodes() == graph_.num_nodes(),
                "scheme/graph size mismatch");
  }
  const auto finite_non_negative = [](double x) {
    return std::isfinite(x) && x >= 0.0;
  };
  NAV_REQUIRE(finite_non_negative(options_.virtual_pair_cost_seconds),
              "virtual_pair_cost_seconds must be finite and >= 0");
  const ResilienceOptions& rz = options_.resilience;
  NAV_REQUIRE(finite_non_negative(rz.backoff_base_seconds),
              "backoff_base_seconds must be finite and >= 0");
  NAV_REQUIRE(finite_non_negative(rz.batch_deadline_seconds),
              "batch_deadline_seconds must be finite and >= 0");
  NAV_REQUIRE(rz.fallback_router == nullptr || rz.fallback_oracle != nullptr,
              "fallback_router needs a fallback_oracle");
  if (options_.admission.kind == AdmissionPolicy::Kind::kAdaptive) {
    NAV_REQUIRE(virtual_time_,
                "adaptive admission needs virtual_pair_cost_seconds > 0");
    NAV_REQUIRE(options_.admission.slo_seconds > 0.0,
                "adaptive admission needs an SLO > 0");
    NAV_REQUIRE(options_.admission.adaptive_min_pairs >= 1,
                "adaptive window floor must be >= 1");
  }
  metrics_ = options_.metrics != nullptr ? options_.metrics : &owned_metrics_;
  submitted_batches_ = metrics_->counter("route_service.submitted_batches");
  submitted_pairs_ = metrics_->counter("route_service.submitted_pairs");
  executed_batches_ = metrics_->counter("route_service.executed_batches");
  shed_batches_ = metrics_->counter("route_service.shed_batches");
  shed_pairs_ = metrics_->counter("route_service.shed_pairs");
  blocked_submits_ = metrics_->counter("route_service.blocked_submits");
  queued_batches_ = metrics_->gauge("route_service.queued_batches");
  queued_pairs_ = metrics_->gauge("route_service.queued_pairs");
  peak_queued_pairs_ = metrics_->gauge("route_service.peak_queued_pairs");
  batch_pairs_hist_ =
      metrics_->histogram("route_service.batch_pairs", 0.0, 4096.0, 64);
  queue_wait_ms_hist_ =
      metrics_->histogram("route_service.queue_wait_ms", 0.0, 1000.0, 50);
  exec_ms_hist_ =
      metrics_->histogram("route_service.exec_ms", 0.0, 1000.0, 50);
  // The adaptive and resilience metrics register LAZILY — adaptive ones
  // here (the policy is explicit opt-in), resilience ones on the first
  // degradation event (ensure_resilience_metrics) — so a fault-free,
  // non-adaptive service scrapes byte-identically to the pre-resilience
  // schema. Default-constructed handles are no-op / read-as-zero.
  if (options_.admission.kind == AdmissionPolicy::Kind::kAdaptive) {
    rejected_batches_ = metrics_->counter("route_service.rejected_batches");
    rejected_pairs_ = metrics_->counter("route_service.rejected_pairs");
    slo_breaches_ = metrics_->counter("route_service.slo_breaches");
    adaptive_window_ = metrics_->gauge("route_service.adaptive_window_pairs");
  }
}

void RouteService::ensure_resilience_metrics() const {
  // Callers hold queue_mutex_. counter() dedups by name, so the flag is
  // only an idempotence fast path.
  if (resilience_metrics_registered_) return;
  retries_ = metrics_->counter("resilience.retries");
  fallback_routes_ = metrics_->counter("resilience.fallback_routes");
  deadline_breaches_ = metrics_->counter("resilience.deadline_breaches");
  degraded_pairs_ = metrics_->counter("resilience.degraded_pairs");
  failed_pairs_ = metrics_->counter("resilience.failed_pairs");
  resilience_metrics_registered_ = true;
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
  resilience::VirtualClock& vclock = resilience::global_virtual_clock();
  const double batch_v0 = vclock.seconds();
  const auto budget_spent = [&] {
    return rz.batch_deadline_seconds > 0.0 &&
           vclock.seconds() - batch_v0 > rz.batch_deadline_seconds;
  };

  // Wave by wave: prefetch the wave's distance vectors in one batch (one
  // BFS per miss, farmed across the pool, pinned past any eviction), then
  // route every shard through its pinned row via route_row —
  // shards never touch the oracle, so exactly one BFS per distinct target
  // regardless of cache capacity, concurrency, or batch order.
  const std::size_t wave =
      std::max<std::size_t>(1, options_.max_pinned_targets);
  // One pin vector reused across waves: prefetch_into clears and refills
  // it, so after the first wave the container itself allocates nothing.
  std::vector<graph::DistVecPtr> pinned;
  std::vector<RowSource> slot_source;
  for (std::size_t lo = 0; lo < shard_jobs.size(); lo += wave) {
    const std::size_t hi = std::min(shard_jobs.size(), lo + wave);
    const std::size_t slots = hi - lo;
    slot_source.assign(slots, RowSource::kPrimary);
    try {
      oracle_.prefetch_into(
          std::span<const graph::NodeId>(shard_target).subspan(lo, slots),
          pinned);
    } catch (const resilience::TransientOracleError&) {
      // Partial success: a well-behaved thrower (FaultyOracle) has filled
      // every non-failing slot already; the retry loop finishes the holes.
    }
    pinned.resize(slots);  // nulls at any holes
    // The still-missing slots, retried as a shrinking subset with
    // exponential VIRTUAL backoff: deterministic, never a real sleep.
    std::vector<std::size_t> pending;
    for (std::size_t s = 0; s < slots; ++s) {
      if (!pinned[s]) pending.push_back(s);
    }
    double backoff = rz.backoff_base_seconds;
    for (std::size_t round = 0;
         !pending.empty() && round < ResilienceOptions::kMaxRetries; ++round) {
      if (budget_spent()) {
        report.deadline_breached = true;
        break;
      }
      ++report.retries;
      vclock.advance_seconds(backoff);
      backoff *= 2.0;
      std::vector<std::size_t> still;
      for (const std::size_t s : pending) {
        try {
          pinned[s] = oracle_.distances_to(shard_target[lo + s]);
        } catch (const resilience::TransientOracleError&) {
          still.push_back(s);
        }
      }
      pending.swap(still);
    }
    if (!pending.empty()) {
      if (rz.fallback_oracle != nullptr) {
        for (const std::size_t s : pending) {
          pinned[s] = rz.fallback_oracle->distances_to(shard_target[lo + s]);
          slot_source[s] = RowSource::kFallback;
        }
      } else if (rz.tolerate_faults) {
        for (const std::size_t s : pending) slot_source[s] = RowSource::kNone;
      } else {
        std::vector<graph::NodeId> dead;
        dead.reserve(pending.size());
        for (const std::size_t s : pending) {
          dead.push_back(shard_target[lo + s]);
        }
        throw resilience::TransientOracleError(std::move(dead));
      }
    }
    // Reachability check BEFORE the fan-out: pool tasks are noexcept by
    // policy, so every route precondition must be established on this
    // thread, where a throw reaches the caller (or a submit() future).
    // Under tolerate_unreachable a disconnected pair becomes a
    // reached = false result here and its job is excluded from routing;
    // rowless (kNone) and fallback-sourced pairs are classified here too.
    for (std::size_t k = lo; k < hi; ++k) {
      const std::size_t s = k - lo;
      if (slot_source[s] == RowSource::kNone) {
        for (const std::size_t i : shard_jobs[k]) {
          results[i].reached = false;
          results[i].initial_distance = graph::kInfDist;
          status[i] = DegradationStatus::kFailed;
        }
        continue;
      }
      if (slot_source[s] == RowSource::kFallback) {
        for (const std::size_t i : shard_jobs[k]) {
          status[i] = DegradationStatus::kDegraded;
        }
        report.fallback_pairs += shard_jobs[k].size();
      }
      const auto& dist = *pinned[s];
      for (const std::size_t i : shard_jobs[k]) {
        if (dist[jobs[i].source] != graph::kInfDist) continue;
        NAV_REQUIRE(options_.tolerate_unreachable ||
                        slot_source[s] == RowSource::kFallback,
                    "target unreachable from source");
        results[i].reached = false;
        results[i].initial_distance = graph::kInfDist;
        status[i] = DegradationStatus::kDegraded;
      }
    }
    // Dynamic scheduling: shard sizes are as skewed as the workload.
    nav::parallel_for(lo, hi, [&](std::size_t k) {
      const std::size_t s = k - lo;
      if (slot_source[s] == RowSource::kNone) return;
      const routing::Router& shard_router =
          slot_source[s] == RowSource::kFallback &&
                  rz.fallback_router != nullptr
              ? *rz.fallback_router
              : router_;
      const graph::DistRow& dist = *pinned[s];
      for (const std::size_t i : shard_jobs[k]) {
        if (dist[jobs[i].source] == graph::kInfDist) {
          continue;  // already reported as unreached
        }
        results[i] = shard_router.route_row(
            jobs[i].source, jobs[i].target, dist, scheme_, jobs[i].rng);
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
      report.degraded_pairs != 0 || report.failed_pairs != 0 ||
      report.deadline_breached) {
    // Written under queue_mutex_ so queue_stats() sees exact values; the
    // fault-free fast path never takes this lock.
    std::lock_guard lock(queue_mutex_);
    ensure_resilience_metrics();
    retries_.inc(report.retries);
    fallback_routes_.inc(report.fallback_pairs);
    degraded_pairs_.inc(report.degraded_pairs);
    failed_pairs_.inc(report.failed_pairs);
    if (report.deadline_breached) deadline_breaches_.inc();
  }
  return report;
}

std::future<std::vector<routing::RouteResult>> RouteService::submit(
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng) {
  NAV_REQUIRE(!virtual_time_,
              "a virtual-time RouteService needs submit(pairs, rng, vtime)");
  return submit_impl({std::move(pairs), rng, {}, 0.0});
}

std::future<std::vector<routing::RouteResult>> RouteService::submit(
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs, Rng rng,
    double arrival_vtime) {
  return submit_impl({std::move(pairs), rng, {}, arrival_vtime});
}

std::future<std::vector<routing::RouteResult>> RouteService::submit_impl(
    PendingBatch batch) {
  auto future = batch.promise.get_future();
  const std::size_t incoming = batch.pairs.size();
  {
    std::unique_lock lock(queue_mutex_);
    NAV_REQUIRE(!stopping_, "submit on a stopping RouteService");
    if (!service_thread_.joinable()) {
      service_thread_ = std::thread([this] { service_loop(); });
    }
    if (options_.admission.kind == AdmissionPolicy::Kind::kBounded) {
      // Backpressure: wait for room. An oversized batch is admitted once the
      // queue is empty (the bound throttles the producer; it must not make a
      // batch unserviceable). The gauge is only written under queue_mutex_,
      // so reading it in the predicate is race-free.
      const auto has_room = [&] {
        const auto depth = static_cast<std::size_t>(queued_pairs_.value());
        return stopping_ || depth == 0 ||
               depth + incoming <= options_.admission.max_queued_pairs;
      };
      bool waited = false;
      while (!has_room()) {
        waited = true;
        queue_space_cv_.wait(lock);
      }
      NAV_REQUIRE(!stopping_, "submit on a stopping RouteService");
      if (waited) blocked_submits_.inc();
    }
    // On steady time the batch arrives when it enters the queue.
    if (!virtual_time_) batch.arrival = steady_seconds();
    queue_.push_back(std::move(batch));
    submitted_batches_.inc();
    submitted_pairs_.inc(incoming);
    batch_pairs_hist_.observe(static_cast<double>(incoming));
    queued_batches_.add(1);
    queued_pairs_.add(static_cast<std::int64_t>(incoming));
    peak_queued_pairs_.set_max(queued_pairs_.value());
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
  stats.queued_batches = static_cast<std::size_t>(queued_batches_.value());
  stats.queued_pairs = static_cast<std::size_t>(queued_pairs_.value());
  stats.peak_queued_pairs =
      static_cast<std::size_t>(peak_queued_pairs_.value());
  stats.submitted_batches =
      static_cast<std::size_t>(submitted_batches_.value());
  stats.submitted_pairs = static_cast<std::size_t>(submitted_pairs_.value());
  stats.executed_batches = static_cast<std::size_t>(executed_batches_.value());
  stats.shed_batches = static_cast<std::size_t>(shed_batches_.value());
  stats.shed_pairs = static_cast<std::size_t>(shed_pairs_.value());
  stats.rejected_batches =
      static_cast<std::size_t>(rejected_batches_.value());
  stats.rejected_pairs = static_cast<std::size_t>(rejected_pairs_.value());
  stats.blocked_submits = static_cast<std::size_t>(blocked_submits_.value());
  stats.retries = static_cast<std::size_t>(retries_.value());
  stats.fallback_pairs = static_cast<std::size_t>(fallback_routes_.value());
  stats.deadline_breaches =
      static_cast<std::size_t>(deadline_breaches_.value());
  stats.degraded_pairs = static_cast<std::size_t>(degraded_pairs_.value());
  stats.failed_pairs = static_cast<std::size_t>(failed_pairs_.value());
  stats.slo_breaches = static_cast<std::size_t>(slo_breaches_.value());
  stats.adaptive_window_pairs = adaptive_window_pairs_;
  return stats;
}

std::vector<double> RouteService::virtual_sojourns() const {
  std::lock_guard lock(queue_mutex_);
  return virtual_sojourns_;
}

void RouteService::service_loop() {
  resilience::VirtualClock& vclock = resilience::global_virtual_clock();
  const AdmissionPolicy& admission = options_.admission;
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
      queued_batches_.sub(1);
      queued_pairs_.sub(static_cast<std::int64_t>(batch.pairs.size()));
      // The instant the server can start this batch, on the service's
      // clock: now, or once the virtual server has worked off its backlog.
      start = virtual_time_ ? std::max(batch.arrival, vfree_) : steady_seconds();
      const double waited = start - batch.arrival;
      queue_wait_ms_hist_.observe(waited * 1000.0);
      const auto depth = static_cast<std::size_t>(queued_pairs_.value());
      const auto drop = [&](ShedError::Reason reason) {
        lock.unlock();
        queue_space_cv_.notify_all();
        batch.promise.set_exception(std::make_exception_ptr(
            ShedError(reason, waited, batch.pairs.size(), depth)));
      };
      if (admission.kind == AdmissionPolicy::Kind::kShed &&
          waited > admission.deadline_seconds) {
        shed_batches_.inc();
        shed_pairs_.inc(batch.pairs.size());
        drop(ShedError::Reason::kDeadline);
        continue;
      }
      if (admission.kind == AdmissionPolicy::Kind::kAdaptive) {
        if (adaptive_window_pairs_ == 0) {
          adaptive_window_pairs_ = admission.adaptive_start_pairs;
          adaptive_window_.set(
              static_cast<std::int64_t>(adaptive_window_pairs_));
        }
        // Reject iff the server is already behind AND admitting this batch
        // would push the backlog past the window. An idle server always
        // admits (no single-batch livelock, mirroring Bounded).
        const double backlog_pairs =
            waited / options_.virtual_pair_cost_seconds;
        if (backlog_pairs > 0.0 &&
            backlog_pairs + static_cast<double>(batch.pairs.size()) >
                static_cast<double>(adaptive_window_pairs_)) {
          rejected_batches_.inc();
          rejected_pairs_.inc(batch.pairs.size());
          drop(ShedError::Reason::kRejected);
          continue;
        }
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
        executed_batches_.inc();
        if (virtual_time_) {
          const double exec_v = static_cast<double>(batch.pairs.size()) *
                                    options_.virtual_pair_cost_seconds +
                                vexec_injected;
          vfree_ = start + exec_v;
          const double sojourn_v = vfree_ - batch.arrival;
          virtual_sojourns_.push_back(sojourn_v);
          if (admission.kind == AdmissionPolicy::Kind::kAdaptive) {
            if (sojourn_v > admission.slo_seconds) {
              // Multiplicative decrease, floored: stay serving even when
              // every batch breaches.
              slo_breaches_.inc();
              adaptive_window_pairs_ = std::max(
                  admission.adaptive_min_pairs,
                  static_cast<std::size_t>(
                      static_cast<double>(adaptive_window_pairs_) *
                      kAdaptiveDecrease));
            } else {
              adaptive_window_pairs_ += admission.adaptive_increase_pairs;
            }
            adaptive_window_.set(
                static_cast<std::int64_t>(adaptive_window_pairs_));
          }
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
