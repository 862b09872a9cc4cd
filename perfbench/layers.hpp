// layers.hpp — forwarding wrappers that time calls into each layer from
// outside the library, and the in-memory span store they record into.
//
// The traced run hands RouteService these wrappers instead of the raw
// components:
//   * TracedScheme  forwards core::AugmentationScheme::sample_contact and
//                   tallies calls plus busy time per thread (contact
//                   sampling is too fine-grained for one span per call);
//   * TracedOracle  forwards graph::DistanceOracle::prefetch_into and
//                   records one span per prefetch wave, with the wave's new
//                   misses read off TargetDistanceCache::misses();
//   * TracedRouter  forwards routing::Router::route_resolved and records
//                   one span per route call, with the contact time spent
//                   inside it.
// RouteService executes requests FIFO, one at a time, and every request of
// this benchmark fits in one prefetch wave, so the k-th wave of a phase
// belongs to the k-th submitted request; route spans carry the id of the
// wave that was current when they ran.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "nav/nav.hpp"

namespace perfbench {

using nav::graph::NodeId;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One Router::route_resolved call.
struct RouteSpan {
  std::uint64_t request = 0;  ///< phase-local request (= wave) id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t contact_ns = 0;  ///< sample_contact time inside the call
  std::uint32_t steps = 0;
  std::uint32_t lane = 0;  ///< index of the recording thread's log
};

/// One DistanceOracle::prefetch_into call.
struct WaveSpan {
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t targets = 0;
  std::uint32_t misses = 0;  ///< TargetDistanceCache::misses() change
};

/// What one thread recorded. Only the owning thread writes; the driver
/// reads after a phase has drained, when every route call has
/// happened-before the future that delivered its result.
struct LaneLog {
  std::uint32_t index = 0;
  std::uint64_t contacts = 0;
  std::int64_t contact_ns = 0;
  std::vector<RouteSpan> routes;
};

/// Process-wide span store: one LaneLog per thread that ever recorded, plus
/// the wave log (written only by the RouteService thread).
class SpanStore {
 public:
  static SpanStore& instance() {
    static SpanStore store;
    return store;
  }

  /// The calling thread's log, registered on first use.
  LaneLog& lane() {
    thread_local LaneLog* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard lock(mutex_);
      mine = &lanes_.emplace_back();
      mine->index = static_cast<std::uint32_t>(lanes_.size() - 1);
    }
    return *mine;
  }

  /// Drops everything recorded so far. Only while no request is in flight.
  void clear() {
    std::lock_guard lock(mutex_);
    for (LaneLog& log : lanes_) {
      log.contacts = 0;
      log.contact_ns = 0;
      log.routes.clear();
    }
    waves.clear();
    current_request.store(0, std::memory_order_relaxed);
  }

  /// Visits every thread's log. Only while no request is in flight.
  template <typename Fn>
  void for_each_lane(Fn&& fn) {
    std::lock_guard lock(mutex_);
    for (const LaneLog& log : lanes_) fn(log);
  }

  std::vector<WaveSpan> waves;
  std::atomic<std::uint64_t> current_request{0};

 private:
  std::mutex mutex_;
  std::deque<LaneLog> lanes_;  // deque: registered addresses stay valid
};

class TracedScheme final : public nav::core::AugmentationScheme {
 public:
  explicit TracedScheme(const nav::core::AugmentationScheme& inner)
      : inner_(inner) {}

  [[nodiscard]] NodeId sample_contact(NodeId u, nav::Rng& rng) const override {
    LaneLog& lane = SpanStore::instance().lane();
    const std::int64_t start = now_ns();
    const NodeId contact = inner_.sample_contact(u, rng);
    lane.contact_ns += now_ns() - start;
    ++lane.contacts;
    return contact;
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] double probability(NodeId u, NodeId v) const override {
    return inner_.probability(u, v);
  }
  [[nodiscard]] std::vector<double> probability_row(NodeId u) const override {
    return inner_.probability_row(u);
  }
  [[nodiscard]] NodeId num_nodes() const override { return inner_.num_nodes(); }

 private:
  const nav::core::AugmentationScheme& inner_;
};

class TracedOracle final : public nav::graph::DistanceOracle {
 public:
  explicit TracedOracle(const nav::graph::TargetDistanceCache& inner)
      : inner_(inner) {}

  [[nodiscard]] bool exact() const noexcept override { return inner_.exact(); }
  [[nodiscard]] nav::graph::Dist distance(NodeId u,
                                          NodeId target) const override {
    return inner_.distance(u, target);
  }
  [[nodiscard]] nav::graph::DistVecPtr distances_to(
      NodeId target) const override {
    return inner_.distances_to(target);
  }
  void prefetch_into(std::span<const NodeId> targets,
                     std::vector<nav::graph::DistVecPtr>& out) const override {
    SpanStore& store = SpanStore::instance();
    WaveSpan span;
    span.request = store.waves.size();
    span.targets = static_cast<std::uint32_t>(targets.size());
    store.current_request.store(span.request, std::memory_order_relaxed);
    const std::size_t misses_before = inner_.misses();
    span.start_ns = now_ns();
    inner_.prefetch_into(targets, out);
    span.end_ns = now_ns();
    span.misses = static_cast<std::uint32_t>(inner_.misses() - misses_before);
    store.waves.push_back(span);
  }

 private:
  const nav::graph::TargetDistanceCache& inner_;
};

class TracedRouter final : public nav::routing::Router {
 public:
  explicit TracedRouter(const nav::routing::Router& inner) : inner_(inner) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const nav::graph::Graph& graph() const noexcept override {
    return inner_.graph();
  }
  [[nodiscard]] nav::routing::RouteResult route(
      NodeId s, NodeId t, const nav::core::AugmentationScheme* scheme,
      nav::Rng rng, bool record_trace) const override {
    return inner_.route(s, t, scheme, rng, record_trace);
  }
  [[nodiscard]] nav::routing::RouteResult route_resolved(
      NodeId s, NodeId t, std::span<const nav::graph::Dist> target_dist,
      const nav::core::AugmentationScheme* scheme, nav::Rng rng,
      bool record_trace) const override {
    SpanStore& store = SpanStore::instance();
    LaneLog& lane = store.lane();
    RouteSpan span;
    span.request = store.current_request.load(std::memory_order_relaxed);
    span.lane = lane.index;
    const std::int64_t contact_before = lane.contact_ns;
    span.start_ns = now_ns();
    auto result =
        inner_.route_resolved(s, t, target_dist, scheme, rng, record_trace);
    span.end_ns = now_ns();
    span.contact_ns = lane.contact_ns - contact_before;
    span.steps = result.steps;
    lane.routes.push_back(span);
    return result;
  }

 private:
  const nav::routing::Router& inner_;
};

}  // namespace perfbench
