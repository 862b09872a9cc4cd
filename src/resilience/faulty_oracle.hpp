// faulty_oracle.hpp — fault-injecting decorator over any DistanceOracle.
//
// FaultyOracle wraps a base oracle and applies a FaultSpec schedule to every
// query, deterministically (seeded hash of target + per-target attempt
// counter — never wall clock or thread identity):
//
//   * stall faults make the decorator APPROXIMATE: exact() returns false,
//     and rows toward a stalled target are widened copies of the base row
//     (FaultSpec::stall_transform) — valid upper bounds that greedy routing
//     must treat stall-tolerantly, exactly like a landmark row.
//   * fail faults throw TransientOracleError. The batch contract makes
//     retries converge: prefetch_into fills `out` for every NON-failing
//     position first and the thrown error lists only the failed targets, so
//     a caller retries the failed subset and keeps the rest (api::fetch_wave's
//     bounded-retry loop relies on this partial-success contract).
//   * slow faults advance a VirtualClock (the process-global one by
//     default) instead of sleeping — latency that virtual-time admission
//     and the kAdaptive SLO model observe at zero wall cost.
//
// Reachable from every surface as make_oracle("faulty:<base>:<faults>"),
// e.g. "faulty:cache:64:fail:0.05:stall:0.1:seed:7".
#pragma once

/// \file
/// \brief FaultyOracle: deterministic fault-injecting DistanceOracle
/// decorator (stall / fail / slow).

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "resilience/fault_spec.hpp"
#include "resilience/virtual_clock.hpp"

namespace nav::resilience {

/// Fault-injecting decorator; see the header comment. Thread-safe like the
/// oracles it wraps (the attempt-counter table is mutex-guarded), but fault
/// DRAWS stay deterministic only when the evaluation order of attempts is —
/// which the RouteService prefetch path guarantees (one service thread
/// evaluates waves sequentially, faults decided before any fan-out).
class FaultyOracle final : public graph::DistanceOracle {
 public:
  /// Owning wrap (the make_oracle path): the decorator keeps the base alive.
  FaultyOracle(std::unique_ptr<graph::DistanceOracle> base, FaultSpec spec,
               VirtualClock* clock = nullptr);

  /// Non-owning wrap (route_server's --faults over a DynamicOracle): `base`
  /// must outlive the decorator.
  FaultyOracle(const graph::DistanceOracle& base, FaultSpec spec,
               VirtualClock* clock = nullptr);

  /// Exact iff the base is exact and no stall faults are configured — any
  /// stall probability makes every row potentially bound-only, so routers
  /// must latch the stall-tolerant posture up front.
  [[nodiscard]] bool exact() const noexcept override {
    return spec_.stall_p <= 0.0 && base_->exact();
  }

  /// Single-entry query; counts one attempt (may throw, may inject
  /// latency), and applies the stall transform on stalled targets.
  [[nodiscard]] graph::Dist distance(graph::NodeId u,
                                     graph::NodeId target) const override;

  /// Full-row query; counts one attempt. Stalled targets return a widened
  /// heap copy of the base row, freshly pinned per query (the copy is the
  /// price of the fault — the base row itself stays cached in the base).
  [[nodiscard]] graph::DistVecPtr distances_to(
      graph::NodeId target) const override;

  /// Batch prefetch with the partial-success contract: fault draws are
  /// evaluated per DISTINCT target in input order on the calling thread;
  /// non-failing targets are delegated to the base prefetch and their rows
  /// land in `out` (input order, duplicates sharing); THEN, if any target
  /// drew a fail fault, TransientOracleError is thrown listing exactly the
  /// failed targets — their `out` slots stay null. Retrying just the failed
  /// subset therefore makes progress every round.
  void prefetch_into(std::span<const graph::NodeId> targets,
                     std::vector<graph::DistVecPtr>& out) const override;

  /// The schedule in force.
  [[nodiscard]] const FaultSpec& fault_spec() const noexcept { return spec_; }

  /// The wrapped oracle.
  [[nodiscard]] const graph::DistanceOracle& base() const noexcept {
    return *base_;
  }

  /// Fail faults thrown so far (attempt-level, cumulative).
  [[nodiscard]] std::uint64_t injected_failures() const noexcept {
    return injected_failures_.load(std::memory_order_relaxed);
  }

  /// Stalled (widened) rows materialised so far.
  [[nodiscard]] std::uint64_t stalled_rows() const noexcept {
    return stalled_rows_.load(std::memory_order_relaxed);
  }

  /// Virtual microseconds injected by slow faults so far.
  [[nodiscard]] std::uint64_t injected_slow_micros() const noexcept {
    return injected_slow_micros_.load(std::memory_order_relaxed);
  }

 private:
  /// One fault evaluation for `target`: bumps its attempt counter, injects
  /// slow latency, returns true when the attempt drew a fail fault.
  [[nodiscard]] bool evaluate_attempt(graph::NodeId target) const;

  /// Widened copy of the base row toward a stalled target, heap-pinned.
  [[nodiscard]] graph::DistVecPtr widen_row(graph::NodeId target,
                                            const graph::DistRow& row) const;

  const graph::DistanceOracle* base_;
  std::unique_ptr<graph::DistanceOracle> owned_base_;
  FaultSpec spec_;
  VirtualClock* clock_;

  mutable std::mutex mutex_;  // guards attempts_
  mutable std::unordered_map<graph::NodeId, std::uint64_t> attempts_;

  mutable std::atomic<std::uint64_t> injected_failures_{0};
  mutable std::atomic<std::uint64_t> stalled_rows_{0};
  mutable std::atomic<std::uint64_t> injected_slow_micros_{0};
};

}  // namespace nav::resilience
