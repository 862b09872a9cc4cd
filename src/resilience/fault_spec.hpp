// fault_spec.hpp — seeded, deterministic fault schedules for oracle chaos.
//
// A FaultSpec describes WHICH queries misbehave and HOW, as a pure function
// of (seed, target, attempt) — never of wall clock, thread identity, or call
// interleaving. Three fault families compose in one spec:
//
//   stall:<p>      a fixed p-fraction of TARGETS (chosen by seeded hash)
//                  answers with bound-only rows: distances beyond a small
//                  exact ball are widened by a deterministic +0/+1 jitter,
//                  still valid upper bounds but no longer a strictly
//                  descending field — greedy routes can stall, which is
//                  exactly the exact()=false machinery under test.
//   fail:<p>       each ATTEMPT at a target independently throws
//                  TransientOracleError with probability p; the attempt
//                  counter advances per evaluation, so bounded retries
//                  converge deterministically (a target that failed attempt
//                  k draws fresh at attempt k+1).
//   slow:<p>:<us>  each attempt independently injects <us> microseconds of
//                  VIRTUAL latency (resilience/virtual_clock.hpp) with
//                  probability p — virtual-time admission and the
//                  kAdaptive SLO model see the latency, the wall clock
//                  never does.
//
// Spec text is a ':'-separated clause sequence, e.g. "fail:0.05:stall:0.1"
// or "slow:0.2:500:seed:7"; `seed:<n>` re-keys the whole schedule. The
// grammar rides inside make_oracle's "faulty:<base-spec>:<fault-spec>".
#pragma once

/// \file
/// \brief FaultSpec: deterministic seeded fault schedule (stall / fail /
/// slow) and TransientOracleError.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace nav::resilience {

/// Thrown by a fault-injecting oracle when an attempt draws a `fail` fault.
/// Carries the targets whose attempt failed so callers can retry exactly
/// that subset; for batch prefetches the thrower's contract is that every
/// OTHER requested position was filled before the throw (partial success —
/// see FaultyOracle::prefetch_into).
class TransientOracleError : public std::runtime_error {
 public:
  /// `targets` = the failed subset of the attempted targets.
  explicit TransientOracleError(std::vector<graph::NodeId> targets)
      : std::runtime_error("transient oracle fault on " +
                           std::to_string(targets.size()) + " target(s)"),
        targets_(std::move(targets)) {}

  /// The targets whose attempt drew a fail fault (input order).
  [[nodiscard]] const std::vector<graph::NodeId>& targets() const noexcept {
    return targets_;
  }

 private:
  std::vector<graph::NodeId> targets_;
};

/// Seeded deterministic fault schedule; see the header comment for the
/// clause grammar. Value type: copies share the schedule.
struct FaultSpec {
  double stall_p = 0.0;   ///< fraction of targets with bound-only rows
  double fail_p = 0.0;    ///< per-attempt TransientOracleError probability
  double slow_p = 0.0;    ///< per-attempt virtual-latency probability
  double slow_us = 0.0;   ///< injected virtual microseconds per slow draw
  /// Distances within this radius of a stalled target stay exact, so routes
  /// that get close still terminate (mirrors the landmark exact ball).
  graph::Dist stall_exact_radius = 2;
  std::uint64_t seed = 0x7a017;  ///< keys every draw; `seed:<n>` overrides
  std::string spec;              ///< the text this schedule was parsed from

  /// Parses a clause sequence ("fail:0.05:stall:0.1:seed:7"). `tokens` are
  /// the ':'-split clauses; `full_spec` feeds error messages. Throws
  /// std::invalid_argument on unknown clauses, repeated clauses, or
  /// probabilities outside [0, 1].
  [[nodiscard]] static FaultSpec parse(
      const std::vector<std::string>& tokens, const std::string& full_spec);

  /// True for tokens that can open a fault clause ("stall" | "fail" |
  /// "slow" | "seed") — how make_oracle finds where the base oracle spec
  /// ends inside "faulty:<base-spec>:<fault-spec>".
  [[nodiscard]] static bool is_fault_head(const std::string& token);

  /// Any fault family active?
  [[nodiscard]] bool any() const noexcept {
    return stall_p > 0.0 || fail_p > 0.0 || slow_p > 0.0;
  }

  /// Target-level stall membership (attempt-independent: a stalled target is
  /// stalled for the run's lifetime, like a degraded replica).
  [[nodiscard]] bool stalled(graph::NodeId target) const noexcept;

  /// Attempt-level fail draw.
  [[nodiscard]] bool fails(graph::NodeId target,
                           std::uint64_t attempt) const noexcept;

  /// Attempt-level slow draw.
  [[nodiscard]] bool slow(graph::NodeId target,
                          std::uint64_t attempt) const noexcept;

  /// The stall transform for one row entry: distances beyond the exact
  /// radius widen by a deterministic +0/+1 jitter keyed on (seed, target,
  /// d). Still an upper bound (true distance d <= returned value <= d + 1)
  /// but no longer strictly descending along shortest paths — the stall
  /// surface greedy routing must tolerate. Infinity passes through.
  [[nodiscard]] graph::Dist stall_transform(graph::Dist d,
                                            graph::NodeId target)
      const noexcept;
};

}  // namespace nav::resilience
