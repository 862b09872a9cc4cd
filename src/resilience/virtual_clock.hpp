// virtual_clock.hpp — deterministic virtual time for fault injection.
//
// Resilience behaviour must be testable bit for bit: a `slow:<p>:<us>` fault
// or a retry backoff cannot call std::this_thread::sleep_for and stay
// deterministic (or fast). Instead, injected latency ADVANCES a virtual
// clock — an atomic microsecond accumulator — and the consumers that care
// about elapsed "time" (virtual-time Shed evaluation, the kAdaptive sojourn
// model, which also counts retry backoffs) read deltas of this clock instead
// of the wall clock. Integer microseconds, not floating seconds, so
// concurrent advances from a prefetch wave accumulate associatively: the
// total is independent of thread interleaving.
#pragma once

/// \file
/// \brief VirtualClock: atomic virtual-time accumulator for deterministic
/// fault-injection latency.

#include <atomic>
#include <cmath>
#include <cstdint>

namespace nav::resilience {

/// Monotone virtual-time accumulator (microsecond granularity). Fault
/// injectors advance it in place of sleeping; deadline/SLO consumers read
/// deltas. Thread-safe; integer accumulation keeps concurrent advances
/// order-independent.
class VirtualClock {
 public:
  /// Adds `us` virtual microseconds.
  void advance_micros(std::uint64_t us) noexcept {
    micros_.fetch_add(us, std::memory_order_relaxed);
  }

  /// Adds `seconds` of virtual time, rounded to whole microseconds (so the
  /// accumulated total stays exact under any advance interleaving).
  void advance_seconds(double seconds) noexcept {
    if (seconds <= 0.0) return;
    advance_micros(static_cast<std::uint64_t>(std::llround(seconds * 1e6)));
  }

  /// Total virtual microseconds advanced so far.
  [[nodiscard]] std::uint64_t micros() const noexcept {
    return micros_.load(std::memory_order_relaxed);
  }

  /// Total virtual seconds advanced so far.
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(micros()) * 1e-6;
  }

 private:
  std::atomic<std::uint64_t> micros_{0};
};

/// The process-wide virtual clock: FaultyOracle instances advance it by
/// default and RouteService measures per-batch injected latency as a delta
/// across batch execution, so both sides agree without explicit plumbing.
[[nodiscard]] VirtualClock& global_virtual_clock();

}  // namespace nav::resilience
