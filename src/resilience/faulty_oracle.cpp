#include "resilience/faulty_oracle.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/assert.hpp"

namespace nav::resilience {

FaultyOracle::FaultyOracle(std::unique_ptr<graph::DistanceOracle> base,
                           FaultSpec spec, VirtualClock* clock)
    : base_(base.get()),
      owned_base_(std::move(base)),
      spec_(std::move(spec)),
      clock_(clock != nullptr ? clock : &global_virtual_clock()) {
  NAV_REQUIRE(base_ != nullptr, "FaultyOracle needs a base oracle");
}

FaultyOracle::FaultyOracle(const graph::DistanceOracle& base, FaultSpec spec,
                           VirtualClock* clock)
    : base_(&base),
      spec_(std::move(spec)),
      clock_(clock != nullptr ? clock : &global_virtual_clock()) {}

bool FaultyOracle::evaluate_attempt(graph::NodeId target) const {
  std::uint64_t attempt;
  {
    std::lock_guard lock(mutex_);
    attempt = attempts_[target]++;
  }
  if (spec_.slow(target, attempt)) {
    const auto us =
        static_cast<std::uint64_t>(std::llround(spec_.slow_us));
    clock_->advance_micros(us);
    injected_slow_micros_.fetch_add(us, std::memory_order_relaxed);
  }
  if (spec_.fails(target, attempt)) {
    injected_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

graph::DistVecPtr FaultyOracle::widen_row(graph::NodeId target,
                                          const graph::DistRow& row) const {
  const std::size_t n = row.size();
  std::shared_ptr<graph::Dist[]> buffer(new graph::Dist[n]);
  for (std::size_t i = 0; i < n; ++i) {
    buffer[i] = spec_.stall_transform(row[i], target);
  }
  stalled_rows_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const graph::Dist> alias(buffer, buffer.get());
  return {std::move(alias), n};
}

graph::Dist FaultyOracle::distance(graph::NodeId u,
                                   graph::NodeId target) const {
  if (evaluate_attempt(target)) {
    throw TransientOracleError({target});
  }
  const graph::Dist d = base_->distance(u, target);
  return spec_.stalled(target) ? spec_.stall_transform(d, target) : d;
}

graph::DistVecPtr FaultyOracle::distances_to(graph::NodeId target) const {
  if (evaluate_attempt(target)) {
    throw TransientOracleError({target});
  }
  graph::DistVecPtr row = base_->distances_to(target);
  if (!spec_.stalled(target)) return row;
  return widen_row(target, *row);
}

void FaultyOracle::prefetch_into(std::span<const graph::NodeId> targets,
                                 std::vector<graph::DistVecPtr>& out) const {
  // Fault draws per DISTINCT target, in first-appearance order, on this
  // thread — the decision sequence is a pure function of the input list and
  // the attempt counters, independent of how the base prefetch parallelises.
  std::vector<graph::NodeId> ok;
  std::vector<graph::NodeId> failed;
  ok.reserve(targets.size());
  {
    std::vector<graph::NodeId> seen;
    seen.reserve(targets.size());
    for (const graph::NodeId t : targets) {
      if (std::find(seen.begin(), seen.end(), t) != seen.end()) continue;
      seen.push_back(t);
      if (evaluate_attempt(t)) {
        failed.push_back(t);
      } else {
        ok.push_back(t);
      }
    }
  }
  if (failed.empty() && ok.size() == targets.size()) {
    // Common case (no faults, no duplicates): delegate in place, then widen
    // any stalled rows.
    base_->prefetch_into(targets, out);
    if (spec_.stall_p > 0.0) {
      for (std::size_t i = 0; i < targets.size(); ++i) {
        if (spec_.stalled(targets[i])) out[i] = widen_row(targets[i], *out[i]);
      }
    }
    return;
  }
  // Partial success: fetch the surviving subset, scatter rows to their input
  // positions (duplicates share), leave failed positions null, then throw.
  std::vector<graph::DistVecPtr> fetched;
  base_->prefetch_into(ok, fetched);
  if (spec_.stall_p > 0.0) {
    for (std::size_t i = 0; i < ok.size(); ++i) {
      if (spec_.stalled(ok[i])) fetched[i] = widen_row(ok[i], *fetched[i]);
    }
  }
  out.clear();
  out.resize(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto it = std::find(ok.begin(), ok.end(), targets[i]);
    if (it != ok.end()) {
      out[i] = fetched[static_cast<std::size_t>(it - ok.begin())];
    }
  }
  if (!failed.empty()) {
    throw TransientOracleError(std::move(failed));
  }
}

}  // namespace nav::resilience
