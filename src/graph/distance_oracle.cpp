#include "graph/distance_oracle.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "graph/bfs_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/scratch_pool.hpp"
#include "runtime/thread_pool.hpp"

namespace nav::graph {

namespace {

// Library-level oracle telemetry lands in the process-wide registry: every
// oracle instance feeds the same `oracle.*` series (route_server scrapes
// them via --metrics-out). Handles are registered once (magic static);
// increments are wait-free shard writes, mirroring — not replacing — the
// per-instance hits()/misses() accessors.
struct OracleMetrics {
  obs::Counter hits = obs::default_registry().counter("oracle.cache_hits");
  obs::Counter misses = obs::default_registry().counter("oracle.cache_misses");
  obs::Counter evictions = obs::default_registry().counter("oracle.evictions");
  obs::Counter pin_spills =
      obs::default_registry().counter("oracle.pin_spills");
  obs::Counter matrix_rows =
      obs::default_registry().counter("oracle.matrix_rows_built");
  obs::HistogramHandle wave_width =
      obs::default_registry().histogram("oracle.wave_width", 0.0, 512.0, 64);
  obs::HistogramHandle wave_misses =
      obs::default_registry().histogram("oracle.wave_misses", 0.0, 512.0, 64);
};

OracleMetrics& oracle_metrics() {
  static OracleMetrics metrics;
  return metrics;
}

[[noreturn]] void throw_width_saturated(DistWidth width) {
  throw std::invalid_argument(
      std::string("distance exceeds ") + width_token(width) +
      " storage (max finite " + std::to_string(max_finite(width)) +
      "); declare a wider oracle width");
}

}  // namespace

void DistanceOracle::prefetch_into(std::span<const NodeId> targets,
                                   std::vector<DistVecPtr>& out) const {
  out.clear();
  out.reserve(targets.size());
  for (const NodeId t : targets) out.push_back(distances_to(t));
}

DistanceMatrix::DistanceMatrix(const Graph& g, DistWidth width)
    : n_(g.num_nodes()), width_(width) {
  NAV_OBS_SPAN("oracle.matrix_build", "rows", static_cast<double>(n_));
  // Deliberately uninitialised (default-init, not value-init): every entry
  // is BFS-filled below, and skipping the zero pass means the first touch of
  // each row happens on the worker that computes it — on NUMA hosts the
  // pages land near that worker's socket.
  slab_ = std::shared_ptr<std::uint8_t[]>(new std::uint8_t[
      static_cast<std::size_t>(n_) * n_ * width_bytes(width_)]);
  nav::parallel_for(
      0, n_, [&](std::size_t t) { fill_row(g, static_cast<NodeId>(t)); });
  check_saturation();
  // Counted from the coordinator, not the pool workers: one shard write
  // instead of n, and lane threads stay metrics-free (the warm-parallel
  // zero-allocation contract).
  oracle_metrics().matrix_rows.inc(n_);
}

void DistanceMatrix::fill_row(const Graph& g, NodeId target) {
  // Each worker reuses its pooled workspace; rows are disjoint slab slices.
  // Saturation is flagged, not thrown — workers must not throw across the
  // parallel_for; the coordinator turns the flag into an error.
  if (local_bfs_workspace().row_into(g, target, width_, row_bytes(target))) {
    saturated_.store(true, std::memory_order_relaxed);
  }
}

void DistanceMatrix::check_saturation() const {
  if (saturated_.load(std::memory_order_relaxed)) {
    throw_width_saturated(width_);
  }
}

Dist DistanceMatrix::distance(NodeId u, NodeId target) const {
  NAV_ASSERT(u < n_ && target < n_);
  return DistRow(row_bytes(target), n_, width_)[u];
}

DistVecPtr DistanceMatrix::distances_to(NodeId target) const {
  NAV_ASSERT(target < n_);
  // Aliasing handle: pins the whole slab, views one row in place.
  const std::uint8_t* row = row_bytes(target);
  return {std::shared_ptr<const void>(slab_, row), DistRow(row, n_, width_)};
}

std::span<const std::uint8_t> DistanceMatrix::packed_slab() const noexcept {
  return {slab_.get(), static_cast<std::size_t>(n_) * n_ * width_bytes(width_)};
}

void DistanceMatrix::rebuild_rows(const Graph& g,
                                  std::span<const NodeId> targets) {
  NAV_REQUIRE(g.num_nodes() == n_, "rebuild graph/matrix size mismatch");
  NAV_OBS_SPAN("oracle.rebuild_rows", "rows",
               static_cast<double>(targets.size()));
  nav::parallel_for(0, targets.size(), [&](std::size_t i) {
    NAV_ASSERT(targets[i] < n_);
    fill_row(g, targets[i]);
  });
  check_saturation();
  oracle_metrics().matrix_rows.inc(targets.size());
}

void DistanceMatrix::rebuild_all(const Graph& g) {
  NAV_REQUIRE(g.num_nodes() == n_, "rebuild graph/matrix size mismatch");
  NAV_OBS_SPAN("oracle.rebuild_all", "rows", static_cast<double>(n_));
  nav::parallel_for(
      0, n_, [&](std::size_t t) { fill_row(g, static_cast<NodeId>(t)); });
  check_saturation();
  oracle_metrics().matrix_rows.inc(n_);
}

TargetDistanceCache::TargetDistanceCache(const Graph& g, std::size_t capacity,
                                         DistWidth width)
    : graph_(g),
      capacity_(capacity == 0 ? 1 : capacity),
      width_(width),
      // One slot per resident entry plus a spare: a miss on a full cache
      // computes its row BEFORE evicting, so without the spare every such
      // miss would spill to the heap.
      arena_(capacity_ + 1,
             static_cast<std::size_t>(g.num_nodes()) * width_bytes(width)) {}

TargetDistanceCache::TargetDistanceCache(const Graph& g, MemoryBudget budget,
                                         DistWidth width)
    : TargetDistanceCache(g, capacity_for_budget(budget, g.num_nodes(), width),
                          width) {}

std::size_t TargetDistanceCache::capacity_for_budget(MemoryBudget budget,
                                                     NodeId n,
                                                     DistWidth width) noexcept {
  const std::size_t vector_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(n) * width_bytes(width));
  return std::max<std::size_t>(1, budget.bytes / vector_bytes);
}

Dist TargetDistanceCache::distance(NodeId u, NodeId target) const {
  NAV_ASSERT(u < graph_.num_nodes());
  return (*distances_to(target))[u];
}

std::shared_ptr<std::uint8_t> TargetDistanceCache::acquire_slot() const {
  // Steady state: a recycled arena slot (O(1) control-block bookkeeping).
  // When every slot is pinned (a prefetch wave larger than the budget),
  // spill to a plain heap row — correctness never depends on the arena
  // having room.
  std::shared_ptr<std::uint8_t> row = arena_.try_acquire();
  if (row == nullptr) {
    row = std::shared_ptr<std::uint8_t>(new std::uint8_t[arena_.slot_size()],
                                        std::default_delete<std::uint8_t[]>());
    // Already off the zero-allocation path (the row itself came from the
    // heap), so the counter costs nothing extra.
    oracle_metrics().pin_spills.inc();
  }
  return row;
}

bool TargetDistanceCache::fill_row(NodeId target, std::uint8_t* dst) const {
  return local_bfs_workspace().row_into(graph_, target, width_, dst);
}

DistVecPtr TargetDistanceCache::compute_row(NodeId target) const {
  std::shared_ptr<std::uint8_t> slot = acquire_slot();
  if (fill_row(target, slot.get())) return {};
  const DistRow row(slot.get(), graph_.num_nodes(), width_);
  return {std::move(slot), row};
}

std::size_t TargetDistanceCache::install_locked(NodeId target,
                                                DistVecPtr row) const {
  lru_.push_front(target);
  cache_.emplace(target, Entry{lru_.begin(), std::move(row)});
  std::size_t evicted = 0;
  while (cache_.size() > capacity_) {
    const NodeId victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);  // the slot recycles once the last pin drops
    ++evicted;
  }
  return evicted;
}

DistVecPtr TargetDistanceCache::distances_to(NodeId target) const {
  NAV_ASSERT(target < graph_.num_nodes());
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(target);
    if (it != cache_.end()) {
      ++hits_;
      oracle_metrics().hits.inc();
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);  // bump to front
      return it->second.distances;
    }
    ++misses_;
    oracle_metrics().misses.inc();
  }
  // BFS outside the lock: concurrent misses on the same target may compute it
  // twice; both results are identical, the second insert wins harmlessly.
  DistVecPtr dist = compute_row(target);
  if (!dist) throw_width_saturated(width_);
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it != cache_.end()) return it->second.distances;  // lost the race
  const std::size_t evicted = install_locked(target, dist);
  if (evicted > 0) oracle_metrics().evictions.inc(evicted);
  return dist;
}

std::vector<NodeId> TargetDistanceCache::resident_targets() const {
  std::lock_guard lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

DistVecPtr TargetDistanceCache::peek(NodeId target) const {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  return it == cache_.end() ? DistVecPtr{} : it->second.distances;
}

bool TargetDistanceCache::erase(NodeId target) {
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(target);
  if (it == cache_.end()) return false;
  lru_.erase(it->second.lru_it);
  cache_.erase(it);  // the slot recycles once the last pin drops
  return true;
}

void TargetDistanceCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  cache_.clear();
}

namespace {

// Grow-only per-thread scratch for TargetDistanceCache::prefetch_into: an
// open-addressing probe table for intra-wave dedup plus the miss lists. No
// node-based containers, so a warm all-hit wave allocates nothing. The
// caller holds it across the miss fan-out, whose bodies also run on the
// caller: fill_row (and every override) must never use it.
struct PrefetchScratch {
  std::vector<std::size_t> table;      // probe slot -> input index + 1; 0 = empty
  std::vector<std::size_t> first_of;   // input index -> first occurrence index
  std::vector<NodeId> missing;         // distinct targets needing a BFS
  std::vector<std::size_t> miss_slot;  // their positions in the output
  std::vector<DistVecPtr> fresh;       // rows computed for `missing`
};

/// Sizes the dedup probe table for a wave; returns the hash shift.
unsigned prepare_dedup(PrefetchScratch& scratch, std::size_t wave) {
  std::size_t cap = 16;
  while (cap < wave * 2) cap <<= 1;
  if (scratch.table.size() < cap) scratch.table.resize(cap);
  std::fill(scratch.table.begin(), scratch.table.begin() + cap, std::size_t{0});
  if (scratch.first_of.size() < wave) scratch.first_of.resize(wave);
  scratch.missing.clear();
  scratch.miss_slot.clear();
  return 64u - static_cast<unsigned>(std::countr_zero(cap));
}

/// Dedup probe: returns the first-occurrence index of targets[i] (i itself
/// when this is the first sighting).
std::size_t dedup_probe(PrefetchScratch& scratch,
                        std::span<const NodeId> targets, std::size_t i,
                        unsigned shift) {
  const NodeId t = targets[i];
  const std::size_t cap = std::size_t{1}
                          << (64u - shift);  // table size in use
  std::size_t slot = static_cast<std::size_t>(
      (std::uint64_t{t} * 0x9E3779B97F4A7C15ull) >> shift);
  while (true) {
    const std::size_t stored = scratch.table[slot];
    if (stored == 0) {
      scratch.table[slot] = i + 1;
      scratch.first_of[i] = i;
      return i;
    }
    if (targets[stored - 1] == t) {
      scratch.first_of[i] = stored - 1;
      return stored - 1;
    }
    slot = (slot + 1) & (cap - 1);
  }
}

}  // namespace

void TargetDistanceCache::prefetch_into(std::span<const NodeId> targets,
                                        std::vector<DistVecPtr>& out) const {
  NAV_OBS_SPAN("oracle.prefetch_wave", "targets",
               static_cast<double>(targets.size()));
  out.clear();
  out.resize(targets.size());
  if (targets.empty()) return;
  oracle_metrics().wave_width.observe(static_cast<double>(targets.size()));

  auto& scratch = nav::thread_scratch<PrefetchScratch>();
  const unsigned shift = prepare_dedup(scratch, targets.size());

  // Pass 1 (under the lock): dedup the wave, serve residents, list misses.
  // Registry increments are batched per wave (one shard write per counter,
  // after the loop) instead of per target.
  std::size_t wave_hits = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const NodeId t = targets[i];
      NAV_ASSERT(t < graph_.num_nodes());
      if (dedup_probe(scratch, targets, i, shift) != i) {
        ++hits_;  // served by the first occurrence's row
        ++wave_hits;
        continue;
      }
      const auto it = cache_.find(t);
      if (it != cache_.end()) {
        ++hits_;
        ++wave_hits;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        out[i] = it->second.distances;
      } else {
        ++misses_;
        scratch.missing.push_back(t);
        scratch.miss_slot.push_back(i);
      }
    }
  }
  if (wave_hits > 0) oracle_metrics().hits.inc(wave_hits);
  if (!scratch.missing.empty()) {
    oracle_metrics().misses.inc(scratch.missing.size());
  }
  oracle_metrics().wave_misses.observe(
      static_cast<double>(scratch.missing.size()));

  // Pass 2 (no lock): farm the distinct misses' rows across the pool, one
  // scalar sweep each — the batched-prefetch win over miss-by-miss
  // distances_to. An all-hit wave skips the call: building its
  // std::function would allocate. A saturated row comes back empty (pool
  // tasks are noexcept by policy) and the coordinator throws after the
  // fan-out.
  auto& fresh = scratch.fresh;
  fresh.clear();
  fresh.resize(scratch.missing.size());
  if (!scratch.missing.empty()) {
    nav::parallel_for(0, scratch.missing.size(), [&](std::size_t k) {
      fresh[k] = compute_row(scratch.missing[k]);
    });
    if (std::any_of(fresh.begin(), fresh.end(),
                    [](const DistVecPtr& row) { return !row; })) {
      fresh.clear();
      throw_width_saturated(width_);
    }
  }

  // Pass 3 (under the lock): install the new vectors, newest-first LRU.
  if (!scratch.missing.empty()) {
    std::lock_guard lock(mutex_);
    std::size_t wave_evictions = 0;
    for (std::size_t k = 0; k < scratch.missing.size(); ++k) {
      const NodeId t = scratch.missing[k];
      const auto it = cache_.find(t);
      if (it != cache_.end()) {  // a concurrent caller raced us: keep theirs
        out[scratch.miss_slot[k]] = it->second.distances;
        continue;
      }
      out[scratch.miss_slot[k]] = fresh[k];
      wave_evictions += install_locked(t, std::move(fresh[k]));
    }
    if (wave_evictions > 0) oracle_metrics().evictions.inc(wave_evictions);
  }
  fresh.clear();  // drop the scratch pins: rows now live via cache_/out

  // Final pass: duplicates alias their first occurrence's pin.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (scratch.first_of[i] != i) out[i] = out[scratch.first_of[i]];
  }
}

}  // namespace nav::graph
