// distance_oracle.hpp — distance services for the greedy router.
//
// Greedy routing only ever asks "dist_G(x, t)" for the *current target* t.
// Two strategies, behind one interface:
//   * DistanceMatrix — all-pairs table (parallel all-source BFS). O(n²) words;
//     right choice for n up to ~2·10⁴ and for tests needing arbitrary queries.
//   * TargetDistanceCache — one BFS per distinct target, LRU-capped. Right
//     choice for big sweeps where each target serves thousands of trials.
//
// Storage is arena-backed (runtime/arena.hpp): both oracles carve per-target
// distance rows out of slabs instead of allocating one std::vector<Dist> per
// target — the cache's slab budget is MemoryBudget, and a steady-state miss
// BFS-fills a recycled slot, so the O(n) row never touches the heap (the
// BFS runs on the worker thread's pooled BfsWorkspace, also allocation-free;
// only O(1) LRU/map bookkeeping nodes are allocated per miss, and hits
// allocate nothing at all).
//
// distances_to() hands out a shared-ownership DistVecPtr so a routing episode
// can keep the row alive even if the cache evicts the entry concurrently —
// the slot returns to the arena only when the last pin drops.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/bfs.hpp"
#include "graph/bfs_engine.hpp"
#include "graph/dist_slab.hpp"
#include "graph/graph.hpp"
#include "runtime/arena.hpp"

namespace nav::graph {

/// Shared-ownership handle to one target's distance row. Holding it pins the
/// underlying storage — an arena slot or matrix-slab row — even if a caching
/// oracle evicts the entry concurrently. Pointer-like: *p is the
/// width-tagged DistRow, p->size() works, handles compare by identity (same
/// storage).
class DistVecPtr {
 public:
  DistVecPtr() = default;
  /// Pins `owner` (the storage `row` views).
  DistVecPtr(std::shared_ptr<const void> owner, DistRow row) noexcept
      : owner_(std::move(owner)), row_(row) {}
  /// A u32 row of `size` entries owned by `data`.
  DistVecPtr(std::shared_ptr<const Dist> data, std::size_t size) noexcept
      : row_(data.get(), size, DistWidth::kU32) {
    owner_ = std::move(data);
  }

  [[nodiscard]] const DistRow& operator*() const noexcept { return row_; }
  [[nodiscard]] const DistRow* operator->() const noexcept { return &row_; }
  explicit operator bool() const noexcept { return owner_ != nullptr; }

  /// Identity (not element) comparison, matching shared_ptr semantics:
  /// handles are equal iff they pin the same storage.
  friend bool operator==(const DistVecPtr& a, const DistVecPtr& b) noexcept {
    return a.owner_ == b.owner_;
  }
  friend bool operator==(const DistVecPtr& a, std::nullptr_t) noexcept {
    return a.owner_ == nullptr;
  }

 private:
  std::shared_ptr<const void> owner_;
  DistRow row_;
};

/// Abstract distance-to-target service (thread-safe).
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  /// True when the oracle returns exact graph distances. Approximate
  /// backends (LandmarkOracle's triangle upper bound) override to false;
  /// routers read this once at construction to swap the strict-descent
  /// invariant (which only an exact field guarantees) for stall-tolerant
  /// termination.
  [[nodiscard]] virtual bool exact() const noexcept { return true; }

  /// dist_G(u, target); kInfDist when unreachable.
  [[nodiscard]] virtual Dist distance(NodeId u, NodeId target) const = 0;

  /// Full distance vector towards `target` (size n), shared ownership.
  /// The graphs here are undirected, so this is also the distance vector
  /// *from* `target`; one BFS serves every query sharing the target.
  [[nodiscard]] virtual DistVecPtr distances_to(NodeId target) const = 0;

  /// Batch interface: materialises (or fetches) the vectors for `targets`
  /// into `out` (cleared and resized to targets.size()), pinned, in input
  /// order. out[i] stays valid for as long as the caller holds it,
  /// independent of any cache eviction — the contract RouteService target
  /// shards rely on. Duplicate targets are allowed and share one vector.
  /// Callers reusing `out` across waves pay no allocation for the container
  /// once it has grown to the largest wave. The base implementation loops
  /// distances_to; caching oracles override it to batch the misses.
  virtual void prefetch_into(std::span<const NodeId> targets,
                             std::vector<DistVecPtr>& out) const;
};

/// Dense all-pairs table. Memory: one n² slab at the chosen storage width
/// (4-byte Dist by default; 1- or 2-byte rows for low-diameter graphs — see
/// dist_slab.hpp); distances_to() pins one row of it in place, at that
/// width. Built with a parallel all-source BFS sweep at construction: rows
/// are farmed to the global worker pool (as are rebuild_rows/rebuild_all)
/// and the slab is handed out UNINITIALISED, so each page is first touched
/// by the worker that BFS-fills it — on NUMA hosts the rows land near the
/// cores that wrote them. Distances are level-synchronous, so the slab is
/// byte-identical for every worker count (the determinism suite hashes it
/// to prove this). A row whose true distances exceed the width's max_finite
/// makes construction/rebuild throw std::invalid_argument instead of storing
/// a saturated lie.
class DistanceMatrix final : public DistanceOracle {
 public:
  explicit DistanceMatrix(const Graph& g, DistWidth width = DistWidth::kU32);

  [[nodiscard]] Dist distance(NodeId u, NodeId target) const override;
  [[nodiscard]] DistVecPtr distances_to(NodeId target) const override;

  [[nodiscard]] NodeId num_nodes() const noexcept { return n_; }
  /// Storage width of the backing slab.
  [[nodiscard]] DistWidth width() const noexcept { return width_; }

  /// The backing slab: n*n entries, row-major by target. Determinism tests
  /// hash this to pin worker-count independence byte for byte. Only the
  /// default u32 storage exposes Dist entries directly; narrow matrices
  /// throw (use packed_slab()).
  [[nodiscard]] std::span<const Dist> slab() const {
    NAV_REQUIRE(width_ == DistWidth::kU32,
                "slab() needs u32 storage; narrow widths expose packed_slab()");
    return {reinterpret_cast<const Dist*>(slab_.get()),
            static_cast<std::size_t>(n_) * n_};
  }

  /// The packed backing bytes at any width (n*n*width_bytes(width())).
  [[nodiscard]] std::span<const std::uint8_t> packed_slab() const noexcept;

  /// Recomputes the given targets' rows in place against `g` (which must
  /// have the same node count) — the incremental-repair hook for
  /// dynamic::DynamicOracle. Rows are written through the shared slab, so
  /// callers must guarantee quiescence: no concurrent queries, and no
  /// outstanding pins expected to keep their pre-mutation values.
  void rebuild_rows(const Graph& g, std::span<const NodeId> targets);

  /// Recomputes every row (the full-flush reference path).
  void rebuild_all(const Graph& g);

 private:
  void fill_row(const Graph& g, NodeId target);
  void check_saturation() const;
  [[nodiscard]] std::uint8_t* row_bytes(NodeId target) const noexcept {
    return slab_.get() + static_cast<std::size_t>(target) * n_ * width_bytes(width_);
  }

  NodeId n_;
  DistWidth width_;
  std::shared_ptr<std::uint8_t[]> slab_;  // n_ rows of n_ entries at width_
  std::atomic<bool> saturated_{false};
};

/// Cache sizing by bytes instead of entry count: the number of resident
/// target vectors becomes budget / (n × sizeof(Dist)), clamped to >= 1.
struct MemoryBudget {
  /// Total bytes the cache may spend on distance vectors.
  std::size_t bytes = 64u << 20;
};

/// Per-target BFS cache with LRU eviction over arena-slab rows.
///
/// Narrow storage widths (dist_slab.hpp) pack resident rows at 1 or 2 bytes
/// per entry, so the same MemoryBudget keeps 4x (or 2x) more targets
/// resident. Every row is stored once, at the cache's width, and handed out
/// in place: a hit is an LRU bump plus a refcount pin, whatever the width.
/// A BFS row whose true distances exceed the width's max_finite throws
/// std::invalid_argument.
class TargetDistanceCache final : public DistanceOracle {
 public:
  /// `capacity` = number of target distance vectors kept alive in the cache.
  /// The arena holds capacity + 1 slots (slabs grow lazily towards it): the
  /// spare serves the miss-on-full-cache window where the new row is
  /// computed before the victim's slot frees.
  explicit TargetDistanceCache(const Graph& g, std::size_t capacity = 64,
                               DistWidth width = DistWidth::kU32);

  /// Sizes the LRU from a byte budget via capacity_for_budget.
  TargetDistanceCache(const Graph& g, MemoryBudget budget,
                      DistWidth width = DistWidth::kU32);

  /// Entry count affordable under `budget` for n-node vectors at a storage
  /// width (>= 1: the cache always keeps at least the vector it just
  /// computed). Narrow rows cost width_bytes(width) per entry, so the budget
  /// buys proportionally more resident targets.
  [[nodiscard]] static std::size_t capacity_for_budget(
      MemoryBudget budget, NodeId n,
      DistWidth width = DistWidth::kU32) noexcept;

  [[nodiscard]] Dist distance(NodeId u, NodeId target) const override;
  [[nodiscard]] DistVecPtr distances_to(NodeId target) const override;

  /// Batched miss handling: the wave's distinct misses are farmed as whole
  /// rows, one scalar sweep per lane, across the global thread pool (a
  /// single miss runs inline on the caller). Callers must therefore not
  /// invoke this from inside a pool task. Resident targets
  /// are bumped, not recomputed, and a warm all-hit wave performs ZERO heap
  /// allocations (dedup runs on thread-pooled scratch, pins are refcount
  /// copies). Returned pins outlive eviction, so a batch
  /// larger than the capacity is still served correctly — the LRU just ends
  /// at its capacity. (Pins in excess of the arena budget spill to plain
  /// heap rows; they free on release rather than recycling.)
  void prefetch_into(std::span<const NodeId> targets,
                     std::vector<DistVecPtr>& out) const override;

  /// Number of resident vectors the LRU may hold.
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Storage width of resident rows.
  [[nodiscard]] DistWidth width() const noexcept { return width_; }
  /// Queries served from a resident vector.
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  /// Queries that had to run a BFS.
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

  // ---- invalidation surface (dynamic::DynamicOracle) ----------------------
  /// Snapshot of the currently resident targets, LRU order (front = most
  /// recently used). The set a mutation's tightness test scans.
  [[nodiscard]] std::vector<NodeId> resident_targets() const;

  /// The resident row for `target` without bumping the LRU or the hit/miss
  /// counters; empty handle when not resident. Lets the invalidation scan
  /// read rows without perturbing cache telemetry or eviction order.
  [[nodiscard]] DistVecPtr peek(NodeId target) const;

  /// Drops `target` if resident (its arena slot recycles once the last pin
  /// drops); returns whether anything was evicted. Stale rows removed this
  /// way recompute lazily on the next query — against the *current* graph.
  bool erase(NodeId target);

  /// Drops every resident row (the full-flush reference path).
  void clear();

 private:
  struct Entry {
    std::list<NodeId>::iterator lru_it;
    DistVecPtr distances;
  };

  /// Acquires row storage (arena slot, heap spill fallback).
  [[nodiscard]] std::shared_ptr<std::uint8_t> acquire_slot() const;

  /// One BFS into a fresh row on the calling thread's workspace; an empty
  /// handle when the row saturates the width (never throws, so pool tasks
  /// may call it).
  [[nodiscard]] DistVecPtr compute_row(NodeId target) const;

  /// Inserts a freshly computed row as most recently used and evicts the
  /// LRU overflow; returns the number of entries evicted. Under mutex_.
  std::size_t install_locked(NodeId target, DistVecPtr row) const;

  const Graph& graph_;
  std::size_t capacity_;
  DistWidth width_;
  /// capacity + 1 slots of n entries at width_.
  mutable SlabArena<std::uint8_t> arena_;
  mutable std::mutex mutex_;
  mutable std::list<NodeId> lru_;  // front = most recently used
  mutable std::unordered_map<NodeId, Entry> cache_;
  mutable std::size_t hits_ = 0, misses_ = 0;
};

}  // namespace nav::graph
