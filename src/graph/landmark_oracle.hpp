// landmark_oracle.hpp — approximate distances from k landmark BFS sweeps.
//
// DistanceMatrix is exact but O(n²); TargetDistanceCache is exact but pays a
// full BFS per distinct target. For graphs too big for either, the classic
// landmark (a.k.a. pivot/sketch) construction trades accuracy for an O(k·n)
// footprint: pick k landmarks, store their exact BFS rows (at the narrowest
// width holding their eccentricities, see dist_slab.hpp), and estimate
//
//   d̂(u, t) = min over landmarks l of  d(u, l) + d(l, t)  >=  d(u, t),
//
// the triangle upper bound. The estimate is exact whenever some shortest
// u–t path passes through a landmark — and always exact AT a landmark, since
// l = u (or l = t) collapses the bound to the true distance.
//
// Routing on an upper bound: d̂(·, t) is still 1-Lipschitz along edges (each
// term d(u, l) changes by at most 1 per hop), so a greedy descent on the
// landmark field cannot jump over the target but CAN stall at a local
// minimum where no neighbour improves. Two mitigations, both here:
//   * exact()-aware routers (greedy/lookahead) terminate cleanly at a stall
//     instead of asserting strict descent;
//   * the exact-ball patch: each materialised row overlays the true
//     distances on the ball B(t, kExactRadius), read by level off the
//     engine's ball kernel (BfsWorkspace::ball, cost O(|B(t, 2)|), no
//     second n-entry row), making the field exact — and hence strictly
//     descending — inside that ball, so routes that get near the target
//     finish instead of orbiting it.
//
// Per-target rows come from the shared row cache: LandmarkOracle IS a u32
// TargetDistanceCache whose fill_row hook writes the patched triangle field
// instead of a BFS row. The LRU, pins, batched prefetch waves (misses farmed
// across the pool) and the oracle.* telemetry are the cache's; a warm hit is
// a refcount copy, zero allocations.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"

namespace nav::graph {

/// How landmarks are picked.
enum class LandmarkSelection : std::uint8_t {
  kDegree,    ///< top-k by degree (ties: smaller id) — cheap, hub-biased
  kFarthest,  ///< farthest-point traversal from the max-degree seed —
              ///< spread-out cover, the better default on flat-degree graphs
};

struct LandmarkOptions {
  /// Number of landmarks (clamped to the node count; must be >= 1).
  std::size_t k = 16;
  LandmarkSelection selection = LandmarkSelection::kFarthest;
};

/// Approximate distance oracle: min-over-landmarks triangle upper bound with
/// an exact patch around each target, served through the shared row cache.
/// exact() is false — routers switch to stall-tolerant termination.
class LandmarkOracle final : public TargetDistanceCache {
 public:
  /// Radius of the exact BFS patch overlaid on every materialised row.
  static constexpr Dist kExactRadius = 2;
  /// Row-cache capacity (materialised target rows kept resident).
  static constexpr std::size_t kRowCacheSlots = 64;

  explicit LandmarkOracle(const Graph& g, LandmarkOptions options = {});

  [[nodiscard]] bool exact() const noexcept override { return false; }

  /// The selected landmarks, in selection order.
  [[nodiscard]] std::span<const NodeId> landmarks() const noexcept {
    return landmarks_;
  }
  [[nodiscard]] std::size_t num_landmarks() const noexcept {
    return landmarks_.size();
  }
  /// Storage width of the landmark rows: width_for_bound of the largest
  /// landmark eccentricity. (Materialised target rows are u32: that is
  /// width(), the row cache's.)
  [[nodiscard]] DistWidth landmark_width() const noexcept {
    return landmark_width_;
  }

 protected:
  /// Writes d̂(·, target) into the u32 row `dst`: min over landmarks, then
  /// the exact distances on B(target, kExactRadius). Never saturates.
  [[nodiscard]] bool fill_row(NodeId target, std::uint8_t* dst) const override;

 private:
  /// Picks the landmarks and sweeps their rows at landmark_width_; false
  /// when a row saturates (the caller widens and retries).
  bool select_landmarks(const Graph& g);
  /// Landmark i's stored row.
  [[nodiscard]] DistRow landmark_row(std::size_t i) const;

  LandmarkOptions options_;
  std::vector<NodeId> landmarks_;
  /// k rows of n exact distances at landmark_width_, row-major in selection
  /// order.
  std::shared_ptr<std::uint8_t[]> rows_;
  DistWidth landmark_width_ = DistWidth::kU8;
};

}  // namespace nav::graph
