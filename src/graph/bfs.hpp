// bfs.hpp — breadth-first search primitives.
//
// Everything in the paper reduces to unweighted shortest-path distances:
// greedy routing compares dist_G(·, t); the ball scheme of Theorem 4 samples
// from B(u, 2^k); the pathlength measure needs pairwise bag distances.
//
// The three free functions below (a full distance row, a ball, the
// farthest node) are convenience wrappers over the reusable engine in
// bfs_engine.hpp (epoch-stamped workspaces, direction-optimizing full
// sweeps): they allocate only the returned container. Allocation-sensitive
// callers, and anything else (bounded sweeps, rows at a storage width),
// hold a BfsWorkspace and use its kernels directly.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace nav::graph {

using Dist = std::uint32_t;
inline constexpr Dist kInfDist = std::numeric_limits<Dist>::max();

/// Full single-source BFS. Unreachable nodes get kInfDist.
[[nodiscard]] std::vector<Dist> bfs_distances(const Graph& g, NodeId source);

/// The ball B(u, r) = { v : dist(u, v) <= r }, in BFS (distance, id) order.
/// This is the sampling domain of the Theorem 4 scheme. Cost O(|edges in
/// ball|) — the visited set is epoch-stamped workspace state, not a fresh
/// O(n) array per call.
[[nodiscard]] std::vector<NodeId> ball(const Graph& g, NodeId center, Dist radius);

/// Farthest node from `source` (smallest id among ties) and its distance.
/// Building block of the double-sweep diameter heuristic.
struct FarthestResult {
  NodeId node = kNoNode;
  Dist distance = 0;
};
[[nodiscard]] FarthestResult farthest_node(const Graph& g, NodeId source);

}  // namespace nav::graph
