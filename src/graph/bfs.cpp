#include "graph/bfs.hpp"

#include "graph/bfs_engine.hpp"

namespace nav::graph {

// The free functions are convenience wrappers over the BFS engine: they run
// on the calling thread's pooled BfsWorkspace (bfs_engine.hpp), so the only
// allocation left is the returned container itself. Hot paths (distance
// oracle, schemes, measures) hold a workspace and call the kernels directly.

std::vector<Dist> bfs_distances(const Graph& g, NodeId source) {
  std::vector<Dist> dist(g.num_nodes());
  // A Dist row never saturates.
  (void)local_bfs_workspace().row_into<Dist>(g, source, dist);
  return dist;
}

std::vector<NodeId> ball(const Graph& g, NodeId center, Dist radius) {
  const auto view = local_bfs_workspace().ball(g, center, radius);
  return {view.order.begin(), view.order.end()};
}

}  // namespace nav::graph
