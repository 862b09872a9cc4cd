#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include "graph/bfs_engine.hpp"
#include "graph/generators.hpp"

namespace nav::graph {
namespace {

/// A BFS truncated at `radius` (the workspace's bounded kernel).
std::vector<Dist> bounded_distances(const Graph& g, NodeId source,
                                    Dist radius) {
  std::vector<Dist> dist(g.num_nodes());
  local_bfs_workspace().distances_into(g, source, dist, radius);
  return dist;
}

TEST(Bfs, PathDistances) {
  const auto g = make_path(5);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, UnreachableIsInf) {
  Graph g(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], kInfDist);
}

TEST(Bfs, BoundedStopsAtRadius) {
  const auto g = make_path(10);
  const auto d = bounded_distances(g, 0, 3);
  EXPECT_EQ(d[3], 3u);
  EXPECT_EQ(d[4], kInfDist);
}

TEST(Bfs, BoundedZeroRadiusOnlySource) {
  const auto g = make_path(4);
  const auto d = bounded_distances(g, 2, 0);
  EXPECT_EQ(d[2], 0u);
  EXPECT_EQ(d[1], kInfDist);
  EXPECT_EQ(d[3], kInfDist);
}

TEST(Ball, SizesOnPath) {
  const auto g = make_path(100);
  EXPECT_EQ(ball(g, 50, 0).size(), 1u);
  EXPECT_EQ(ball(g, 50, 3).size(), 7u);   // 3 left + center + 3 right
  EXPECT_EQ(ball(g, 0, 5).size(), 6u);    // one-sided at the endpoint
  EXPECT_EQ(ball(g, 50, 200).size(), 100u); // whole graph
}

TEST(Ball, FirstElementIsCenterAndOrderIsByDistance) {
  const auto g = make_grid2d(5, 5);
  const auto b = ball(g, 12, 2);
  EXPECT_EQ(b.front(), 12u);
  const auto dist = bfs_distances(g, 12);
  for (std::size_t i = 0; i + 1 < b.size(); ++i) {
    EXPECT_LE(dist[b[i]], dist[b[i + 1]]);
  }
}

TEST(Ball, GridBallCountsMatchManhattan) {
  // Interior node of a big grid: |B(u, r)| = 2r^2 + 2r + 1.
  const auto g = make_grid2d(21, 21);
  const NodeId center = 10 * 21 + 10;
  for (Dist r = 0; r <= 4; ++r) {
    EXPECT_EQ(ball(g, center, r).size(), 2u * r * r + 2u * r + 1u)
        << "r=" << r;
  }
}

TEST(FarthestNode, PathEndpoint) {
  const auto g = make_path(8);
  const auto far = farthest_node(g, 3);
  EXPECT_EQ(far.node, 7u);
  EXPECT_EQ(far.distance, 4u);
}

TEST(Bfs, RejectsBadSource) {
  const auto g = make_path(3);
  EXPECT_THROW(bfs_distances(g, 5), std::invalid_argument);
  EXPECT_THROW(ball(g, 5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace nav::graph
