#include "graph/landmark_oracle.hpp"

#include <algorithm>
#include <numeric>

#include "graph/bfs_engine.hpp"
#include "runtime/assert.hpp"

namespace nav::graph {

namespace {

NodeId max_degree_node(const Graph& g) {
  NodeId best = 0;
  std::size_t best_deg = g.neighbors(0).size();
  for (NodeId u = 1; u < g.num_nodes(); ++u) {
    const std::size_t deg = g.neighbors(u).size();
    if (deg > best_deg) {
      best = u;
      best_deg = deg;
    }
  }
  return best;
}

std::vector<NodeId> select_by_degree(const Graph& g, std::size_t k) {
  std::vector<NodeId> nodes(g.num_nodes());
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  std::partial_sort(nodes.begin(), nodes.begin() + static_cast<long>(k),
                    nodes.end(), [&](NodeId a, NodeId b) {
                      const std::size_t da = g.neighbors(a).size();
                      const std::size_t db = g.neighbors(b).size();
                      return da != db ? da > db : a < b;
                    });
  nodes.resize(k);
  return nodes;
}

}  // namespace

LandmarkOracle::LandmarkOracle(const Graph& g, LandmarkOptions options)
    : TargetDistanceCache(g, kRowCacheSlots, DistWidth::kU32),
      options_(options) {
  NAV_REQUIRE(g.num_nodes() > 0, "landmark oracle needs a non-empty graph");
  NAV_REQUIRE(options_.k >= 1, "landmark oracle needs k >= 1");
  // Rows start at u8 and widen when a landmark's sweep saturates, so they
  // end at width_for_bound of the largest landmark eccentricity. Selection
  // only reads exact distances, so a retry picks the same landmarks.
  while (!select_landmarks(g)) {
    landmark_width_ = landmark_width_ == DistWidth::kU8 ? DistWidth::kU16
                                                         : DistWidth::kU32;
  }
}

bool LandmarkOracle::select_landmarks(const Graph& g) {
  const std::size_t n = g.num_nodes();
  const std::size_t k = std::min(options_.k, n);
  const std::size_t row_bytes = n * width_bytes(landmark_width_);
  rows_ = std::shared_ptr<std::uint8_t[]>(new std::uint8_t[k * row_bytes]);
  landmarks_.clear();
  BfsWorkspace& ws = local_bfs_workspace();
  // Appends landmark l and sweeps its row; false when the row saturates.
  const auto add_landmark = [&](NodeId l) {
    const std::size_t i = landmarks_.size();
    landmarks_.push_back(l);
    return !ws.row_into(g, l, landmark_width_, rows_.get() + i * row_bytes);
  };

  if (options_.selection == LandmarkSelection::kDegree) {
    for (const NodeId l : select_by_degree(g, k)) {
      if (!add_landmark(l)) return false;
    }
    return true;
  }

  // Farthest-point traversal: seed at the max-degree node, then repeatedly
  // take the node farthest from the set so far (each new landmark's sweep is
  // also its stored row, so selection costs nothing extra). kInfDist in
  // min_dist means "no landmark reaches this node yet" — unreached
  // components win the argmax and get their own landmark first.
  if (!add_landmark(max_degree_node(g))) return false;
  std::vector<Dist> min_dist(n);
  landmark_row(0).widen_into(min_dist);
  for (std::size_t i = 1; i < k; ++i) {
    NodeId next = 0;
    Dist best = 0;
    for (NodeId u = 0; u < n; ++u) {
      if (min_dist[u] > best) {  // first max wins: ties break to smaller id
        best = min_dist[u];
        next = u;
      }
    }
    if (best == 0) break;  // every node IS a landmark already
    if (!add_landmark(next)) return false;
    landmark_row(i).visit([&](auto row) {
      for (NodeId u = 0; u < n; ++u) {
        min_dist[u] = std::min(min_dist[u], decode_dist(row[u]));
      }
    });
  }
  return true;
}

DistRow LandmarkOracle::landmark_row(std::size_t i) const {
  const std::size_t n = graph().num_nodes();
  return {rows_.get() + i * n * width_bytes(landmark_width_), n,
          landmark_width_};
}

bool LandmarkOracle::fill_row(NodeId target, std::uint8_t* dst) const {
  const std::size_t n = graph().num_nodes();
  const std::span<Dist> row{reinterpret_cast<Dist*>(dst), n};
  std::fill(row.begin(), row.end(), kInfDist);
  for (std::size_t i = 0; i < landmarks_.size(); ++i) {
    const DistRow lrow = landmark_row(i);
    const Dist to_target = lrow[target];
    if (to_target == kInfDist) continue;  // landmark in another component
    lrow.visit([&](auto entries) {
      for (std::size_t u = 0; u < n; ++u) {
        const Dist to_landmark = decode_dist(entries[u]);
        if (to_landmark == kInfDist) continue;
        row[u] = std::min(row[u], to_landmark + to_target);
      }
    });
  }
  // Exact-ball patch: overlay the true distances within kExactRadius of the
  // target, read off B(t, 2) by level — the target at 0, the members up to
  // |B(t, 1)| at 1, the rest at 2. The estimate is an upper bound, so
  // overwriting IS the min-merge inside the ball, and it anchors
  // row[target] = 0.
  static_assert(kExactRadius == 2, "the patch reads two levels off ball()");
  const auto patch = local_bfs_workspace().ball(graph(), target, kExactRadius);
  const std::size_t within_one = patch.pow2_sizes[0];
  for (std::size_t i = 0; i < patch.order.size(); ++i) {
    row[patch.order[i]] = i == 0 ? 0 : (i < within_one ? 1 : 2);
  }
  return false;  // u32 rows hold every finite sum of two distances
}

}  // namespace nav::graph
