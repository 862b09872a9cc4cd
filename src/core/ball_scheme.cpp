#include "core/ball_scheme.hpp"

#include <algorithm>
#include <cmath>

#include "graph/bfs_engine.hpp"
#include "graph/connectivity.hpp"

namespace nav::core {

BallScheme::BallScheme(const Graph& g, std::uint32_t levels)
    : graph_(g),
      levels_(levels),
      connected_(graph::is_connected(g)) {
  NAV_REQUIRE(g.num_nodes() >= 1, "empty graph");
  if (levels_ == 0) {
    levels_ = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::ceil(std::log2(static_cast<double>(g.num_nodes())))));
  }
  NAV_REQUIRE(levels_ <= 31, "too many levels");
  ball_size_ = std::vector<std::atomic<std::uint32_t>>(
      std::size_t{g.num_nodes()} * levels_);
}

NodeId BallScheme::sample_from_ball(NodeId u, std::uint32_t k,
                                    Rng& rng) const {
  NAV_ASSERT(u < graph_.num_nodes() && k >= 1 && k <= levels_);
  const NodeId n = graph_.num_nodes();
  const graph::Dist radius = graph::Dist{1} << k;
  // Whole-graph balls are uniform node-id draws (see header): every path
  // below draws them the same way, so cache state never changes a contact.
  if (connected_ && radius >= n) return random_index(rng, n);

  auto& ws = graph::local_bfs_workspace();
  std::atomic<std::uint32_t>* const sizes =
      &ball_size_[std::size_t{u} * levels_];
  const std::uint32_t size = sizes[k - 1].load(std::memory_order_relaxed);
  if (size == n) return random_index(rng, n);
  if (size != 0) {
    // |B| is known, so draw the index first and stop the BFS once it has
    // discovered that member: the same rng draw and the same discovery
    // order as the full BFS below, hence the same contact.
    const std::uint32_t idx = random_index(rng, size);
    return ws.ball(graph_, u, radius, std::size_t{idx} + 1).order[idx];
  }

  const auto view = ws.ball(graph_, u, radius);
  for (std::uint32_t j = 1; j <= levels_; ++j) {
    const std::uint32_t s = view.pow2_sizes[j];
    if (s != 0 && sizes[j - 1].load(std::memory_order_relaxed) == 0) {
      sizes[j - 1].store(s, std::memory_order_relaxed);
    }
  }
  if (view.whole_graph) return random_index(rng, n);
  return view.order[random_index(rng, view.order.size())];
}

std::uint32_t BallScheme::learned_ball_size(NodeId u, std::uint32_t k) const {
  NAV_REQUIRE(u < graph_.num_nodes() && k >= 1 && k <= levels_,
              "learned_ball_size: node or level out of range");
  return ball_size_[std::size_t{u} * levels_ + k - 1].load(
      std::memory_order_relaxed);
}

NodeId BallScheme::sample_contact(NodeId u, Rng& rng) const {
  const auto k = 1 + static_cast<std::uint32_t>(rng.next_below(levels_));
  return sample_from_ball(u, k, rng);
}

std::string BallScheme::name() const { return "ball"; }

std::vector<std::size_t> BallScheme::sizes_from_row(
    const std::vector<graph::Dist>& dist) const {
  std::vector<std::size_t> sizes(levels_ + 1, 0);
  for (const auto d : dist) {
    if (d == graph::kInfDist) continue;
    for (std::uint32_t k = 1; k <= levels_; ++k) {
      if (d <= (graph::Dist{1} << k)) ++sizes[k];
    }
  }
  return sizes;
}

std::vector<std::size_t> BallScheme::ball_sizes(NodeId u) const {
  return sizes_from_row(graph::bfs_distances(graph_, u));
}

double BallScheme::probability(NodeId u, NodeId v) const {
  NAV_ASSERT(u < graph_.num_nodes() && v < graph_.num_nodes());
  const auto dist = graph::bfs_distances(graph_, u);
  if (dist[v] == graph::kInfDist) return 0.0;
  const auto sizes = sizes_from_row(dist);
  double p = 0.0;
  for (std::uint32_t k = 1; k <= levels_; ++k) {
    if (dist[v] <= (graph::Dist{1} << k)) {
      p += 1.0 / static_cast<double>(sizes[k]);
    }
  }
  return p / static_cast<double>(levels_);
}

std::vector<double> BallScheme::probability_row(NodeId u) const {
  // One BFS serves the whole row: φ_u(v) = (1/L) Σ_{k >= r(v)} 1/|B_k(u)|,
  // precomputed as suffix sums over the level index.
  NAV_ASSERT(u < graph_.num_nodes());
  const auto dist = graph::bfs_distances(graph_, u);
  const auto sizes = sizes_from_row(dist);
  // suffix[k] = Σ_{j=k..L} 1/|B_j(u)|.
  std::vector<double> suffix(levels_ + 2, 0.0);
  for (std::uint32_t k = levels_; k >= 1; --k) {
    suffix[k] = suffix[k + 1] + 1.0 / static_cast<double>(sizes[k]);
  }
  std::vector<double> row(graph_.num_nodes(), 0.0);
  for (NodeId v = 0; v < graph_.num_nodes(); ++v) {
    if (dist[v] == graph::kInfDist) continue;
    std::uint32_t r = 1;
    while (r <= levels_ && dist[v] > (graph::Dist{1} << r)) ++r;
    if (r <= levels_) row[v] = suffix[r] / static_cast<double>(levels_);
  }
  return row;
}

// ---- fixed-level ablation ---------------------------------------------------

class FixedLevelBallScheme final : public AugmentationScheme {
 public:
  FixedLevelBallScheme(const Graph& g, std::uint32_t k)
      : base_(g, std::max<std::uint32_t>(k, 1)), k_(std::max<std::uint32_t>(k, 1)) {}

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override {
    return base_.sample_from_ball(u, k_, rng);
  }
  [[nodiscard]] std::string name() const override {
    return "ball-fixed-k" + std::to_string(k_);
  }
  [[nodiscard]] NodeId num_nodes() const override { return base_.num_nodes(); }

 private:
  BallScheme base_;
  std::uint32_t k_;
};

SchemePtr BallScheme::make_fixed_level(const Graph& g, std::uint32_t k) {
  return std::make_unique<FixedLevelBallScheme>(g, k);
}

}  // namespace nav::core
