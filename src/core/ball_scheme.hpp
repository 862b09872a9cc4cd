// ball_scheme.hpp — the Õ(n^{1/3}) universal scheme (paper Theorem 4).
//
// Construction (§3): every node u first draws k uniform in {1..⌈log2 n⌉},
// then its long-range contact uniform in the ball B_k(u) = B(u, 2^k). The
// resulting distribution is
//     φ_u(v) = (1/⌈log n⌉) · Σ_{k = r(v)}^{⌈log n⌉} 1/|B_k(u)|,
// where r(v) is the smallest k with v ∈ B_k(u).
//
// This is an *a posteriori* scheme: it depends on the ball structure of G
// (unlike the matrix schemes of §2, fixed before seeing the graph). Sampling
// is implemented by radius-bounded BFS from u — cost O(edges inside the
// ball). Two shortcuts keep sweeps fast without changing a single draw:
//   * 2^k >= n-1 means B_k(u) = V (connected graphs only): uniform node draw;
//   * a cached |B_k(u)| (learned by any ball BFS that settles depth 2^k)
//     turns a whole-graph ball into a uniform node draw too, and otherwise
//     lets the draw idx come first, so the BFS stops once it has discovered
//     member idx — on average half the ball.
#pragma once

#include <atomic>
#include <memory>

#include "core/scheme.hpp"
#include "graph/bfs.hpp"

namespace nav::core {

class BallScheme final : public AugmentationScheme {
 public:
  /// `levels` = the paper's ⌈log2 n⌉ by default; overridable for the E7b
  /// ablation (fixed-k variants use make_fixed_level below).
  explicit BallScheme(const Graph& g, std::uint32_t levels = 0);

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng& rng) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double probability(NodeId u, NodeId v) const override;
  [[nodiscard]] std::vector<double> probability_row(NodeId u) const override;
  [[nodiscard]] NodeId num_nodes() const override { return graph_.num_nodes(); }

  [[nodiscard]] std::uint32_t levels() const noexcept { return levels_; }

  /// |B(u, 2^k)| for k = 1..levels (index 0 unused). One full BFS.
  [[nodiscard]] std::vector<std::size_t> ball_sizes(NodeId u) const;

  /// |B(u, 2^k)| as learned by earlier draws from u (1 <= k <= levels), or
  /// 0 while unknown.
  [[nodiscard]] std::uint32_t learned_ball_size(NodeId u,
                                                std::uint32_t k) const;

  /// E7b ablation: contact uniform in B(u, 2^k) for one fixed k (no mixture).
  [[nodiscard]] static SchemePtr make_fixed_level(const Graph& g,
                                                  std::uint32_t k);

 private:
  friend class FixedLevelBallScheme;

  /// Uniform draw from B(u, 2^k), 1 <= k <= levels; shared by the mixture
  /// and fixed-k variants.
  [[nodiscard]] NodeId sample_from_ball(NodeId u, std::uint32_t k,
                                        Rng& rng) const;

  /// |B(u, 2^k)| for k = 1..levels_ from u's full distance row.
  [[nodiscard]] std::vector<std::size_t> sizes_from_row(
      const std::vector<graph::Dist>& dist) const;

  const Graph& graph_;
  std::uint32_t levels_;
  bool connected_;
  /// ball_size_[u * levels_ + k - 1] = |B(u, 2^k)| once a ball BFS from u
  /// settled depth 2^k, 0 until then. Written racily with relaxed atomics —
  /// all writers store the same value.
  mutable std::vector<std::atomic<std::uint32_t>> ball_size_;
};

}  // namespace nav::core
