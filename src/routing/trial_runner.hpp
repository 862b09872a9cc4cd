// trial_runner.hpp — the Monte-Carlo trial grid behind E(φ, s, t) and the
// greedy diameter diam(G, φ) = max_{s,t} E(φ, s, t).
//
// An estimate redraws the augmentation `resamples` times per selected
// (s, t) pair and routes once per draw (lazy sampling = one fresh augmented
// graph per trial). Pair selection:
//   * kPeripheralPlusRandom (default): the double-sweep peripheral pair —
//     which dominates the maximum in every family studied here — plus
//     uniformly random distinct pairs;
//   * kRandom: only random pairs;
//   * kAllPairs: every ordered pair with s != t (small n / tests).
//
// This header holds the grid's pieces: the configuration, the pair
// selection and the fold. The routing itself is api::RouteService's:
// estimate_diameter routes the whole pair × replicate grid as one
// target-sharded batch (route_jobs) and folds it with fold_trial_grid.
//
// Determinism: trial (pair p, replicate r) uses rng.child(p + 1).child(r)
// and the pairs come from pair_stream(rng) (trial_pairs); the result is
// independent of thread count and schedule.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/router.hpp"
#include "runtime/stats.hpp"

namespace nav::routing {

struct TrialConfig {
  enum class PairPolicy { kPeripheralPlusRandom, kRandom, kAllPairs };
  PairPolicy policy = PairPolicy::kPeripheralPlusRandom;
  std::size_t num_pairs = 24;   // random pairs (ignored for kAllPairs)
  std::size_t resamples = 16;   // augmentation redraws per pair
};

struct PairEstimate {
  NodeId s = 0;
  NodeId t = 0;
  Dist distance = 0;          // dist_G(s, t)
  double mean_steps = 0.0;    // estimate of E(φ, s, t)
  double ci_halfwidth = 0.0;  // 95% normal CI on the mean
  double max_steps = 0.0;
  double mean_long_links = 0.0;
};

struct GreedyDiameterEstimate {
  std::vector<PairEstimate> pairs;
  double max_mean_steps = 0.0;   // the greedy-diameter estimate
  double overall_mean_steps = 0.0;
  double max_ci_halfwidth = 0.0; // CI of the maximising pair
  std::size_t trials = 0;
};

/// The estimator's pair selection, exposed so batch drivers
/// (api::RouteService) can reproduce the exact trial grid: peripheral pair
/// first (policy-dependent), then random distinct pairs drawn from `rng`.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> select_trial_pairs(
    const Graph& g, const TrialConfig& config, Rng& rng);

/// The pair-selection sub-stream of an estimation rooted at `rng`:
/// rng.child(0xA11), the one address every estimator and demand-driven
/// sweep draws its pairs from.
[[nodiscard]] inline Rng pair_stream(const Rng& rng) { return rng.child(0xA11); }

/// The pairs an estimation rooted at `rng` selects: select_trial_pairs on
/// the pair_stream(rng) sub-stream.
[[nodiscard]] std::vector<std::pair<NodeId, NodeId>> trial_pairs(
    const Graph& g, const TrialConfig& config, const Rng& rng);

/// Folds a pair × replicate grid of routes into the estimate: results are
/// pair-major (results[p * resamples + r] is replicate r of pairs[p]),
/// replicates accumulate in index order per pair, then pair means in pair
/// order. Each pair's distance is its first replicate's initial_distance.
[[nodiscard]] GreedyDiameterEstimate fold_trial_grid(
    std::span<const std::pair<NodeId, NodeId>> pairs, std::size_t resamples,
    std::span<const RouteResult> results);

}  // namespace nav::routing
