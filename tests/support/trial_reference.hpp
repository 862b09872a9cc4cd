// trial_reference.hpp — the sequential Monte-Carlo estimator.
//
// Routes the trial grid one route at a time through Router::route, on the
// stream addresses of the production path: replicate r of a single pair on
// rng.child(r); for a diameter estimate, replicate r of pair p on
// rng.child(p + 1).child(r), the pairs from trial_pairs(rng). It is the
// reference api::RouteService's batched estimates (target-sharded
// route_jobs, folded by fold_trial_grid) must match bit for bit, at any
// worker count. Test support only.
#pragma once

#include <utility>
#include <vector>

#include "routing/router.hpp"
#include "routing/trial_runner.hpp"
#include "runtime/assert.hpp"

namespace nav::routing {

/// E(φ, s, t) from `resamples` routes of (s, t), replicate r on
/// rng.child(r), routed in index order.
[[nodiscard]] inline PairEstimate estimate_pair_reference(
    const Router& router, const AugmentationScheme* scheme, NodeId s,
    NodeId t, std::size_t resamples, const Rng& rng) {
  NAV_REQUIRE(resamples >= 1, "need at least one resample");
  std::vector<RouteResult> results;
  results.reserve(resamples);
  for (std::size_t r = 0; r < resamples; ++r) {
    results.push_back(router.route(s, t, scheme, rng.child(r)));
  }
  const std::pair<NodeId, NodeId> pair{s, t};
  return fold_trial_grid({&pair, 1}, resamples, results).pairs[0];
}

/// The greedy-diameter estimate over trial_pairs(router.graph(), config,
/// rng), pair by pair and replicate by replicate.
[[nodiscard]] inline GreedyDiameterEstimate estimate_diameter_reference(
    const Router& router, const AugmentationScheme* scheme,
    const TrialConfig& config, const Rng& rng) {
  NAV_REQUIRE(config.resamples >= 1, "need at least one resample");
  const auto pairs = trial_pairs(router.graph(), config, rng);
  std::vector<RouteResult> results;
  results.reserve(pairs.size() * config.resamples);
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const Rng pair_rng = rng.child(p + 1);
    for (std::size_t r = 0; r < config.resamples; ++r) {
      results.push_back(router.route(pairs[p].first, pairs[p].second, scheme,
                                     pair_rng.child(r)));
    }
  }
  return fold_trial_grid(pairs, config.resamples, results);
}

}  // namespace nav::routing
