// service_trials.hpp — greedy Monte-Carlo estimates through the production
// path: api::RouteService routes the trial grid as one target-sharded batch
// (route_jobs) and folds it with routing::fold_trial_grid. The stream
// layouts are the benches': one pair's replicate r on rng.child(r)
// (bench_e2), or RouteService::estimate_diameter over trial_pairs (benches
// e3/e4, api::Experiment). Test support only.
#pragma once

#include <utility>
#include <vector>

#include "api/route_service.hpp"
#include "routing/greedy_router.hpp"
#include "routing/trial_runner.hpp"

namespace nav::routing {

/// E(φ, s, t) from `resamples` greedy routes of (s, t), replicate r on
/// rng.child(r).
[[nodiscard]] inline PairEstimate service_pair_estimate(
    const Graph& g, const AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, NodeId s, NodeId t,
    std::size_t resamples, const Rng& rng) {
  const GreedyRouter router(g, oracle);
  std::vector<api::RouteJob> jobs;
  jobs.reserve(resamples);
  for (std::size_t r = 0; r < resamples; ++r) {
    jobs.push_back({s, t, rng.child(r)});
  }
  const api::RouteService service(g, oracle, scheme, router);
  const std::pair<NodeId, NodeId> pair{s, t};
  return fold_trial_grid({&pair, 1}, resamples,
                         service.route_jobs(jobs).results)
      .pairs[0];
}

/// The greedy-diameter estimate over trial_pairs(g, config, rng).
[[nodiscard]] inline GreedyDiameterEstimate service_greedy_diameter(
    const Graph& g, const AugmentationScheme* scheme,
    const graph::DistanceOracle& oracle, const TrialConfig& config,
    const Rng& rng) {
  const GreedyRouter router(g, oracle);
  return api::RouteService(g, oracle, scheme, router)
      .estimate_diameter(config, rng, trial_pairs(g, config, rng));
}

}  // namespace nav::routing
