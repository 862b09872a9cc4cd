#include "routing/greedy_router.hpp"

#include <limits>

namespace nav::routing {

template <typename T, typename ContactFn>
RouteResult GreedyRouter::route_impl(NodeId s, NodeId t,
                                     std::span<const T> dist,
                                     ContactFn&& contact_of,
                                     bool record_trace) const {
  constexpr T kInf = std::numeric_limits<T>::max();
  NAV_REQUIRE(s < graph_.num_nodes() && t < graph_.num_nodes(),
              "route endpoint out of range");
  NAV_REQUIRE(dist.size() == graph_.num_nodes(),
              "target distance vector size mismatch");
  NAV_REQUIRE(dist[s] != kInf, "target unreachable from source");

  RouteResult result;
  result.initial_distance = dist[s];
  NodeId u = s;
  if (record_trace) result.trace.push_back(u);
  while (u != t) {
    // Best local neighbour (smallest distance; ties -> smallest id, which is
    // the iteration order of the sorted adjacency).
    NodeId best = graph::kNoNode;
    T best_dist = kInf;
    for (const NodeId v : graph_.neighbors(u)) {
      if (dist[v] < best_dist) {
        best_dist = dist[v];
        best = v;
      }
    }
    bool via_long = false;
    const NodeId contact = contact_of(u);
    if (contact != core::kNoContact && contact < graph_.num_nodes() &&
        dist[contact] < best_dist) {
      best = contact;
      best_dist = dist[contact];
      via_long = true;
    }
    // On an exact field, connectivity gives a local neighbour at dist[u] - 1.
    // An approximate field (landmark upper bound) is still 1-Lipschitz but
    // can bottom out at a local minimum: terminate there, reached stays
    // false and the partial trace/steps survive.
    if (best == graph::kNoNode || best_dist >= dist[u]) {
      NAV_ASSERT(!exact_);
      return result;
    }
    u = best;
    ++result.steps;
    result.long_links_used += via_long ? 1u : 0u;
    if (record_trace) {
      result.trace.push_back(u);
      result.long_flags.push_back(via_long ? 1 : 0);
    }
  }
  result.reached = true;
  return result;
}

template <typename T>
RouteResult GreedyRouter::route_scheme(NodeId s, NodeId t,
                                       std::span<const T> dist,
                                       const AugmentationScheme* scheme,
                                       Rng& rng, bool record_trace) const {
  if (scheme == nullptr) {
    return route_impl(
        s, t, dist, [](NodeId) { return core::kNoContact; }, record_trace);
  }
  NAV_REQUIRE(scheme->num_nodes() == graph_.num_nodes(),
              "scheme/graph size mismatch");
  return route_impl(
      s, t, dist, [&](NodeId u) { return scheme->sample_contact(u, rng); },
      record_trace);
}

RouteResult GreedyRouter::route(NodeId s, NodeId t,
                                const AugmentationScheme* scheme, Rng rng,
                                bool record_trace) const {
  // One copy of the scheme dispatch: resolve the distance row, then take
  // the batch entry point (the temporary DistVecPtr outlives the call).
  NAV_REQUIRE(s < graph_.num_nodes() && t < graph_.num_nodes(),
              "route endpoint out of range");
  return route_row(s, t, *oracle_.distances_to(t), scheme, rng, record_trace);
}

RouteResult GreedyRouter::route_resolved(NodeId s, NodeId t,
                                         std::span<const Dist> target_dist,
                                         const AugmentationScheme* scheme,
                                         Rng rng, bool record_trace) const {
  return route_scheme(s, t, target_dist, scheme, rng, record_trace);
}

RouteResult GreedyRouter::route_row(NodeId s, NodeId t,
                                    const graph::DistRow& row,
                                    const AugmentationScheme* scheme, Rng rng,
                                    bool record_trace) const {
  return row.visit([&](auto dist) {
    return route_scheme(s, t, dist, scheme, rng, record_trace);
  });
}

}  // namespace nav::routing
