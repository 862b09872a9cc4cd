#include "routing/lookahead_router.hpp"

#include <algorithm>
#include <limits>

namespace nav::routing {

RouteResult LookaheadRouter::route(NodeId s, NodeId t,
                                   const AugmentationScheme* scheme, Rng rng,
                                   bool record_trace) const {
  // One copy of the scheme dispatch: resolve the distance row, then take
  // the batch entry point (the temporary DistVecPtr outlives the call).
  NAV_REQUIRE(s < graph_.num_nodes() && t < graph_.num_nodes(),
              "route endpoint out of range");
  return route_row(s, t, *oracle_.distances_to(t), scheme, rng, record_trace);
}

template <typename T>
RouteResult LookaheadRouter::route_scheme(NodeId s, NodeId t,
                                          std::span<const T> dist,
                                          const AugmentationScheme* scheme,
                                          Rng& rng, bool record_trace) const {
  if (scheme == nullptr) {
    return route_impl(
        s, t, dist, [](NodeId) { return core::kNoContact; }, record_trace);
  }
  NAV_REQUIRE(scheme->num_nodes() == graph_.num_nodes(),
              "scheme/graph size mismatch");
  core::MemoContacts contacts(*scheme, rng);
  return route_impl(
      s, t, dist, [&contacts](NodeId u) { return contacts(u); }, record_trace);
}

RouteResult LookaheadRouter::route_resolved(NodeId s, NodeId t,
                                            std::span<const Dist> target_dist,
                                            const AugmentationScheme* scheme,
                                            Rng rng, bool record_trace) const {
  return route_scheme(s, t, target_dist, scheme, rng, record_trace);
}

RouteResult LookaheadRouter::route_row(NodeId s, NodeId t,
                                       const graph::DistRow& row,
                                       const AugmentationScheme* scheme,
                                       Rng rng, bool record_trace) const {
  return row.visit([&](auto dist) {
    return route_scheme(s, t, dist, scheme, rng, record_trace);
  });
}

template <typename T, typename ContactFn>
RouteResult LookaheadRouter::route_impl(NodeId s, NodeId t,
                                        std::span<const T> dist,
                                        ContactFn&& contacts,
                                        bool record_trace) const {
  constexpr T kInf = std::numeric_limits<T>::max();
  NAV_REQUIRE(s < graph_.num_nodes() && t < graph_.num_nodes(),
              "route endpoint out of range");
  NAV_REQUIRE(dist.size() == graph_.num_nodes(),
              "target distance vector size mismatch");
  NAV_REQUIRE(dist[s] != kInf, "target unreachable from source");

  const NodeId n = graph_.num_nodes();
  // Best distance reachable from w along its chain of <= depth long links.
  // Contacts are consistent, so a chain longer than n links only revisits
  // nodes: walking min(depth, n) links scores exactly the same.
  const std::uint64_t chain_links = std::min<std::uint64_t>(depth_, n);
  auto chain_score = [&](NodeId w) -> T {
    T best = dist[w];
    NodeId x = w;
    for (std::uint64_t k = 0; k < chain_links; ++k) {
      x = contacts(x);
      if (x == core::kNoContact || x >= n) break;
      best = std::min(best, dist[x]);
    }
    return best;
  };

  RouteResult result;
  result.initial_distance = dist[s];
  NodeId u = s;
  if (record_trace) result.trace.push_back(u);

  auto hop = [&](NodeId next, bool via_long) {
    u = next;
    ++result.steps;
    result.long_links_used += via_long ? 1u : 0u;
    if (record_trace) {
      result.trace.push_back(next);
      result.long_flags.push_back(via_long ? 1 : 0);
    }
  };

  while (u != t) {
    const T du = dist[u];
    // Candidates: local neighbours and u's own long-range contact.
    NodeId best = graph::kNoNode;
    T best_score = kInf;
    bool best_via_long = false;
    auto offer = [&](NodeId w, bool via_long) {
      const T score = chain_score(w);
      // Prefer strictly better scores; among ties prefer a node that is
      // itself closer (avoids taking a multi-step move for nothing).
      if (score < best_score ||
          (score == best_score && best != graph::kNoNode &&
           dist[w] < dist[best])) {
        best = w;
        best_score = score;
        best_via_long = via_long;
      }
    };
    for (const NodeId w : graph_.neighbors(u)) offer(w, false);
    const NodeId own = contacts(u);
    if (own != core::kNoContact && own < n) offer(own, true);

    // On an exact field a local neighbour on a shortest path scores
    // <= du - 1. An approximate field can stall: no candidate (not even via
    // its chain) improves on du. Terminate; reached stays false. The commit
    // loop below never runs on a stall-free hop sequence whose scores lied —
    // scores come from the same dist array, so a committed chain still
    // delivers its promised drop.
    if (best == graph::kNoNode || best_score >= du) {
      NAV_ASSERT(!exact_);
      return result;
    }
    hop(best, best_via_long);
    // If the move was motivated by the candidate's chain, commit: follow the
    // long links until the promised distance drop materialises. The scorer
    // saw the same (consistent) contacts, so the drop arrives within depth_
    // links.
    unsigned followed = 0;
    while (u != t && dist[u] >= du) {
      NAV_ASSERT(followed < depth_);
      const NodeId c = contacts(u);
      NAV_ASSERT(c != core::kNoContact && c < n);
      hop(c, true);
      ++followed;
    }
  }
  result.reached = true;
  // 64-bit: (1 + depth) * dist overflows 32 bits at extreme depths.
  NAV_ASSERT(result.steps <= (1ull + depth_) * result.initial_distance);
  return result;
}

}  // namespace nav::routing
