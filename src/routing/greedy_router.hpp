// greedy_router.hpp — the paper's greedy routing process (§1).
//
// At the current node u with destination t, the message is forwarded to the
// neighbour of u — among u's local neighbours *plus u's own long-range
// contact* — that is closest to t in the *underlying* graph G. Every node
// knows the distances of G but only its own long-range link.
//
// Termination: u always has a local neighbour on a shortest path to t, at
// distance dist(u,t) - 1, so the chosen next hop strictly decreases the
// distance. Hence the route takes at most dist(s,t) <= diam(G) steps, visits
// no node twice (which also makes lazy contact sampling exact — see
// core/scheme.hpp), and the router asserts the strict decrease.
//
// Tie-breaking: the paper allows any choice; we prefer the local neighbour
// with the smallest id, and take the long link only when *strictly* better
// than every local option (deterministic given the contact draw).
#pragma once

#include <span>

#include "routing/router.hpp"

namespace nav::routing {

class GreedyRouter final : public Router {
 public:
  /// The oracle provides dist_G(·, t); both must outlive the router. The
  /// oracle's exact() flag is read once here: approximate fields (landmark
  /// bound) switch the strict-descent assertion for stall-tolerant
  /// termination (a stalled route returns with reached == false).
  GreedyRouter(const Graph& g, const graph::DistanceOracle& oracle)
      : graph_(g), oracle_(oracle), exact_(oracle.exact()) {}

  /// Routes s -> t, sampling each visited node's contact lazily from
  /// `scheme` (nullptr: no long-range links — pure shortest-path walk).
  /// `rng` is by value per the Router contract: the route consumes a
  /// private stream.
  [[nodiscard]] RouteResult route(NodeId s, NodeId t,
                                  const AugmentationScheme* scheme, Rng rng,
                                  bool record_trace = false) const override;

  /// Batch entry points: same process, but dist(·, t) comes from the
  /// caller-resolved row instead of an oracle query. route_row reads the
  /// row at its storage width, in place.
  [[nodiscard]] RouteResult route_resolved(
      NodeId s, NodeId t, std::span<const Dist> target_dist,
      const AugmentationScheme* scheme, Rng rng,
      bool record_trace = false) const override;
  [[nodiscard]] RouteResult route_row(NodeId s, NodeId t,
                                      const graph::DistRow& row,
                                      const AugmentationScheme* scheme, Rng rng,
                                      bool record_trace = false) const override;

  [[nodiscard]] std::string name() const override { return "greedy"; }
  [[nodiscard]] const Graph& graph() const noexcept override { return graph_; }

 private:
  /// Resolves `scheme` to a contact function, then runs route_impl.
  template <typename T>
  RouteResult route_scheme(NodeId s, NodeId t, std::span<const T> dist,
                           const AugmentationScheme* scheme, Rng& rng,
                           bool record_trace) const;

  /// The greedy walk over a row of stored entries T (u8/u16/u32): each
  /// width's sentinel is its numeric maximum, so raw comparisons order
  /// exactly like decoded distances and no entry is decoded per hop.
  template <typename T, typename ContactFn>
  RouteResult route_impl(NodeId s, NodeId t, std::span<const T> dist,
                         ContactFn&& contact_of, bool record_trace) const;

  const Graph& graph_;
  const graph::DistanceOracle& oracle_;
  const bool exact_;
};

}  // namespace nav::routing
