// lookahead_router.hpp — greedy routing with depth-d lookahead (NoN).
//
// "Know Thy Neighbor's Neighbor" (Manku, Naor, Wieder — STOC'04, the paper's
// reference [16]): nodes also know the long-range contacts of their
// neighbours. Zeng–Hsu–Hu ("Near Optimal Routing for Small-World Networks
// with Augmented Local Awareness") generalise to deeper awareness, which is
// why depth is a first-class parameter here instead of a separate code path.
// The depth-d NoN-greedy rule at u with target t:
//   * score every neighbour w (local + u's own contact) by the best distance
//     reachable along the chain w, contact(w), contact(contact(w)), ... of
//     up to d long links: min over the chain prefix of dist(·, t);
//   * move to the best-scoring w; if w itself is not closer than u (it was
//     chosen for its chain), keep following the committed chain of long
//     links until the distance has dropped — at most d extra steps.
// Every committed move lowers the distance by >= 1 per <= 1 + d steps, so
// the route takes <= (1 + d) · dist(s,t) steps (asserted). d = 1 is exactly
// the STOC'04 protocol; the registry (make_router) maps "lookahead:0" to the
// plain greedy router.
//
// Lookahead requires *consistent* contacts (the neighbour's link must be the
// same when the message reaches it): every entry point routes through a
// core::MemoContacts built from the route's private rng stream, which
// realises one fixed augmentation lazily. A scheme whose sample_contact
// ignores the rng (a fixed contact vector) routes that exact augmentation.
//
// This is extension experiment E10: how much of the sqrt(n)-barrier can
// extra *local knowledge* recover, compared to changing the augmentation
// distribution itself (Theorem 4)?
#pragma once

#include <span>

#include "routing/router.hpp"

namespace nav::routing {

class LookaheadRouter final : public Router {
 public:
  /// `depth` >= 1 long links of awareness per candidate (1 = classic NoN).
  LookaheadRouter(const Graph& g, const graph::DistanceOracle& oracle,
                  unsigned depth = 1)
      : graph_(g), oracle_(oracle), depth_(depth), exact_(oracle.exact()) {
    NAV_REQUIRE(depth_ >= 1, "lookahead depth must be >= 1 (0 is greedy)");
  }

  /// Router interface: realises a fixed augmentation lazily via
  /// core::MemoContacts seeded from `rng` (so repeated reads of a node's
  /// link are consistent), then routes with depth-d lookahead.
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

  [[nodiscard]] std::string name() const override {
    return "lookahead:" + std::to_string(depth_);
  }
  [[nodiscard]] const Graph& graph() const noexcept override { return graph_; }
  [[nodiscard]] unsigned depth() const noexcept { return depth_; }

 private:
  /// Resolves `scheme` to memoised contacts, then runs route_impl.
  template <typename T>
  RouteResult route_scheme(NodeId s, NodeId t, std::span<const T> dist,
                           const AugmentationScheme* scheme, Rng& rng,
                           bool record_trace) const;

  /// The NoN-greedy walk over a row of stored entries T (u8/u16/u32),
  /// compared raw like GreedyRouter::route_impl. `contacts` must return the
  /// same value on repeated calls for a node.
  template <typename T, typename ContactFn>
  RouteResult route_impl(NodeId s, NodeId t, std::span<const T> dist,
                         ContactFn&& contacts, bool record_trace) const;

  const Graph& graph_;
  const graph::DistanceOracle& oracle_;
  unsigned depth_;
  /// Cached oracle.exact(): false swaps the strict-descent assertion for
  /// stall-tolerant termination (reached == false at a local minimum).
  const bool exact_;
};

}  // namespace nav::routing
