// scheme.hpp — the augmentation-scheme interface (paper §1).
//
// An augmentation scheme φ gives every node u a probability distribution φ_u
// over long-range contacts. The simulator samples contacts *lazily*: a node's
// contact is drawn the first time greedy routing visits it. This is
// distribution-identical to pre-sampling one contact per node, because greedy
// routing strictly decreases the distance to the target at every step (each
// node has a local neighbour strictly closer to the target), hence never
// visits a node twice within one routing episode. The test suite covers the
// equivalence against an eager draw (tests/support/fixed_contacts.hpp).
//
// Contacts may be absent: substochastic matrix rows (Definition 1 allows
// row sums < 1) and empty label classes yield kNoContact, meaning the node
// only has its local links.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "runtime/rng.hpp"

namespace nav::core {

using graph::Graph;
using graph::NodeId;

/// "This node has no long-range link."
inline constexpr NodeId kNoContact = graph::kNoNode;

class AugmentationScheme {
 public:
  virtual ~AugmentationScheme() = default;

  /// Draws a fresh contact from φ_u. May return kNoContact (substochastic φ_u)
  /// or u itself (e.g. the ball scheme's B(u,2^k) contains u); both are
  /// useless-but-harmless links that greedy routing simply never follows.
  [[nodiscard]] virtual NodeId sample_contact(NodeId u, Rng& rng) const = 0;

  /// Scheme identifier for tables, e.g. "uniform", "ball", "ml".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Exact φ_u(v) where tractable; returns a negative value when the scheme
  /// does not implement exact evaluation. Used by distribution tests.
  [[nodiscard]] virtual double probability(NodeId u, NodeId v) const;

  /// The full row (φ_u(v))_v. Default loops probability(u, ·); schemes with
  /// a cheaper batch form (ball: one BFS) override it. Throws
  /// std::logic_error when exact evaluation is unsupported.
  [[nodiscard]] virtual std::vector<double> probability_row(NodeId u) const;

  /// Number of nodes of the augmented graph.
  [[nodiscard]] virtual NodeId num_nodes() const = 0;
};

/// Fixed-augmentation view with *memoised lazy* sampling: node u's contact is
/// drawn from rng.child(u) on first access and cached, so the realised
/// augmented graph is identical to an eager draw — without paying for the
/// n - O(route length) contacts a route never looks at. Needed by consumers
/// that must see a *consistent* link for a node across multiple accesses
/// (e.g. NoN lookahead reads a contact first as a neighbour's link, later as
/// the current node's own link).
///
/// Child-stream contract: the constructor takes `rng` BY VALUE, and that is
/// intentional, not an accidental copy. The memo snapshots the stream state
/// at construction and derives node u's draw from the child stream
/// snapshot.child(u), never from the parent's ongoing sequence. Hence
///   * the realised augmentation is a pure function of (scheme, snapshot) —
///     independent of the order in which routes touch nodes, and of whatever
///     the caller does with its own rng afterwards;
///   * two MemoContacts built from the same snapshot realise the SAME
///     augmented graph (lookahead tests rely on this);
///   * the caller's stream is never advanced — hand each memo a dedicated
///     child (e.g. rng.child(trial)) to vary the augmentation per trial.
class MemoContacts {
 public:
  MemoContacts(const AugmentationScheme& scheme, Rng rng)
      : scheme_(scheme), rng_(rng),
        contacts_(scheme.num_nodes(), kNoContact),
        known_(scheme.num_nodes(), 0) {}

  [[nodiscard]] NodeId operator()(NodeId u) {
    NAV_ASSERT(u < contacts_.size());
    if (!known_[u]) {
      Rng node_rng = rng_.child(u);
      contacts_[u] = scheme_.sample_contact(u, node_rng);
      known_[u] = 1;
    }
    return contacts_[u];
  }

 private:
  const AugmentationScheme& scheme_;
  Rng rng_;
  std::vector<NodeId> contacts_;
  std::vector<std::uint8_t> known_;
};

using SchemePtr = std::unique_ptr<AugmentationScheme>;

}  // namespace nav::core
