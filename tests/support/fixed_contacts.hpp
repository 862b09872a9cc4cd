// fixed_contacts.hpp — a fixed (eagerly sampled) augmentation as a scheme.
//
// Router tests pin hand-built contact vectors ("node 1 links to the target")
// and eager draws of a real scheme. FixedContacts wraps such a vector as an
// AugmentationScheme whose sample_contact(u) ignores the rng and returns
// contacts[u], so the tests route it through the production
// Router::route(s, t, scheme, rng): greedy's lazy draws and lookahead's
// MemoContacts both realise exactly this augmentation.
// Test support only.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/scheme.hpp"

namespace nav::core {

/// contacts[u] is u's long-range contact or kNoContact, whatever the rng.
class FixedContacts final : public AugmentationScheme {
 public:
  explicit FixedContacts(std::vector<NodeId> contacts)
      : contacts_(std::move(contacts)) {}

  [[nodiscard]] NodeId sample_contact(NodeId u, Rng&) const override {
    NAV_ASSERT(u < contacts_.size());
    return contacts_[u];
  }
  [[nodiscard]] std::string name() const override { return "fixed"; }
  [[nodiscard]] NodeId num_nodes() const override {
    return static_cast<NodeId>(contacts_.size());
  }

 private:
  std::vector<NodeId> contacts_;
};

/// Eager augmentation: one contact per node, drawn in node order from `rng`
/// (the paper's static view).
[[nodiscard]] inline std::vector<NodeId> sample_all_contacts(
    const AugmentationScheme& scheme, Rng& rng) {
  std::vector<NodeId> contacts(scheme.num_nodes(), kNoContact);
  for (NodeId u = 0; u < scheme.num_nodes(); ++u) {
    contacts[u] = scheme.sample_contact(u, rng);
  }
  return contacts;
}

}  // namespace nav::core
