#include "core/scheme.hpp"

#include <stdexcept>

namespace nav::core {

double AugmentationScheme::probability(NodeId, NodeId) const { return -1.0; }

std::vector<double> AugmentationScheme::probability_row(NodeId u) const {
  std::vector<double> row(num_nodes(), 0.0);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const double p = probability(u, v);
    if (p < 0.0) {
      throw std::logic_error("scheme '" + name() +
                             "' does not support exact probabilities");
    }
    row[v] = p;
  }
  return row;
}

}  // namespace nav::core
