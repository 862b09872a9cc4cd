#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

namespace nav::graph {

Graph::Graph(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges) : n_(n) {
  // kNoNode is the "no node" sentinel, and n_ + 1 offsets must not wrap.
  NAV_REQUIRE(n < kNoNode, "node count too large");
  for (auto& [u, v] : edges) {
    NAV_REQUIRE(u < n_ && v < n_, "edge endpoint out of range");
    NAV_REQUIRE(u != v, "self loops are not allowed");
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  m_ = edges.size();

  // Degree counting pass, then prefix sums, then fill.
  std::vector<std::uint64_t> degree(n_ + 1, 0);
  for (const auto& [u, v] : edges) {
    ++degree[u];
    ++degree[v];
  }
  offsets_.assign(n_ + 1, 0);
  for (NodeId u = 0; u < n_; ++u) offsets_[u + 1] = offsets_[u] + degree[u];
  adj_.resize(2 * m_);
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : edges) {
    adj_[cursor[u]++] = v;
    adj_[cursor[v]++] = u;
  }
  for (NodeId u = 0; u < n_; ++u) {
    std::sort(adj_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]),
              adj_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]));
    max_degree_ = std::max(max_degree_, this->degree(u));
  }
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  NAV_ASSERT(u < n_ && v < n_);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<NodeId, NodeId>> Graph::edge_list() const {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(m_);
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

std::string Graph::summary() const {
  std::ostringstream out;
  out << "Graph(n=" << n_ << ", m=" << m_ << ")";
  return out.str();
}

}  // namespace nav::graph
