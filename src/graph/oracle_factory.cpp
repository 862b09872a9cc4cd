#include "graph/oracle_factory.hpp"

#include <limits>
#include <stdexcept>

#include "graph/connectivity.hpp"
#include "graph/landmark_oracle.hpp"
#include "resilience/faulty_oracle.hpp"
#include "runtime/parse.hpp"

namespace nav::graph {

namespace {

/// WIDTH token: explicit width, or "auto" = narrowest width covering twice
/// an eccentricity (diameter <= 2·ecc(v) for any v). Disconnected graphs
/// have infinite-distance pairs, so "auto" stays at u32 there (the sentinel
/// always fits; the bound does not exist).
DistWidth resolve_width(const std::string& token, const std::string& spec,
                        const Graph& g) {
  if (token != "auto") return parse_dist_width(token, spec);
  if (g.num_nodes() == 0 || !is_connected(g)) return DistWidth::kU32;
  const Dist ecc = local_bfs_workspace().farthest(g, 0).distance;
  const Dist bound = ecc >= kInfDist / 2 ? kInfDist - 1 : ecc * 2;
  return width_for_bound(bound);
}

struct CacheCap {
  bool is_budget = false;  // trailing K/M/G: a byte budget, not a slot count
  std::size_t value = 0;
};

CacheCap parse_cache_cap(const std::string& token, const std::string& spec) {
  std::size_t mult = 0;
  if (!token.empty()) {
    switch (token.back()) {
      case 'K': case 'k': mult = std::size_t{1} << 10; break;
      case 'M': case 'm': mult = std::size_t{1} << 20; break;
      case 'G': case 'g': mult = std::size_t{1} << 30; break;
      default: break;
    }
  }
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (mult == 0) {
    const auto slots = parse_spec_number<std::size_t>(token, spec);
    // The cache keeps one spare slot beyond its capacity.
    if (slots == kMax) {
      throw std::invalid_argument("cache slot count too large in spec: " +
                                  spec);
    }
    return {false, slots};
  }
  const std::size_t base = parse_spec_number<std::size_t>(
      token.substr(0, token.size() - 1), spec);
  if (base > kMax / mult) {
    throw std::invalid_argument("cache byte budget overflows in spec: " +
                                spec);
  }
  return {true, base * mult};
}

}  // namespace

std::unique_ptr<DistanceOracle> make_oracle(const std::string& spec,
                                            const Graph& g,
                                            const OracleConfig& config) {
  const std::vector<std::string> tokens = split_spec(spec);
  const std::string& head = tokens[0];

  if (head == "auto") {
    if (tokens.size() != 1) {
      throw std::invalid_argument("'auto' takes no arguments: " + spec);
    }
    // The historical hard-wired policy, bit for bit.
    if (g.num_nodes() <= config.dense_limit) {
      return std::make_unique<DistanceMatrix>(g, config.policy);
    }
    return std::make_unique<TargetDistanceCache>(g, config.cache_slots,
                                                 config.policy);
  }

  if (head == "matrix") {
    if (tokens.size() > 2) {
      throw std::invalid_argument("matrix takes one optional width: " + spec);
    }
    const DistWidth width =
        tokens.size() == 2 ? resolve_width(tokens[1], spec, g)
                           : DistWidth::kU32;
    return std::make_unique<DistanceMatrix>(g, config.policy, width);
  }

  if (head == "cache") {
    if (tokens.size() > 3) {
      throw std::invalid_argument(
          "cache takes at most '<capacity>:<width>': " + spec);
    }
    const DistWidth width =
        tokens.size() == 3 ? resolve_width(tokens[2], spec, g)
                           : DistWidth::kU32;
    if (tokens.size() < 2) {
      return std::make_unique<TargetDistanceCache>(g, config.cache_slots,
                                                   config.policy, width);
    }
    const CacheCap cap = parse_cache_cap(tokens[1], spec);
    if (cap.is_budget) {
      return std::make_unique<TargetDistanceCache>(
          g, MemoryBudget{cap.value}, config.policy, width);
    }
    return std::make_unique<TargetDistanceCache>(g, cap.value, config.policy,
                                                 width);
  }

  if (head == "landmark") {
    if (tokens.size() < 2 || tokens.size() > 3) {
      throw std::invalid_argument(
          "landmark spec is 'landmark:<k>[:degree|farthest]': " + spec);
    }
    LandmarkOptions options;
    options.k = parse_spec_number<std::size_t>(tokens[1], spec);
    if (options.k == 0) {
      throw std::invalid_argument("landmark k must be >= 1: " + spec);
    }
    if (tokens.size() == 3) {
      if (tokens[2] == "degree") {
        options.selection = LandmarkSelection::kDegree;
      } else if (tokens[2] == "farthest") {
        options.selection = LandmarkSelection::kFarthest;
      } else {
        throw std::invalid_argument("bad landmark selection '" + tokens[2] +
                                    "' (degree | farthest) in spec: " + spec);
      }
    }
    return std::make_unique<LandmarkOracle>(g, options);
  }

  if (head == "faulty") {
    // "faulty:<base-spec>:<fault-spec>": the base spec may itself contain
    // ':' (e.g. cache:256:u16), so the base ends at the first fault-clause
    // head (stall | fail | slow | seed) — no base grammar uses those words.
    std::size_t split = 1;
    while (split < tokens.size() &&
           !resilience::FaultSpec::is_fault_head(tokens[split])) {
      ++split;
    }
    if (split == 1 || split == tokens.size()) {
      throw std::invalid_argument(
          "faulty spec is 'faulty:<base-spec>:<fault-spec>' (fault-spec: "
          "stall:<p> | fail:<p> | slow:<p>:<us> | seed:<n>, combinable): " +
          spec);
    }
    std::string base_spec = tokens[1];
    for (std::size_t i = 2; i < split; ++i) base_spec += ":" + tokens[i];
    if (tokens[1] == "faulty") {
      throw std::invalid_argument("faulty decorators do not nest: " + spec);
    }
    const auto fault = resilience::FaultSpec::parse(
        {tokens.begin() + static_cast<std::ptrdiff_t>(split), tokens.end()},
        spec);
    return std::make_unique<resilience::FaultyOracle>(
        make_oracle(base_spec, g, config), fault);
  }

  throw std::invalid_argument("unknown oracle spec: " + spec +
                              " (auto | matrix | cache | landmark | faulty)");
}

const std::vector<OracleInfo>& oracle_catalog() {
  static const std::vector<OracleInfo> catalog = {
      {"auto", "matrix for n <= dense_limit, else a cache (the legacy rule)"},
      {"matrix[:u8|u16|u32|auto]",
       "dense all-pairs table at a storage width (auto measures the graph)"},
      {"cache[:<slots>|<bytes>K/M/G][:u8|u16|u32|auto]",
       "per-target BFS cache, LRU-capped by entry count or byte budget"},
      {"landmark:<k>[:degree|farthest]",
       "approximate k-landmark triangle bound (farthest-point default)"},
      {"faulty:<base>:[stall:<p>][:fail:<p>][:slow:<p>:<us>][:seed:<n>]",
       "deterministic fault injection over any base oracle (chaos testing)"},
  };
  return catalog;
}

}  // namespace nav::graph
