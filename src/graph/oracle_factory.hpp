// oracle_factory.hpp — the one place distance oracles are constructed.
//
// Every front end (api::NavigationEngine, api::Experiment, sweep_cli,
// route_server, the benches) used to hand-roll its own "matrix below this n,
// cache above it" policy. make_oracle replaces all of that with a spec
// string, so backends — including the approximate landmark oracle and the
// narrow storage widths — are reachable from every surface without new
// plumbing:
//
//   auto                      the size rule: matrix for n <= kDenseOracleLimit,
//                             else a cache with cache_slots entries
//   matrix[:WIDTH]            dense all-pairs DistanceMatrix
//   cache[:CAP][:WIDTH]       TargetDistanceCache; CAP is an entry count
//                             ("256") or a byte budget ("64M"; K/M/G suffix)
//   landmark:K[:SELECTION]    LandmarkOracle with K landmarks; SELECTION is
//                             "degree" or "farthest" (default)
//   faulty:BASE:FAULTS        resilience::FaultyOracle over any BASE spec;
//                             FAULTS combines stall:<p>, fail:<p>,
//                             slow:<p>:<us>, seed:<n> (deterministic chaos)
//
// WIDTH is "u8" | "u16" | "u32" | "auto"; "auto" measures an eccentricity
// from node 0 and picks the narrowest width covering 2x that bound (the
// diameter is at most twice any eccentricity), falling back to u32 on
// disconnected graphs. The full grammar is documented in docs/API.md.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"

namespace nav::graph {

/// "auto": graphs up to this many nodes get a DistanceMatrix, larger ones a
/// TargetDistanceCache. The one copy of the size rule (dynamic::DynamicOracle
/// builds its kAuto backend through make_oracle too).
inline constexpr NodeId kDenseOracleLimit = 4096;

/// Tunables `make_oracle` folds into spec parsing.
struct OracleConfig {
  /// "auto" above kDenseOracleLimit / bare "cache": resident-entry count.
  std::size_t cache_slots = 64;
};

/// Builds the oracle described by `spec` over `g`. Throws
/// std::invalid_argument on malformed specs, and on narrow widths that
/// cannot hold the graph's distances (saturation is an error, never a wrong
/// answer).
[[nodiscard]] std::unique_ptr<DistanceOracle> make_oracle(
    const std::string& spec, const Graph& g, const OracleConfig& config = {});

/// One registered spec family, for CLI help text.
struct OracleInfo {
  std::string spec;
  std::string description;
};

/// The spec families make_oracle understands, in stable order.
[[nodiscard]] const std::vector<OracleInfo>& oracle_catalog();

}  // namespace nav::graph
