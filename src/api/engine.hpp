// engine.hpp — NavigationEngine: one object owning the pieces every driver
// used to wire by hand.
//
// Before the facade each bench and example separately built a graph, picked
// a distance-oracle strategy (dense matrix vs. target cache, hard-coded per
// call site), constructed schemes and routers, and threaded Rngs through
// every call. NavigationEngine bundles:
//   * the graph (owned),
//   * a distance oracle built by graph::make_oracle from options.oracle_spec
//     ("auto" keeps the size rule: n <= graph::kDenseOracleLimit gets a
//     precomputed DistanceMatrix, larger graphs an LRU TargetDistanceCache),
//   * one augmentation scheme (registry spec or a custom SchemePtr),
//   * one router (registry spec; "greedy" by default),
// and exposes single routes, batch routing over the global thread pool
// (route_many), and greedy-diameter estimation — all deterministic given the
// caller-supplied Rng.
#pragma once

/// \file
/// \brief NavigationEngine: one owned graph + distance oracle + scheme +
/// router behind a fluent API.

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/scheme_factory.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/graph.hpp"
#include "routing/router_factory.hpp"
#include "routing/trial_runner.hpp"
#include "workload/workload.hpp"

namespace nav::api {

/// Construction knobs for NavigationEngine.
struct EngineOptions {
  /// Distance backend, as a graph::make_oracle spec ("auto" | "matrix[:w]" |
  /// "cache[:cap][:w]" | "landmark:k[:sel]" — grammar in docs/API.md).
  std::string oracle_spec = "auto";
  /// "auto" / bare "cache": resident target-vector count for the BFS cache.
  std::size_t cache_capacity = 64;
};

/// One object owning graph + distance oracle + augmentation scheme + router:
/// the facade's single-instance entry point. Fluent to configure
/// (use_scheme/use_router), deterministic given the caller-supplied Rng.
class NavigationEngine {
 public:
  /// Takes ownership of `g` and builds the size-appropriate oracle.
  explicit NavigationEngine(graph::Graph g, EngineOptions options = {});

  /// Builds the named graph::families instance of ~n nodes.
  [[nodiscard]] static NavigationEngine from_family(const std::string& family,
                                                    graph::NodeId n,
                                                    std::uint64_t graph_seed = 0x5eed,
                                                    EngineOptions options = {});

  /// Loads a graph in the nav-graph text format (graph/graph_io.hpp).
  [[nodiscard]] static NavigationEngine from_file(const std::string& path,
                                                  EngineOptions options = {});

  /// Loads a real graph by spec or bare path: "file:<path>" (format
  /// auto-detected: nav-graph, DIMACS, or SNAP edge list), "dimacs:<path>",
  /// or a plain path (treated as "file:<path>"). Disconnected inputs reduce
  /// to their largest component — see graph::load_edge_list.
  [[nodiscard]] static NavigationEngine load_graph(const std::string& spec,
                                                   EngineOptions options = {});

  /// Selects the augmentation by registry spec (core::make_scheme; "none"
  /// clears it). Scheme construction randomness derives from `scheme_seed`.
  NavigationEngine& use_scheme(const std::string& spec,
                               std::uint64_t scheme_seed = 0x5eed);

  /// Installs a custom scheme (may be null = no long-range links).
  NavigationEngine& use_scheme(core::SchemePtr scheme);

  /// Selects the routing process by registry spec (routing::make_router).
  NavigationEngine& use_router(const std::string& spec);

  /// The owned graph.
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  /// The spec-selected distance oracle (graph::make_oracle).
  [[nodiscard]] const graph::DistanceOracle& oracle() const noexcept {
    return *oracle_;
  }
  /// The current augmentation scheme; nullptr means local links only.
  [[nodiscard]] const core::AugmentationScheme* scheme() const noexcept {
    return scheme_.get();
  }
  /// The current routing process.
  [[nodiscard]] const routing::Router& router() const noexcept {
    return *router_;
  }
  /// The scheme registry spec currently in force ("none" default; the
  /// scheme's own name when installed via SchemePtr).
  [[nodiscard]] const std::string& scheme_spec() const noexcept {
    return scheme_spec_;
  }
  /// The router registry spec currently in force ("greedy" default).
  [[nodiscard]] const std::string& router_spec() const noexcept {
    return router_spec_;
  }

  /// Routes one message under the current scheme + router.
  [[nodiscard]] routing::RouteResult route(graph::NodeId s, graph::NodeId t,
                                           Rng rng,
                                           bool record_trace = false) const;

  /// Batch routing, executed through a target-sharded RouteService: pairs
  /// sharing a target share one BFS, shards fan across the global thread
  /// pool. Pair i uses rng.child(i), so the results are bit-identical to
  /// sequential routing whatever the shard layout or thread count.
  [[nodiscard]] std::vector<routing::RouteResult> route_many(
      std::span<const std::pair<graph::NodeId, graph::NodeId>> pairs,
      Rng rng) const;

  /// Greedy-diameter estimation under the current scheme + router.
  [[nodiscard]] routing::GreedyDiameterEstimate estimate_diameter(
      const routing::TrialConfig& config, Rng rng) const;

  /// Builds a demand model over the engine's graph
  /// (workload::make_workload registry); `seed` pins construction-time
  /// randomness (hot sets, popularity permutations). The engine must
  /// outlive the returned workload.
  [[nodiscard]] workload::WorkloadPtr make_workload(
      const std::string& spec, std::uint64_t seed = 0x5eed) const;

 private:
  // unique_ptrs keep graph/oracle addresses stable, so the router's internal
  // references survive moves of the engine itself.
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<graph::DistanceOracle> oracle_;
  core::SchemePtr scheme_;
  std::string scheme_spec_ = "none";
  routing::RouterPtr router_;
  std::string router_spec_ = "greedy";
};

}  // namespace nav::api
