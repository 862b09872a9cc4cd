#include "api/experiment.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "api/route_service.hpp"
#include "core/scheme_factory.hpp"
#include "dynamic/dynamic_graph.hpp"
#include "dynamic/mutation_stream.hpp"
#include "graph/diameter.hpp"
#include "graph/families.hpp"
#include "graph/oracle_factory.hpp"
#include "routing/router_factory.hpp"
#include "runtime/timer.hpp"
#include "workload/workload.hpp"

namespace nav::api {

Record CellResult::record() const {
  Record out = {
      {"family", family},
      {"workload", workload},
      {"scheme", scheme},
      {"router", router},
      {"n_requested", static_cast<std::uint64_t>(n_requested)},
      {"n", static_cast<std::uint64_t>(n_actual)},
      {"m", static_cast<std::uint64_t>(m)},
      {"diameter_lb", static_cast<std::uint64_t>(diameter_lb)},
      {"greedy_diameter", greedy_diameter},
      {"mean_steps", mean_steps},
      {"ci95", ci_halfwidth},
      {"seconds", seconds},
  };
  if (show_mutations) {
    // Only an explicit mutations axis emits these two fields, so legacy
    // grids (and their golden files) keep the exact record layout above.
    out.insert(out.begin() + 4, {"mutations", mutations});
    out.insert(out.end() - 1, {"success_rate", success_rate});
  }
  if (show_oracle) {
    // Same gating: only an explicit oracles() axis emits the field, right
    // after "router" (and after "mutations" when that axis is active too).
    out.insert(out.begin() + (show_mutations ? 5 : 4), {"oracle", oracle});
  }
  return out;
}

Table ExperimentResult::table() const {
  const bool with_mutations =
      std::any_of(cells.begin(), cells.end(),
                  [](const CellResult& c) { return c.show_mutations; });
  const bool with_oracle =
      std::any_of(cells.begin(), cells.end(),
                  [](const CellResult& c) { return c.show_oracle; });
  std::vector<std::string> header = {"family", "workload"};
  if (with_mutations) header.push_back("mutations");
  if (with_oracle) header.push_back("oracle");
  header.insert(header.end(), {"scheme", "router", "n", "m", "diam>=",
                               "greedy-diam", "mean", "ci95"});
  if (with_mutations) header.push_back("success");
  header.push_back("sec");
  Table out(std::move(header));
  for (const auto& c : cells) {
    std::vector<std::string> row = {c.family, c.workload};
    if (with_mutations) row.push_back(c.mutations);
    if (with_oracle) row.push_back(c.oracle);
    row.insert(row.end(),
               {c.scheme, c.router, Table::integer(c.n_actual),
                Table::integer(c.m), Table::integer(c.diameter_lb),
                Table::num(c.greedy_diameter, 1), Table::num(c.mean_steps, 1),
                Table::num(c.ci_halfwidth, 1)});
    if (with_mutations) row.push_back(Table::num(c.success_rate, 3));
    row.push_back(Table::num(c.seconds, 2));
    out.add_row(std::move(row));
  }
  return out;
}

std::vector<AxisFit> ExperimentResult::fits() const {
  using Key = std::tuple<std::string, std::string, std::string, std::string,
                         std::string>;
  std::map<Key, std::pair<std::vector<double>, std::vector<double>>> by;
  std::vector<Key> order;
  for (const auto& c : cells) {
    const Key key{c.workload, c.scheme, c.router, c.mutations, c.oracle};
    if (by.find(key) == by.end()) order.push_back(key);
    by[key].first.push_back(static_cast<double>(c.n_actual));
    by[key].second.push_back(c.greedy_diameter);
  }
  std::vector<AxisFit> fits;
  fits.reserve(order.size());
  for (const auto& key : order) {
    fits.push_back({std::get<0>(key), std::get<1>(key), std::get<2>(key),
                    std::get<3>(key), std::get<4>(key),
                    nav::fit_power_law(by[key].first, by[key].second)});
  }
  return fits;
}

Table ExperimentResult::fit_table() const {
  const auto all = fits();
  const bool with_mutations =
      std::any_of(all.begin(), all.end(),
                  [](const AxisFit& f) { return f.mutations != "none"; });
  const bool with_oracle = std::any_of(
      all.begin(), all.end(),
      [](const AxisFit& f) { return f.oracle != "auto"; });
  std::vector<std::string> header = {"workload"};
  if (with_mutations) header.push_back("mutations");
  if (with_oracle) header.push_back("oracle");
  header.insert(header.end(), {"scheme", "router", "exponent", "R^2"});
  Table out(std::move(header));
  for (const auto& f : all) {
    std::vector<std::string> row = {f.workload};
    if (with_mutations) row.push_back(f.mutations);
    if (with_oracle) row.push_back(f.oracle);
    row.insert(row.end(), {f.scheme, f.router, Table::num(f.fit.slope, 3),
                           Table::num(f.fit.r_squared, 3)});
    out.add_row(std::move(row));
  }
  return out;
}

void ExperimentResult::write(ResultSink& sink) const {
  for (const auto& cell : cells) sink.write(cell.record());
  sink.flush();
}

Experiment Experiment::on(std::string family) {
  return graphs({std::move(family)});
}

Experiment Experiment::graphs(std::vector<std::string> specs) {
  NAV_REQUIRE(!specs.empty(), "sweep needs a graph source");
  return Experiment(std::move(specs));
}

Experiment& Experiment::sizes(std::vector<graph::NodeId> sizes) {
  sizes_ = std::move(sizes);
  return *this;
}

Experiment& Experiment::workloads(std::vector<std::string> workload_specs) {
  workloads_ = std::move(workload_specs);
  return *this;
}

Experiment& Experiment::schemes(std::vector<std::string> scheme_specs) {
  schemes_ = std::move(scheme_specs);
  return *this;
}

Experiment& Experiment::routers(std::vector<std::string> router_specs) {
  routers_ = std::move(router_specs);
  return *this;
}

Experiment& Experiment::mutations(std::vector<std::string> mutation_specs) {
  mutations_ = std::move(mutation_specs);
  return *this;
}

Experiment& Experiment::oracles(std::vector<std::string> oracle_specs) {
  oracles_ = std::move(oracle_specs);
  return *this;
}

Experiment& Experiment::pairs(std::size_t num_pairs) {
  trials_.num_pairs = num_pairs;
  return *this;
}

Experiment& Experiment::resamples(std::size_t resamples) {
  trials_.resamples = resamples;
  return *this;
}

Experiment& Experiment::pair_policy(routing::TrialConfig::PairPolicy policy) {
  trials_.policy = policy;
  return *this;
}

Experiment& Experiment::trials(const routing::TrialConfig& config) {
  trials_ = config;
  return *this;
}

Experiment& Experiment::seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

Experiment& Experiment::stream_to(ResultSink& sink) {
  sinks_.push_back(&sink);
  return *this;
}

ExperimentResult Experiment::run() const {
  NAV_REQUIRE(!graph_specs_.empty(), "sweep needs a graph source");
  NAV_REQUIRE(!workloads_.empty(), "sweep needs workloads");
  NAV_REQUIRE(!schemes_.empty(), "sweep needs schemes");
  NAV_REQUIRE(!routers_.empty(), "sweep needs routers");
  NAV_REQUIRE(!mutations_.empty(), "sweep needs mutation specs");
  NAV_REQUIRE(!oracles_.empty(), "sweep needs oracle specs");
  // File-backed sources decide their own n, so a sweep over only files may
  // omit sizes(); a single placeholder size keeps the loop shape.
  std::vector<graph::NodeId> sizes = sizes_;
  if (sizes.empty()) {
    NAV_REQUIRE(std::all_of(graph_specs_.begin(), graph_specs_.end(),
                            graph::is_graph_spec),
                "sweep needs sizes");
    sizes = {0};
  }
  // The axis is "active" once any non-sentinel spec appears; only then do
  // cells carry the mutations/success_rate (resp. oracle) fields, so legacy
  // grids keep their exact record layout.
  const bool mutation_axis =
      mutations_.size() > 1 || mutations_.front() != "none";
  const bool oracle_axis = oracles_.size() > 1 || oracles_.front() != "auto";
  // The "auto" cell reuses the shared per-size oracle below; this config
  // only serves explicit non-"auto" axis values.
  graph::OracleConfig oracle_config;
  oracle_config.cache_slots = trials_.num_pairs + 8;

  ExperimentResult result;
  Rng master(seed_);
  for (std::size_t gi = 0; gi < graph_specs_.size(); ++gi) {
    const auto& graph_spec = graph_specs_[gi];
    const graph::FamilySpec fam = graph::graph_source(graph_spec);
    // Source 0 keeps the legacy stream addresses bit for bit (on(f) grids
    // are unchanged); later sources re-root every derivation under a salted
    // child so adding a source never perturbs the others' columns.
    const Rng root = gi == 0 ? master : master.child(0x6ea9).child(gi);

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const auto n_req = sizes[si];
    Rng graph_rng = root.child(0x6aaf).child(si);
    const graph::Graph g = fam.make(n_req, graph_rng);
    NAV_REQUIRE(g.num_nodes() >= 2, "graph source produced a trivial graph");

    const auto oracle = graph::make_oracle("auto", g, oracle_config);
    const auto diameter_lb = graph::double_sweep_lower_bound(g);

    // Schemes depend only on (size, scheme index) — their streams carry no
    // workload term — so build each once per size and share it across the
    // workload axis instead of rebuilding identical schemes per workload.
    // The mutation axis shares them too: the scheme is deliberately built
    // on the PRISTINE graph, so a mutated cell measures routing with a
    // stale augmentation — the robustness question.
    std::vector<core::SchemePtr> schemes_built(schemes_.size());
    std::vector<double> scheme_build_seconds(schemes_.size(), 0.0);
    for (std::size_t ki = 0; ki < schemes_.size(); ++ki) {
      nav::Timer scheme_timer;
      Rng scheme_rng = root.child(0x5c4e).child(si).child(ki);
      schemes_built[ki] = core::make_scheme(schemes_[ki], g, scheme_rng);
      scheme_build_seconds[ki] = scheme_timer.seconds();
    }

    for (std::size_t mi = 0; mi < mutations_.size(); ++mi) {
      const auto& mutation_spec = mutations_[mi];
      // "none" keeps the legacy static-graph path — streams, oracle, and
      // graph object untouched — so the sentinel column of an active-axis
      // sweep is bit-identical to the same sweep without the axis. Any
      // other spec perturbs a DynamicGraph copy by ONE stream step before
      // measurement and rebuilds distances on the mutated topology.
      const bool mutated = mutation_spec != "none";
      std::unique_ptr<dynamic::DynamicGraph> dyn;
      std::unique_ptr<graph::DistanceOracle> mutated_oracle;
      graph::Dist cell_diameter_lb = diameter_lb;
      if (mutated) {
        dyn = std::make_unique<dynamic::DynamicGraph>(g);
        const auto stream = dynamic::make_mutation_stream(mutation_spec);
        Rng mutation_rng = root.child(0xD1f5).child(si).child(mi);
        dyn->apply(stream->step(*dyn, mutation_rng));
        mutated_oracle = graph::make_oracle("auto", dyn->graph(),
                                            oracle_config);
        cell_diameter_lb = graph::double_sweep_lower_bound(dyn->graph());
      }
      const graph::Graph& cell_graph = mutated ? dyn->graph() : g;

      for (std::size_t oi = 0; oi < oracles_.size(); ++oi) {
        const auto& oracle_spec = oracles_[oi];
        // "auto" shares the per-size (or per-mutation) oracle built above;
        // any other spec builds its backend once per (size, mutation)
        // block, OUTSIDE the cell timers — the cells measure routing on the
        // backend, not its construction. Trial streams carry no oracle
        // term, so cells across this axis route the SAME pairs with the
        // SAME contact draws: the column difference isolates the backend.
        std::unique_ptr<graph::DistanceOracle> custom_oracle;
        if (oracle_spec != "auto") {
          custom_oracle =
              graph::make_oracle(oracle_spec, cell_graph, oracle_config);
        }
        const graph::DistanceOracle& cell_oracle =
            custom_oracle ? *custom_oracle
                          : (mutated ? *mutated_oracle : *oracle);

      for (std::size_t wi = 0; wi < workloads_.size(); ++wi) {
        const auto& workload_spec = workloads_[wi];
        // "uniform" keeps the legacy path: TrialConfig pair selection AND
        // the pre-workload-axis stream addresses, so existing grids (and
        // their golden files) are bit-identical. Any other spec swaps pair
        // selection for the demand model, with streams salted by the
        // workload index. Built once per (size, mutation, workload) — the
        // construction stream carries no mutation term, so the demand model
        // redraws identically across the mutation axis; reset() before each
        // cell rewinds stateful generators (trace replay), so adding a
        // scheme or router never perturbs the demand.
        const bool legacy_uniform = workload_spec == "uniform";
        workload::WorkloadPtr demand;
        if (!legacy_uniform) {
          demand = workload::make_workload(
              workload_spec, cell_graph,
              root.child(0x301d).child(si).child(wi));
        }

        for (std::size_t ki = 0; ki < schemes_.size(); ++ki) {
          const auto& scheme_spec = schemes_[ki];
          const auto& scheme = schemes_built[ki];
          // Construction cost is billed once, to the first cell that uses
          // the scheme (mi == 0, oi == 0, wi == 0, ri == 0) — the legacy
          // per-cell accounting for single-workload single-router grids.
          const double scheme_seconds =
              (mi == 0 && oi == 0 && wi == 0) ? scheme_build_seconds[ki] : 0.0;

          for (std::size_t ri = 0; ri < routers_.size(); ++ri) {
            const auto& router_spec = routers_[ri];
            nav::Timer timer;
            const auto router =
                routing::make_router(router_spec, cell_graph, cell_oracle);
            // The cell's whole pair × replicate grid routes as one
            // target-sharded batch; numbers are bit-identical to the
            // sequential estimator (see RouteService::estimate_diameter).
            const RouteService service(cell_graph, cell_oracle, scheme.get(),
                                       *router);
            routing::GreedyDiameterEstimate estimate;
            double success_rate = 1.0;
            if (!mutated && legacy_uniform) {
              const Rng cell_rng =
                  root.child(0x7a1a).child(si).child(ki).child(ri);
              estimate = service.estimate_diameter(
                  trials_, cell_rng,
                  routing::trial_pairs(cell_graph, trials_, cell_rng));
            } else if (!mutated) {
              demand->reset();
              const Rng cell_rng =
                  root.child(0x77a1).child(wi).child(si).child(ki).child(ri);
              // Demand pairs come from the estimators' pair sub-stream.
              Rng demand_rng = routing::pair_stream(cell_rng);
              estimate = service.estimate_diameter(
                  trials_, cell_rng,
                  demand->batch(trials_.num_pairs, demand_rng));
            } else {
              // Mutated cell: draw the pair grid exactly as the matching
              // static path would (same pair sub-stream of the cell rng),
              // then drop pairs the mutation disconnected — a greedy route
              // to an unreachable target never terminates, and the
              // surviving fraction IS the robustness metric.
              const Rng cell_rng = root.child(0xD7a1)
                                       .child(mi)
                                       .child(si)
                                       .child(wi)
                                       .child(ki)
                                       .child(ri);
              std::vector<std::pair<graph::NodeId, graph::NodeId>> selected;
              if (legacy_uniform) {
                selected = routing::trial_pairs(cell_graph, trials_, cell_rng);
              } else {
                demand->reset();
                Rng demand_rng = routing::pair_stream(cell_rng);
                selected = demand->batch(trials_.num_pairs, demand_rng);
              }
              std::vector<std::pair<graph::NodeId, graph::NodeId>> kept;
              kept.reserve(selected.size());
              for (const auto& [s, t] : selected) {
                if (cell_oracle.distance(s, t) != graph::kInfDist) {
                  kept.push_back({s, t});
                }
              }
              success_rate = static_cast<double>(kept.size()) /
                             static_cast<double>(selected.size());
              if (!kept.empty()) {
                estimate = service.estimate_diameter(trials_, cell_rng, kept);
              }
              // All pairs disconnected: the zero-initialised estimate
              // stands (greedy diameter 0 over an empty trial set) with
              // success_rate pinned at 0 — the cell still records.
            }

            CellResult cell;
            cell.family = graph_spec;
            cell.workload = workload_spec;
            cell.scheme = scheme_spec;
            cell.router = router_spec;
            cell.mutations = mutation_spec;
            cell.oracle = oracle_spec;
            // Sizeless file-backed sweeps report the loaded size as the
            // request too (0 would poison power-law fits' log n).
            cell.n_requested = n_req == 0 ? cell_graph.num_nodes() : n_req;
            cell.n_actual = cell_graph.num_nodes();
            cell.m = cell_graph.num_edges();
            cell.diameter_lb = cell_diameter_lb;
            cell.greedy_diameter = estimate.max_mean_steps;
            cell.mean_steps = estimate.overall_mean_steps;
            cell.ci_halfwidth = estimate.max_ci_halfwidth;
            cell.success_rate = success_rate;
            cell.show_mutations = mutation_axis;
            cell.show_oracle = oracle_axis;
            // Scheme construction is shared across routers; bill it to the
            // first router's cell (reproducing the legacy per-cell
            // accounting for single-router grids).
            cell.seconds = timer.seconds() + (ri == 0 ? scheme_seconds : 0.0);
            for (auto* sink : sinks_) sink->write(cell.record());
            result.cells.push_back(std::move(cell));
          }
        }
      }
      }
    }
  }
  }
  for (auto* sink : sinks_) sink->flush();
  return result;
}

}  // namespace nav::api
