// bench_micro.cpp — google-benchmark micro suite (M0): throughput of the
// primitives every experiment is built from. Informational — these numbers
// bound how large the E1..E9 grids can go on a given machine.
//
// The custom main wires the suite onto bench::Harness: besides the usual
// --benchmark_* flags, --quick caps per-benchmark time, and --jsonl emits
// BENCH_micro.json (nav-bench-trajectory-v1, one cell per benchmark run,
// every metric wall-clock/loose — the deterministic surface of a timing
// suite is its registered series, which compare_bench.py tracks through
// added/removed-series reporting and the list golden pins byte-for-byte).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness.hpp"
#include "nav/nav.hpp"
#include "runtime/alloc_counter.hpp"
#include "support/bfs_reference.hpp"

// Counting allocator for the whole binary: the BFS-kernel cells report a
// deterministic allocs-per-query strict metric next to their (loose)
// throughput.
NAV_DEFINE_ALLOC_COUNTER();

namespace {

using namespace nav;

void BM_GraphBuildPath(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::make_path(n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GraphBuildPath)->Arg(1 << 12)->Arg(1 << 16);

void BM_GraphBuildGnp(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::make_gnp(n, 8.0 / n, rng));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GraphBuildGnp)->Arg(1 << 12)->Arg(1 << 16);

void BM_BfsFull(benchmark::State& state) {
  const auto g = graph::make_grid2d(static_cast<graph::NodeId>(state.range(0)),
                                    static_cast<graph::NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::bfs_distances(g, 0));
  }
  state.SetItemsProcessed(state.iterations() * g.num_nodes());
}
BENCHMARK(BM_BfsFull)->Arg(64)->Arg(256);

void BM_BallCollect(benchmark::State& state) {
  const auto g = graph::make_grid2d(256, 256);
  const auto radius = static_cast<graph::Dist>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::ball(g, 256 * 128 + 128, radius));
  }
}
BENCHMARK(BM_BallCollect)->Arg(4)->Arg(16)->Arg(64);

void BM_SampleUniform(benchmark::State& state) {
  const auto g = graph::make_path(1 << 16);
  core::UniformScheme scheme(g);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(100, rng));
  }
}
BENCHMARK(BM_SampleUniform);

void BM_SampleBall(benchmark::State& state) {
  const auto g = graph::make_path(1 << 16);
  core::BallScheme scheme(g);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(1 << 15, rng));
  }
}
BENCHMARK(BM_SampleBall);

void BM_SampleML(benchmark::State& state) {
  const auto g = graph::make_path(1 << 16);
  core::MLScheme scheme(g);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(1 << 15, rng));
  }
}
BENCHMARK(BM_SampleML);

void BM_SampleTorusKleinberg(benchmark::State& state) {
  core::TorusKleinbergScheme scheme(256, 2.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.sample_contact(1234, rng));
  }
}
BENCHMARK(BM_SampleTorusKleinberg);

void BM_RouteUniformPath(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_path(n);
  graph::TargetDistanceCache oracle(g, 2);
  routing::GreedyRouter router(g, oracle);
  core::UniformScheme scheme(g);
  Rng rng(6);
  (void)oracle.distances_to(n - 1);  // pre-warm: measure routing, not BFS
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng trial_rng = rng.child(trial++);
    benchmark::DoNotOptimize(router.route(0, n - 1, &scheme, trial_rng));
  }
}
BENCHMARK(BM_RouteUniformPath)->Arg(1 << 12)->Arg(1 << 16);

void BM_RouteBallPath(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_path(n);
  graph::TargetDistanceCache oracle(g, 2);
  routing::GreedyRouter router(g, oracle);
  core::BallScheme scheme(g);
  Rng rng(7);
  (void)oracle.distances_to(n - 1);
  std::uint64_t trial = 0;
  for (auto _ : state) {
    Rng trial_rng = rng.child(trial++);
    benchmark::DoNotOptimize(router.route(0, n - 1, &scheme, trial_rng));
  }
}
BENCHMARK(BM_RouteBallPath)->Arg(1 << 12)->Arg(1 << 16);

void BM_RouteManyBatch(benchmark::State& state) {
  // Facade batch throughput: route a block of pairs through the engine's
  // thread pool (the api entry point big sweeps are built on).
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto engine = api::NavigationEngine::from_family("torus2d", 1 << 14);
  engine.use_scheme("uniform");
  const auto n = engine.graph().num_nodes();
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  Rng pair_rng(9);
  for (std::size_t i = 0; i < batch; ++i) {
    const auto s = static_cast<graph::NodeId>(random_index(pair_rng, n));
    auto t = static_cast<graph::NodeId>(random_index(pair_rng, n));
    if (t == s) t = (t + 1) % n;
    pairs.emplace_back(s, t);
  }
  std::uint64_t round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.route_many(pairs, Rng(round++)));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_RouteManyBatch)->Arg(64)->Arg(512);

void BM_TreeDecomposition(benchmark::State& state) {
  Rng rng(8);
  const auto g =
      graph::make_random_tree(static_cast<graph::NodeId>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::tree_path_decomposition(g));
  }
}
BENCHMARK(BM_TreeDecomposition)->Arg(1 << 10)->Arg(1 << 14);

void BM_BfsLayerDecomposition(benchmark::State& state) {
  const auto side = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_grid2d(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::bfs_layer_decomposition(g));
  }
}
BENCHMARK(BM_BfsLayerDecomposition)->Arg(32)->Arg(128);

void BM_PathshapePortfolio(benchmark::State& state) {
  const auto g =
      graph::make_path(static_cast<graph::NodeId>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(decomp::best_path_decomposition(g));
  }
}
BENCHMARK(BM_PathshapePortfolio)->Arg(1 << 10)->Arg(1 << 13);

void BM_DiameterDoubleSweep(benchmark::State& state) {
  const auto side = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_grid2d(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::double_sweep_lower_bound(g));
  }
}
BENCHMARK(BM_DiameterDoubleSweep)->Arg(64)->Arg(256);

// ---- M1: BFS engine kernels ------------------------------------------------
// Hand-timed (not google-benchmark registered, so the --benchmark_list_tests
// golden stays untouched): each cell carries a deterministic allocs_per_query
// strict metric next to its loose nodes_per_sec, proving the engine kernels
// run allocation-free where the pre-engine reference pays per-call heap round
// trips. Families straddle the direction-optimizing regimes: torus2d (high
// diameter — the sweep stays top-down), hypercube and G(n,p) with mean degree
// 8 (low diameter, exploding frontiers — the sweep flips bottom-up). The
// "row" cells time BfsWorkspace::row_into at each storage width that holds
// the family's diameter (bounded by twice an eccentricity, the oracle
// factory's auto-width rule) — the kernel behind every oracle miss.
void run_bfs_kernel_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::DistWidth;
  using graph::NodeId;
  std::vector<unsigned> exponents{12, 16};
  if (!h.quick()) exponents.push_back(18);

  for (const unsigned e : exponents) {
    const auto n = NodeId{1} << e;
    for (const std::string& family :
         {std::string("torus2d"), std::string("hypercube"), std::string("gnp8"),
          std::string("regular16")}) {
      Rng rng(h.seed(0xB1F5) ^ e);
      graph::Graph g;
      if (family == "torus2d") {
        const auto side = NodeId{1} << (e / 2);
        g = graph::make_torus2d(side, n / side);
      } else if (family == "hypercube") {
        g = graph::make_hypercube(e);
      } else if (family == "gnp8") {
        g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
      } else {
        // Diameter ~log n / log d: the frontier-explosion regime where the
        // bottom-up sweep pays off hardest.
        g = graph::make_random_regular(n, 16, rng);
      }

      auto& ws = graph::local_bfs_workspace();
      std::vector<Dist> out(g.num_nodes());
      const std::size_t reps = std::max<std::size_t>(
          4, (h.quick() ? (std::size_t{1} << 23) : (std::size_t{1} << 24)) / n);
      // Rotate sources deterministically so no level structure is
      // accidentally cached between repetitions.
      const auto source_at = [&](std::size_t i) {
        return static_cast<NodeId>((i * 2654435761u) % g.num_nodes());
      };

      double ref_rate = 0.0;
      // Times run_once over reps sources and records the cell.
      const auto measure = [&](const std::string& kernel, const char* width,
                               const auto& run_once) {
        run_once(0);  // warm: workspace growth, graph pages
        const std::uint64_t allocs_before = nav::allocation_count();
        run_once(1);
        const auto allocs_per_query =
            static_cast<double>(nav::allocation_count() - allocs_before);
        nav::Timer timer;
        for (std::size_t i = 0; i < reps; ++i) run_once(i);
        const double rate =
            static_cast<double>(g.num_nodes()) * static_cast<double>(reps) /
            timer.seconds();
        if (kernel == "reference") ref_rate = rate;
        const double speedup = ref_rate > 0.0 ? rate / ref_rate : 1.0;
        api::Record cell = {{"family", family}, {"kernel", kernel}};
        if (width != nullptr) cell.push_back({"width", std::string(width)});
        cell.push_back({"n", static_cast<double>(g.num_nodes())});
        cell.push_back({"nodes_per_sec", rate});
        cell.push_back({"allocs_per_query", allocs_per_query});
        cell.push_back({"speedup", speedup});
        h.add_cell(std::move(cell));
        std::printf(
            "  %-9s n=2^%-2u %-10s %9.2f Mnodes/s  allocs/query %3.0f  x%.2f\n",
            family.c_str(), e,
            (width == nullptr ? kernel : kernel + "_" + width).c_str(),
            rate / 1e6, allocs_per_query, speedup);
      };

      measure("reference", nullptr, [&](std::size_t i) {
        benchmark::DoNotOptimize(
            graph::bfs_distances_reference(g, source_at(i)));
      });
      measure("workspace", nullptr, [&](std::size_t i) {
        ws.distances_into_scalar(g, source_at(i), out);
        benchmark::DoNotOptimize(out.data());
      });
      measure("diropt", nullptr, [&](std::size_t i) {
        ws.distances_into(g, source_at(i), out);  // the full sweep
        benchmark::DoNotOptimize(out.data());
      });

      const Dist ecc = ws.farthest(g, 0).distance;
      std::vector<std::uint8_t> row(g.num_nodes() * sizeof(Dist));
      for (const DistWidth width :
           {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
        if (2 * std::uint64_t{ecc} > graph::max_finite(width)) continue;
        measure("row", graph::width_token(width), [&](std::size_t i) {
          benchmark::DoNotOptimize(
              ws.row_into(g, source_at(i), width, row.data()));
          benchmark::DoNotOptimize(row.data());
        });
      }
    }
  }
}

// ---- M3: sweep-kind dispatch tallies ---------------------------------------
// Deterministic STRICT cells: for each family x size a fresh workspace runs a
// fixed mix of full and bounded sweeps, and the cell records how the engine's
// dispatcher (radius promotion + direction-optimizing thresholds) classified
// them, read back through BfsWorkspace::sweep_count(). Any change to the
// cutover heuristics shows up as a strict metric diff in compare_bench.py
// instead of a silent throughput cliff. The 2^8 size sits below
// kDiroptMinNodes, so the scalar-full kind is exercised alongside diropt and
// scalar-bounded.
void run_sweep_kind_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  using SweepKind = graph::BfsWorkspace::SweepKind;
  std::vector<unsigned> exponents{8, 12};
  if (!h.quick()) exponents.push_back(16);
  constexpr std::size_t kFullSweeps = 3;
  constexpr std::size_t kBoundedSweeps = 5;

  for (const unsigned e : exponents) {
    const auto n = NodeId{1} << e;
    for (const std::string& family :
         {std::string("torus2d"), std::string("hypercube"), std::string("gnp8"),
          std::string("regular16")}) {
      Rng rng(h.seed(0xB3F5) ^ e);
      graph::Graph g;
      if (family == "torus2d") {
        const auto side = NodeId{1} << (e / 2);
        g = graph::make_torus2d(side, n / side);
      } else if (family == "hypercube") {
        g = graph::make_hypercube(e);
      } else if (family == "gnp8") {
        g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
      } else {
        g = graph::make_random_regular(n, 16, rng);
      }

      graph::BfsWorkspace ws;  // fresh instance: tallies start at zero
      std::vector<Dist> out(g.num_nodes());
      const auto source_at = [&](std::size_t i) {
        return static_cast<NodeId>((i * 2654435761u) % g.num_nodes());
      };
      for (std::size_t i = 0; i < kFullSweeps; ++i) {
        ws.distances_into(g, source_at(i), out);
      }
      for (std::size_t i = 0; i < kBoundedSweeps; ++i) {
        ws.distances_into(g, source_at(i), out, Dist{4});
      }

      const auto diropt =
          ws.sweep_count(SweepKind::kDirectionOptimizing);
      const auto scalar_full = ws.sweep_count(SweepKind::kScalarFull);
      const auto scalar_bounded = ws.sweep_count(SweepKind::kScalarBounded);
      h.add_cell({{"family", family},
                  {"kernel", std::string("dispatch")},
                  {"n", static_cast<double>(g.num_nodes())},
                  {"sweeps_diropt", static_cast<double>(diropt)},
                  {"sweeps_scalar_full", static_cast<double>(scalar_full)},
                  {"sweeps_scalar_bounded",
                   static_cast<double>(scalar_bounded)}});
      std::printf(
          "  %-9s n=2^%-2u dispatch   diropt %llu  scalar_full %llu"
          "  scalar_bounded %llu\n",
          family.c_str(), e, static_cast<unsigned long long>(diropt),
          static_cast<unsigned long long>(scalar_full),
          static_cast<unsigned long long>(scalar_bounded));
    }
  }
}

// ---- M4: landmark stretch vs k ---------------------------------------------
// Deterministic STRICT cells: for each family x size, every landmark budget k
// builds the compressed backend through make_oracle and scores the triangle
// bound against exact rows over a fixed pair sample — mean and max
// multiplicative stretch plus the fraction of pairs answered exactly.
// Landmark selection (farthest-point) and the pair sample are both seeded, so
// the quality surface is bit-reproducible; only the build time is loose. The
// compression story is implicit in the key: k rows stored versus n.
void run_landmark_stretch_cells(bench::Harness& h) {
  using graph::Dist;
  using graph::NodeId;
  std::vector<unsigned> exponents{10, 12};
  if (!h.quick()) exponents.push_back(14);
  const std::size_t k_grid[] = {2, 4, 8, 16, 32};
  constexpr std::size_t kTargets = 16;
  constexpr std::size_t kSourcesPerTarget = 16;

  for (const unsigned e : exponents) {
    const auto n = NodeId{1} << e;
    for (const std::string& family :
         {std::string("torus2d"), std::string("gnp8")}) {
      Rng rng(h.seed(0xB4F5) ^ e);
      graph::Graph g;
      if (family == "torus2d") {
        const auto side = NodeId{1} << (e / 2);
        g = graph::make_torus2d(side, n / side);
      } else {
        g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
      }
      // The sample: kTargets exact rows, kSourcesPerTarget draws each. One
      // cache with headroom keeps every exact row resident across the k loop.
      graph::TargetDistanceCache exact(g, kTargets + 1);
      Rng pair_rng(h.seed(0xB4F6) ^ e);
      std::vector<NodeId> targets;
      for (std::size_t j = 0; j < kTargets; ++j) {
        targets.push_back(
            static_cast<NodeId>(random_index(pair_rng, g.num_nodes())));
      }

      for (const std::size_t k : k_grid) {
        const std::string spec = "landmark:" + std::to_string(k) + ":farthest";
        nav::Timer build_timer;
        const auto oracle = graph::make_oracle(spec, g);
        const double build_seconds = build_timer.seconds();

        double stretch_sum = 0.0, stretch_max = 0.0;
        std::size_t pairs = 0, exact_hits = 0;
        Rng source_rng(h.seed(0xB4F7) ^ e);
        for (const NodeId t : targets) {
          const auto row = oracle->distances_to(t);
          const auto truth = exact.distances_to(t);
          for (std::size_t i = 0; i < kSourcesPerTarget; ++i) {
            auto s = static_cast<NodeId>(
                random_index(source_rng, g.num_nodes() - 1));
            if (s >= t) ++s;  // s != t: stretch needs a non-zero denominator
            const double est = static_cast<double>((*row)[s]);
            const double ref = static_cast<double>((*truth)[s]);
            const double stretch = est / ref;
            stretch_sum += stretch;
            stretch_max = std::max(stretch_max, stretch);
            exact_hits += (*row)[s] == (*truth)[s] ? 1 : 0;
            ++pairs;
          }
        }
        const double denom = static_cast<double>(pairs);
        h.add_cell({{"family", family},
                    {"oracle", spec},
                    {"landmarks", static_cast<double>(k)},
                    {"n", static_cast<double>(g.num_nodes())},
                    {"mean_stretch", stretch_sum / denom},
                    {"max_stretch", stretch_max},
                    {"exact_fraction", static_cast<double>(exact_hits) / denom},
                    {"seconds", build_seconds}});
        std::printf(
            "  %-7s n=2^%-2u k=%-3zu  stretch mean %.4f  max %.2f"
            "  exact %4.1f%%  build %.3fs\n",
            family.c_str(), e, k, stretch_sum / denom, stretch_max,
            100.0 * static_cast<double>(exact_hits) / denom, build_seconds);
      }
    }
  }
}

// ---- M5: greedy routing over packed rows ----------------------------------
// Hand-timed like M1: one fixed pair set per family, routed through
// GreedyRouter::route_row over rows pinned from caches of the same capacity
// at each storage width. A width too narrow for the graph saturates and is
// skipped: torus2d 2^16 has diameter 256, past u8's max finite 254, so it
// runs u16 and u32 only. Routes use local links only, so a hop is pure row
// reads: ns_per_hop (loose) is the cost of a greedy step at that width.
// hops and allocs_per_route are strict — equal hop totals across widths
// show the rows decode alike, and a warm route must not allocate.
void run_packed_routing_cells(bench::Harness& h) {
  using graph::DistWidth;
  using graph::NodeId;
  constexpr unsigned kExponent = 16;
  constexpr std::size_t kTargets = 16;
  constexpr std::size_t kPairsPerTarget = 16;
  const std::size_t reps = h.quick() ? 4 : 32;
  const auto n = NodeId{1} << kExponent;
  for (const std::string& family :
       {std::string("torus2d"), std::string("gnp8")}) {
    Rng rng(h.seed(0xB5F5));
    graph::Graph g;
    if (family == "torus2d") {
      const auto side = NodeId{1} << (kExponent / 2);
      g = graph::make_torus2d(side, n / side);
    } else {
      g = graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
    }
    std::vector<NodeId> targets;
    std::vector<NodeId> sources;  // kPairsPerTarget per target, in order
    for (std::size_t k = 0; k < kTargets; ++k) {
      targets.push_back(static_cast<NodeId>(random_index(rng, g.num_nodes())));
      for (std::size_t i = 0; i < kPairsPerTarget; ++i) {
        sources.push_back(static_cast<NodeId>(random_index(rng, g.num_nodes())));
      }
    }
    for (const DistWidth width :
         {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
      const graph::TargetDistanceCache cache(g, kTargets, width);
      const routing::GreedyRouter router(g, cache);
      std::vector<graph::DistVecPtr> rows;
      try {
        cache.prefetch_into(targets, rows);
      } catch (const std::invalid_argument&) {
        continue;  // the graph's distances do not fit this width
      }
      const auto route_all = [&] {
        std::uint64_t hops = 0;
        for (std::size_t p = 0; p < sources.size(); ++p) {
          const std::size_t k = p / kPairsPerTarget;
          hops += router
                      .route_row(sources[p], targets[k], *rows[k], nullptr,
                                 Rng(p))
                      .steps;
        }
        return hops;
      };
      const std::uint64_t hops = route_all();  // warm: rows, caches, stacks
      const std::uint64_t allocs_before = nav::allocation_count();
      benchmark::DoNotOptimize(route_all());
      const double allocs_per_route =
          static_cast<double>(nav::allocation_count() - allocs_before) /
          static_cast<double>(sources.size());
      nav::Timer timer;
      std::uint64_t timed_hops = 0;
      for (std::size_t r = 0; r < reps; ++r) timed_hops += route_all();
      const double ns_per_hop =
          timer.seconds() * 1e9 / static_cast<double>(timed_hops);
      h.add_cell({{"family", family},
                  {"kernel", std::string("greedy_route_row")},
                  {"width", std::string(graph::width_token(width))},
                  {"n", static_cast<double>(g.num_nodes())},
                  {"hops", static_cast<double>(hops)},
                  {"allocs_per_route", allocs_per_route},
                  {"ns_per_hop", ns_per_hop}});
      std::printf(
          "  %-7s n=2^%-2u %-4s hops %8llu  %6.2f ns/hop  allocs/route %.0f\n",
          family.c_str(), kExponent, graph::width_token(width),
          static_cast<unsigned long long>(hops), ns_per_hop, allocs_per_route);
    }
  }
}

// ---- M6: parallel_for fan-out ----------------------------------------------
// Hand-timed like M1, on the global pool. us_per_call (loose) is the wall
// time of one parallel_for at 4 / 8 / 16 indices with an empty, a ~50 us and
// a ~1 ms body (a spin on the steady clock, so the body's length does not
// depend on memory bandwidth): the empty body is the dispatch cost alone.
// The wave cell is the oracle layer RouteService's prefetch pays: p50/p90
// wall time (loose) of a 4-miss TargetDistanceCache::prefetch_into wave of
// u8 rows on gnp8 2^16, every wave on 4 fresh targets.
void run_fan_out_cells(bench::Harness& h) {
  using graph::NodeId;
  const double budget_us = h.quick() ? 2e5 : 2e6;  // body work per cell
  for (const std::size_t indices : {4, 8, 16}) {
    for (const double body_us : {0.0, 50.0, 1000.0}) {
      const auto body = [body_us](std::size_t) {
        const nav::Timer spin;
        while (spin.seconds() * 1e6 < body_us) {
        }
      };
      const std::size_t calls =
          body_us == 0.0
              ? (h.quick() ? 2000 : 20000)
              : std::clamp<std::size_t>(
                    static_cast<std::size_t>(
                        budget_us / (body_us * static_cast<double>(indices))),
                    8, 5000);
      parallel_for(0, indices, body);  // warm: pool threads awake once
      nav::Timer timer;
      for (std::size_t c = 0; c < calls; ++c) parallel_for(0, indices, body);
      const double us_per_call =
          timer.seconds() * 1e6 / static_cast<double>(calls);
      const std::string body_token = body_us == 0.0    ? "empty"
                                     : body_us < 100.0 ? "50us"
                                                       : "1ms";
      h.add_cell({{"kernel", std::string("parallel_for")},
                  {"body", body_token},
                  {"indices", static_cast<double>(indices)},
                  {"us_per_call", us_per_call}});
      std::printf("  parallel_for %2zu indices  body %-5s %10.1f us/call\n",
                  indices, body_token.c_str(), us_per_call);
    }
  }

  constexpr unsigned kExponent = 16;
  constexpr std::size_t kMisses = 4;
  const std::size_t waves = h.quick() ? 64 : 256;
  const auto n = NodeId{1} << kExponent;
  Rng rng(h.seed(0xB6F5));
  const auto g =
      graph::make_connected_gnp(n, 8.0 / static_cast<double>(n), rng);
  const graph::TargetDistanceCache cache(g, kMisses, graph::DistWidth::kU8);
  std::vector<NodeId> wave(kMisses);
  std::vector<graph::DistVecPtr> pinned;
  std::vector<double> wave_ms;
  NodeId next = 0;
  for (std::size_t w = 0; w < waves + 4; ++w) {  // 4 warm-up waves
    for (NodeId& t : wave) {
      t = static_cast<NodeId>((next++ * 2654435761u) % g.num_nodes());
    }
    const nav::Timer timer;
    cache.prefetch_into(wave, pinned);
    if (w >= 4) wave_ms.push_back(timer.millis());
    pinned.clear();
  }
  std::sort(wave_ms.begin(), wave_ms.end());
  const double p50 = wave_ms[wave_ms.size() / 2];
  const double p90 = wave_ms[wave_ms.size() * 9 / 10];
  h.add_cell({{"family", std::string("gnp8")},
              {"kernel", std::string("prefetch_wave")},
              {"width", std::string("u8")},
              {"n", static_cast<double>(g.num_nodes())},
              {"targets", static_cast<double>(kMisses)},
              {"wave_ms_p50", p50},
              {"wave_ms_p90", p90}});
  std::printf("  gnp8    n=2^%-2u %zu-miss prefetch wave  p50 %.3f ms  "
              "p90 %.3f ms  (pool width %zu)\n",
              kExponent, kMisses, p50, p90, global_pool().thread_count());
}

/// ConsoleReporter plus trajectory capture: every per-iteration run becomes
/// one harness cell keyed by benchmark name; timings and rates are loose
/// metrics by construction.
class TrajectoryReporter : public benchmark::ConsoleReporter {
 public:
  explicit TrajectoryReporter(bench::Harness& harness) : harness_(harness) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      api::Record cell = {
          {"benchmark", run.benchmark_name()},
          {"real_time_ns", run.GetAdjustedRealTime()},
          {"cpu_time_ns", run.GetAdjustedCPUTime()},
      };
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        cell.push_back(
            {"items_per_second", static_cast<double>(items->second.value)});
      }
      harness_.add_cell(std::move(cell));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::Harness& harness_;
};

}  // namespace

int main(int argc, char** argv) {
  // No banner: google-benchmark prints its own context block, and the
  // --benchmark_list_tests output is golden-pinned byte-for-byte.
  bench::Harness h("micro", "micro", /*title=*/"", /*claim=*/"", argc, argv,
                   /*allow_unknown_flags=*/true);

  // The hand-timed cells. Suppressed under --benchmark_list_tests:
  // that output is golden-pinned byte-for-byte and must stay pure.
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_list_tests", 22) == 0) {
      list_only = true;
    }
  }
  if (!list_only && h.section("M1: BFS engine kernels (family x size)")) {
    run_bfs_kernel_cells(h);
  }
  if (!list_only &&
      h.section("M3: sweep-kind dispatch tallies (family x size)")) {
    run_sweep_kind_cells(h);
  }
  if (!list_only &&
      h.section("M4: landmark stretch (family x size x k)")) {
    run_landmark_stretch_cells(h);
  }
  if (!list_only &&
      h.section("M5: greedy routing over packed rows (family x width)")) {
    run_packed_routing_cells(h);
  }
  if (!list_only && h.section("M6: parallel_for fan-out (indices x body)")) {
    run_fan_out_cells(h);
  }
  // The google-benchmark cells below are recorded section-less: their series
  // keys ({benchmark: BM_*}) predate sections and stay baseline-aligned.
  h.end_section();

  // Rebuild an argv for google-benchmark: its own flags pass through
  // untouched, and --quick maps to a short per-benchmark min time so smoke
  // runs and the CI bench gate stay fast.
  std::vector<std::string> args;
  args.emplace_back(argv[0]);
  if (h.quick()) args.emplace_back("--benchmark_min_time=0.01");
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) args.emplace_back(argv[i]);
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(args.size());
  for (auto& arg : args) bench_argv.push_back(arg.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());

  TrajectoryReporter reporter(h);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return h.finish();
}
