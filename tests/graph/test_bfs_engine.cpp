// Differential coverage for the BFS engine: every workspace kernel is pinned
// bit-identical to the pre-engine reference implementations across graph
// families, radii and row widths, and the 16-bit epoch machinery survives
// wraparound.
#include "graph/bfs_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "support/bfs_reference.hpp"
#include "support/dist_pack_reference.hpp"

namespace nav::graph {
namespace {

/// Family grid for the differential sweep: tree-ish, grid-ish, low-diameter,
/// random, and degenerate shapes. Sizes stay small enough for full sweeps
/// per source yet straddle the direction-optimizing gate (n >= 1024).
std::vector<std::pair<std::string, Graph>> differential_graphs() {
  Rng rng(0xD1FF);
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("path", make_path(1500));
  graphs.emplace_back("cycle", make_cycle(1200));
  graphs.emplace_back("star", make_star(1100));
  graphs.emplace_back("balanced_tree", make_balanced_tree(2047));
  graphs.emplace_back("grid2d", make_grid2d(40, 40));
  graphs.emplace_back("torus2d", make_torus2d(36, 36));
  graphs.emplace_back("hypercube", make_hypercube(11));
  graphs.emplace_back("complete", make_complete(64));
  graphs.emplace_back("gnp", make_connected_gnp(1400, 6.0 / 1400.0, rng));
  graphs.emplace_back("random_tree", make_random_tree(1300, rng));
  graphs.emplace_back("lollipop", make_lollipop(40, 1200));
  graphs.emplace_back("tiny_path", make_path(5));
  // Disconnected: unreached nodes must keep kInfDist in every kernel.
  graphs.emplace_back("disconnected", Graph(1200, [] {
                        std::vector<std::pair<NodeId, NodeId>> edges;
                        for (NodeId v = 1; v < 600; ++v) edges.push_back({v - 1, v});
                        for (NodeId v = 601; v < 1200; ++v) edges.push_back({v - 1, v});
                        return edges;
                      }()));
  return graphs;
}

/// Two random 8-out clusters of `size` nodes (each closed by a ring), the
/// first's last node joined to the second's first by a path of `path`
/// nodes.
Graph two_clusters_joined_by_path(NodeId size, NodeId path, Rng& rng) {
  GraphBuilder b(2 * size + path);
  const auto add_cluster = [&](NodeId first) {
    for (NodeId i = 0; i < size; ++i) {
      b.add_edge(first + i, first + (i + 1) % size);
      for (int k = 0; k < 8; ++k) {
        const NodeId j = random_index(rng, size);
        if (j != i) b.add_edge(first + i, first + j);
      }
    }
  };
  add_cluster(0);
  for (NodeId v = size; v <= size + path; ++v) b.add_edge(v - 1, v);
  add_cluster(size + path);
  return std::move(b).build();
}

/// A G(n, 3 ln n / n) core of `core` nodes with a path of `tail` nodes
/// hanging off node 0: the core makes the sweep flip bottom-up, the tail
/// sets the eccentricity.
Graph core_with_tail(NodeId core, NodeId tail, Rng& rng) {
  const double p = 3.0 * std::log(static_cast<double>(core)) / core;
  auto edges = make_connected_gnp(core, p, rng).edge_list();
  edges.emplace_back(0, core);
  for (NodeId v = core + 1; v < core + tail; ++v) edges.emplace_back(v - 1, v);
  return Graph(core + tail, std::move(edges));
}

/// Graphs past the size gate whose frontiers explode, so a full sweep from
/// node 0 flips bottom-up; the two-cluster graph flips twice.
std::vector<std::pair<std::string, Graph>> flipping_graphs() {
  Rng rng(0xF11B);
  constexpr NodeId kN = 4096;
  const double p = 3.0 * std::log(static_cast<double>(kN)) / kN;
  std::vector<std::pair<std::string, Graph>> graphs;
  graphs.emplace_back("gnp_3logn", make_connected_gnp(kN, p, rng));
  graphs.emplace_back("regular16", make_random_regular(kN, 16, rng));
  graphs.emplace_back("hypercube12", make_hypercube(12));
  graphs.emplace_back("two_clusters",
                      two_clusters_joined_by_path(2048, 100, rng));
  graphs.emplace_back("core_tail", core_with_tail(1500, 300, rng));
  return graphs;
}

std::vector<NodeId> sample_sources(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> sources{0, n - 1, n / 2, n / 3};
  sources.resize(std::min<std::size_t>(sources.size(), n));
  return sources;
}

TEST(BfsEngine, DirectionOptimizingMatchesReference) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    std::vector<Dist> out(g.num_nodes());
    for (const NodeId s : sample_sources(g)) {
      const auto expect = bfs_distances_reference(g, s);
      (void)ws.row_into<Dist>(g, s, out);  // direction-optimizing past the gate
      EXPECT_EQ(out, expect) << name << " source=" << s;
    }
  }
}

constexpr DistWidth kWidths[] = {DistWidth::kU8, DistWidth::kU16,
                                 DistWidth::kU32};

/// Fills `width` with row_into and checks it against the packed reference:
/// same bytes, same saturation flag. Returns the flag.
bool row_matches_packed_reference(BfsWorkspace& ws, const Graph& g, NodeId s,
                                  DistWidth width, const std::string& name) {
  const std::size_t bytes = g.num_nodes() * width_bytes(width);
  std::vector<std::uint8_t> expect(bytes);
  std::vector<std::uint8_t> got(bytes, 0x5A);
  const bool expect_saturated =
      narrow_row(bfs_distances_reference(g, s), width, expect.data());
  const bool saturated = ws.row_into(g, s, width, got.data());
  EXPECT_EQ(saturated, expect_saturated)
      << name << " source=" << s << " " << width_token(width);
  EXPECT_EQ(got, expect) << name << " source=" << s << " "
                         << width_token(width);
  return saturated;
}

TEST(BfsEngine, RowKernelMatchesPackedReferenceAtEveryWidth) {
  // Every width, including ones too narrow for the graph: a saturated row
  // keeps the sentinel past max_finite, byte for byte like the packing.
  BfsWorkspace ws;
  auto graphs = differential_graphs();
  for (auto& entry : flipping_graphs()) graphs.push_back(std::move(entry));
  for (const auto& [name, g] : graphs) {
    for (const NodeId s : sample_sources(g)) {
      for (const DistWidth width : kWidths) {
        (void)row_matches_packed_reference(ws, g, s, width, name);
      }
    }
  }
}

/// The direction schedule Beamer's eager bookkeeping takes, replayed from
/// reference distances: per-level node counts and out-edge sums do not
/// depend on the schedule, so the flips and bottom-up levels follow from
/// them and the engine's thresholds (kAlpha 15, kBeta 18, the 1024-node /
/// 4096-edge gate).
std::pair<std::uint32_t, std::uint32_t> reference_flip_schedule(
    const Graph& g, NodeId source) {
  const std::size_t n = g.num_nodes();
  if (n < 1024 || 2 * g.num_edges() < 4096) return {0, 0};
  const auto dist = bfs_distances_reference(g, source);
  std::vector<std::uint64_t> count, edges;
  for (NodeId v = 0; v < n; ++v) {
    if (dist[v] == kInfDist) continue;
    if (dist[v] >= count.size()) {
      count.resize(dist[v] + 1, 0);
      edges.resize(dist[v] + 1, 0);
    }
    ++count[dist[v]];
    edges[dist[v]] += g.degree(v);
  }
  std::uint64_t unexplored = 2 * g.num_edges();
  std::uint32_t flips = 0, bottom_up_levels = 0;
  bool bottom_up = false, growing = true;
  for (std::size_t d = 0; d < count.size(); ++d) {
    if (!bottom_up && growing && edges[d] > unexplored / 15) {
      bottom_up = true;
      ++flips;
    }
    if (bottom_up) ++bottom_up_levels;
    const std::uint64_t next = d + 1 < count.size() ? count[d + 1] : 0;
    unexplored -= std::min(unexplored, edges[d]);
    growing = next > count[d];
    if (bottom_up && next > 0 && !growing && next < n / 18) bottom_up = false;
  }
  return {flips, bottom_up_levels};
}

TEST(BfsEngine, FlipScheduleMatchesEagerBookkeeping) {
  // Skipping the degree sums before the first flip must not move a flip.
  BfsWorkspace ws;
  const auto flipping = flipping_graphs();
  auto graphs = differential_graphs();
  graphs.insert(graphs.end(), flipping.begin(), flipping.end());
  for (const auto& [name, g] : graphs) {
    std::vector<Dist> out(g.num_nodes());
    for (const NodeId s : sample_sources(g)) {
      const auto [flips, bottom_up_levels] = reference_flip_schedule(g, s);
      (void)ws.row_into<Dist>(g, s, out);
      EXPECT_EQ(ws.last_flip_count(), flips) << name << " source=" << s;
      EXPECT_EQ(ws.last_bottom_up_levels(), bottom_up_levels)
          << name << " source=" << s;
    }
  }
  // The flipping graphs flip from node 0; the two-cluster graph goes
  // bottom-up in the first cluster, top-down along the path, and bottom-up
  // again in the second cluster.
  for (const auto& [name, g] : flipping) {
    std::vector<Dist> out(g.num_nodes());
    (void)ws.row_into<Dist>(g, 0, out);
    EXPECT_GE(ws.last_flip_count(), 1u) << name;
    if (name == "two_clusters") {
      EXPECT_EQ(ws.last_flip_count(), 2u);
    }
  }
  // High-diameter families never flip; neither do graphs under the gate.
  const auto torus = make_torus2d(64, 64);
  std::vector<std::uint16_t> row(torus.num_nodes());
  EXPECT_FALSE(ws.row_into(torus, 0, std::span<std::uint16_t>(row)));
  EXPECT_EQ(ws.last_sweep_kind(),
            BfsWorkspace::SweepKind::kDirectionOptimizing);
  EXPECT_EQ(ws.last_flip_count(), 0u);
  const auto small = make_complete(64);
  std::vector<std::uint8_t> small_row(small.num_nodes());
  EXPECT_FALSE(ws.row_into(small, 0, std::span<std::uint8_t>(small_row)));
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarFull);
  EXPECT_EQ(ws.last_flip_count(), 0u);
}

TEST(BfsEngine, RowKernelSaturatesExactlyPastMaxFinite) {
  BfsWorkspace ws;
  const auto fits = [&](const Graph& g, NodeId s, DistWidth width,
                        const std::string& name) {
    return !row_matches_packed_reference(ws, g, s, width, name);
  };
  // u8 holds distances up to 254.
  EXPECT_TRUE(fits(make_path(255), 0, DistWidth::kU8, "path255 end"));
  EXPECT_FALSE(fits(make_path(256), 0, DistWidth::kU8, "path256 end"));
  EXPECT_TRUE(fits(make_path(256), 128, DistWidth::kU8, "path256 middle"));
  // u16 holds distances up to 65534.
  EXPECT_TRUE(fits(make_path(65535), 0, DistWidth::kU16, "path65535 end"));
  EXPECT_FALSE(fits(make_path(65536), 0, DistWidth::kU16, "path65536 end"));
  // A flipping core with a tail longer than 254: saturation is found after
  // the sweep went bottom-up and came back.
  Rng rng(0x7A11);
  const auto tailed = core_with_tail(1500, 300, rng);
  EXPECT_FALSE(fits(tailed, 5, DistWidth::kU8, "core_tail"));
  EXPECT_GE(ws.last_flip_count(), 1u);
  EXPECT_TRUE(fits(tailed, 5, DistWidth::kU16, "core_tail"));
}

TEST(BfsEngine, BallMatchesReferenceOrderExactly) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    for (const NodeId s : sample_sources(g)) {
      for (const Dist radius : {Dist{0}, Dist{1}, Dist{2}, Dist{5}, Dist{40}}) {
        const auto expect = ball_reference(g, s, radius);
        const auto view = ws.ball(g, s, radius);
        ASSERT_EQ(view.order.size(), expect.size())
            << name << " center=" << s << " r=" << radius;
        EXPECT_TRUE(std::equal(view.order.begin(), view.order.end(),
                               expect.begin()))
            << name << " center=" << s << " r=" << radius;
      }
    }
  }
}

TEST(BfsEngine, BallPow2SizesAndMemberCapMatchReference) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    for (const NodeId s : sample_sources(g)) {
      for (const Dist radius : {Dist{1}, Dist{5}, Dist{64}, kInfDist}) {
        const auto full = ball_reference(g, s, radius);
        const auto view = ws.ball(g, s, radius);
        for (std::size_t j = 0; j < view.pow2_sizes.size(); ++j) {
          const std::uint32_t got = view.pow2_sizes[j];
          if (got == 0) continue;
          ASSERT_EQ(got, ball_reference(g, s, Dist{1} << j).size())
              << name << " center=" << s << " r=" << radius << " j=" << j;
        }
        // Without a member cap, every depth up to the radius is settled.
        for (std::size_t j = 0; j < 31 && (Dist{1} << j) <= radius; ++j) {
          ASSERT_NE(view.pow2_sizes[j], 0u)
              << name << " center=" << s << " r=" << radius << " j=" << j;
        }
        for (const std::size_t cap : {std::size_t{1}, std::size_t{2},
                                      full.size() / 2 + 1, full.size()}) {
          const auto capped = ws.ball(g, s, radius, cap);
          ASSERT_GE(capped.order.size(), cap)
              << name << " center=" << s << " r=" << radius;
          ASSERT_TRUE(std::equal(capped.order.begin(),
                                 capped.order.begin() + cap, full.begin()))
              << name << " center=" << s << " r=" << radius << " cap=" << cap;
        }
      }
    }
  }
}

TEST(BfsEngine, BallWholeGraphDetection) {
  const auto g = make_path(10);
  BfsWorkspace ws;
  // Radius below the eccentricity: not exhausted.
  EXPECT_FALSE(ws.ball(g, 0, 8).whole_graph);
  // Radius exactly the eccentricity of node 0: exhausted at depth 9.
  const auto exact = ws.ball(g, 0, 9);
  EXPECT_TRUE(exact.whole_graph);
  EXPECT_EQ(exact.exhausted_depth, 9u);
  // From the middle, exhaustion happens at the middle node's eccentricity.
  const auto mid = ws.ball(g, 5, 100);
  EXPECT_TRUE(mid.whole_graph);
  EXPECT_EQ(mid.exhausted_depth, 5u);
  EXPECT_EQ(mid.order.size(), 10u);
}

TEST(BfsEngine, EccentricityAndFarthestMatchReference) {
  BfsWorkspace ws;
  for (const auto& [name, g] : differential_graphs()) {
    for (const NodeId s : sample_sources(g)) {
      // far.distance is s's eccentricity within its component (the
      // disconnected graph included).
      const auto dist = bfs_distances_reference(g, s);
      FarthestResult far{s, 0};
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (dist[v] != kInfDist && dist[v] > far.distance) far = {v, dist[v]};
      }
      const auto got = ws.farthest(g, s);
      EXPECT_EQ(got.node, far.node) << name << " source=" << s;
      EXPECT_EQ(got.distance, far.distance) << name << " source=" << s;
    }
  }
}

TEST(BfsEngine, EpochWraparoundStress) {
  // The 16-bit generation counter wraps every 65535 prepares; stale stamps
  // from before the wrap must never read as visited. Drive well past one
  // wrap with balls + marker-channel use on a small graph, checking exact
  // membership at every iteration.
  const auto g = make_grid2d(6, 6);
  BfsWorkspace ws;
  const auto expect_r2 = ball_reference(g, 14, 2);
  bool wrapped = false;
  std::uint16_t last_epoch = 0;
  for (int i = 0; i < 70'000; ++i) {
    const auto view = ws.ball(g, 14, 2);
    ASSERT_EQ(view.order.size(), expect_r2.size()) << "iteration " << i;
    ASSERT_TRUE(
        std::equal(view.order.begin(), view.order.end(), expect_r2.begin()))
        << "iteration " << i;
    if (ws.epoch() < last_epoch) wrapped = true;
    last_epoch = ws.epoch();
    if (i % 9 == 0) {
      // Exercise the marker channel across the same epochs.
      ws.prepare(g.num_nodes());
      ws.mark(3);
      ASSERT_TRUE(ws.marked(3));
      ASSERT_FALSE(ws.marked(4));
      ASSERT_FALSE(ws.visited(3));
    }
  }
  EXPECT_TRUE(wrapped) << "stress must cross at least one epoch wrap";
}

TEST(BfsEngine, WorkspaceGrowsAcrossGraphs) {
  // One workspace serves graphs of different sizes back to back.
  BfsWorkspace ws;
  const auto small = make_path(10);
  const auto big = make_grid2d(30, 30);
  EXPECT_EQ(ws.ball(small, 0, 3).order.size(), 4u);
  EXPECT_EQ(ws.ball(big, 0, 1).order.size(), 3u);
  EXPECT_EQ(ws.ball(small, 9, 2).order.size(), 3u);
  EXPECT_GE(ws.capacity(), 900u);
}

TEST(BfsEngine, KernelsValidateArguments) {
  const auto g = make_path(4);
  BfsWorkspace ws;
  std::vector<Dist> out(4);
  std::vector<Dist> wrong(3);
  EXPECT_THROW((void)ws.row_into<Dist>(g, 9, out), std::invalid_argument);
  EXPECT_THROW((void)ws.row_into<Dist>(g, 0, wrong), std::invalid_argument);
  EXPECT_THROW((void)ws.ball(g, 4, 1), std::invalid_argument);
  EXPECT_THROW((void)ws.farthest(g, 7), std::invalid_argument);
}

TEST(BfsEngine, SparseDenseCutoverIsExplicit) {
  // row_into's dispatch is observable via last_sweep_kind() and the
  // per-kind tallies: the direction-optimizing kernel runs exactly on graphs
  // that clear both size thresholds (n >= 1024 and >= 4096 directed edges),
  // the scalar top-down sweep below them, at every width, with the same
  // rows either way.
  BfsWorkspace ws;
  const auto big = make_grid2d(40, 40);  // clears the diropt gate (n=1600)
  std::vector<Dist> out(big.num_nodes());
  (void)ws.row_into<Dist>(big, 0, out);
  EXPECT_EQ(ws.last_sweep_kind(),
            BfsWorkspace::SweepKind::kDirectionOptimizing);
  EXPECT_EQ(out, bfs_distances_reference(big, 0));
  std::vector<std::uint8_t> narrow(big.num_nodes());
  EXPECT_FALSE(ws.row_into(big, 0, std::span<std::uint8_t>(narrow)));
  EXPECT_EQ(ws.last_sweep_kind(),
            BfsWorkspace::SweepKind::kDirectionOptimizing);

  // Below the node threshold the sweep stays scalar.
  const auto tiny = make_path(64);
  std::vector<Dist> tout(64);
  (void)ws.row_into<Dist>(tiny, 0, tout);
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarFull);
  EXPECT_EQ(tout, bfs_distances_reference(tiny, 0));

  // Enough nodes but too few edges (a 1500-path has 2998 directed edges):
  // still scalar.
  const auto sparse = make_path(1500);
  std::vector<std::uint16_t> srow(sparse.num_nodes());
  EXPECT_FALSE(ws.row_into(sparse, 0, std::span<std::uint16_t>(srow)));
  EXPECT_EQ(ws.last_sweep_kind(), BfsWorkspace::SweepKind::kScalarFull);

  // A fresh workspace's tallies count exactly the sweeps it ran.
  using SweepKind = BfsWorkspace::SweepKind;
  EXPECT_EQ(ws.sweep_count(SweepKind::kDirectionOptimizing), 2u);
  EXPECT_EQ(ws.sweep_count(SweepKind::kScalarFull), 2u);
  EXPECT_EQ(ws.sweep_count(SweepKind::kNone), 0u);
}

TEST(BfsEngine, LocalWorkspaceIsPerThread) {
  BfsWorkspace* main_ws = &local_bfs_workspace();
  EXPECT_EQ(main_ws, &local_bfs_workspace());  // stable on one thread
  BfsWorkspace* other_ws = nullptr;
  std::thread([&] { other_ws = &local_bfs_workspace(); }).join();
  EXPECT_NE(main_ws, other_ws);
}

}  // namespace
}  // namespace nav::graph
