// test_workload.cpp — the demand-model registry's contract: every generator
// is deterministic under its seeds, respects its distribution's shape, and
// "uniform" reproduces the classic trial-pair stream bit for bit.
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <unordered_map>

#include "graph/bfs.hpp"
#include "graph/families.hpp"
#include "graph/generators.hpp"
#include "routing/trial_runner.hpp"

namespace nav::workload {
namespace {

graph::Graph test_graph(graph::NodeId n = 256) {
  Rng rng(0x9e0);
  return graph::family("grid2d").make(n, rng);
}

TEST(Workload, UniformIsBitIdenticalToSelectTrialPairs) {
  // The acceptance contract: a bench that swaps select_trial_pairs for
  // make_workload("uniform") sees the exact same pairs from the same rng.
  const auto g = test_graph(400);
  routing::TrialConfig config;
  config.policy = routing::TrialConfig::PairPolicy::kRandom;
  config.num_pairs = 64;
  Rng legacy_rng(0x1234);
  const auto expected = routing::select_trial_pairs(g, config, legacy_rng);

  const auto uniform = make_workload("uniform", g, Rng(0));  // seed unused
  Rng workload_rng(0x1234);
  const auto pairs = uniform->batch(64, workload_rng);
  ASSERT_EQ(pairs.size(), expected.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i], expected[i]) << "pair " << i;
  }
}

TEST(Workload, BatchesAreDeterministicUnderSeeds) {
  const auto g = test_graph();
  for (const auto& spec : standard_workload_specs()) {
    const auto a = make_workload(spec, g, Rng(7));
    const auto b = make_workload(spec, g, Rng(7));
    Rng draw_a(9), draw_b(9);
    EXPECT_EQ(a->batch(40, draw_a), b->batch(40, draw_b)) << spec;
  }
}

TEST(Workload, PairsNeverSelfRoute) {
  const auto g = test_graph();
  for (const auto& spec : standard_workload_specs()) {
    const auto w = make_workload(spec, g, Rng(3));
    Rng rng(4);
    for (const auto& [s, t] : w->batch(200, rng)) {
      EXPECT_NE(s, t) << spec;
      EXPECT_LT(s, g.num_nodes()) << spec;
      EXPECT_LT(t, g.num_nodes()) << spec;
    }
  }
}

TEST(Workload, ZipfConcentratesTargets) {
  const auto g = test_graph(400);
  const auto zipf = make_workload("zipf:1.4", g, Rng(11));
  Rng rng(12);
  std::unordered_map<graph::NodeId, std::size_t> counts;
  const std::size_t draws = 4000;
  for (const auto& [s, t] : zipf->batch(draws, rng)) counts[t] += 1;
  std::size_t top = 0;
  for (const auto& [t, c] : counts) top = std::max(top, c);
  // Under uniform demand the busiest of 400 targets gets ~draws/400 = 10;
  // Zipf(1.4)'s rank-1 mass is orders of magnitude above that.
  EXPECT_GT(top, draws / 40);
}

TEST(Workload, LocalPairsStayWithinRadius) {
  const auto g = test_graph(400);
  const auto local = make_workload("local:3", g, Rng(0));
  Rng rng(5);
  for (const auto& [s, t] : local->batch(60, rng)) {
    const auto dist = graph::bfs_distances(g, s);
    ASSERT_NE(dist[t], graph::kInfDist);
    EXPECT_LE(dist[t], 3u);
    EXPECT_GE(dist[t], 1u);
  }
}

TEST(Workload, AdversarialPairsAreFar) {
  // On a path the peripheral endpoints are 0 and n-1; every generated pair
  // targets whichever is farther, so dist(s, t) >= (n-1)/2.
  const auto g = graph::make_path(101);
  const auto adversarial = make_workload("adversarial", g, Rng(0));
  Rng rng(6);
  for (const auto& [s, t] : adversarial->batch(80, rng)) {
    EXPECT_TRUE(t == 0 || t == 100);
    const auto dist = t > s ? t - s : s - t;
    EXPECT_GE(dist, 50u);
  }
}

TEST(Workload, HotsetAbsorbsItsProbability) {
  const auto g = test_graph(400);
  const auto hot = make_workload("hotset:4:1.0", g, Rng(21));
  Rng rng(22);
  std::set<graph::NodeId> targets;
  for (const auto& [s, t] : hot->batch(200, rng)) targets.insert(t);
  // p = 1.0: every draw lands in the 4-node hot set (collisions with the
  // source redraw the whole pair, never leak a cold target).
  EXPECT_LE(targets.size(), 4u);

  const auto cold = make_workload("hotset:4:0.0", g, Rng(21));
  Rng cold_rng(22);
  std::set<graph::NodeId> cold_targets;
  for (const auto& [s, t] : cold->batch(200, cold_rng)) cold_targets.insert(t);
  EXPECT_GT(cold_targets.size(), 50u);  // p = 0: plain uniform demand
}

TEST(Workload, TraceRoundTripsAndReplaysCyclically) {
  const auto g = test_graph(64);
  const std::vector<Pair> recorded = {{0, 5}, {9, 2}, {33, 40}};
  const std::string path = "test_workload_trace.jsonl";
  save_trace(path, recorded);
  EXPECT_EQ(load_trace(path), recorded);

  const auto trace = make_workload("trace:" + path, g, Rng(0));
  Rng rng(1);
  const auto pairs = trace->batch(7, rng);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i], recorded[i % recorded.size()]) << i;
  }
  std::remove(path.c_str());
}

TEST(Workload, TraceRejectsBadContent) {
  const auto g = test_graph(16);  // 16-node graph: id 99 is out of range
  const std::string path = "test_workload_bad_trace.jsonl";
  {
    std::ofstream out(path);
    out << R"({"s": 0, "t": 99})" << "\n";
  }
  EXPECT_THROW((void)make_workload("trace:" + path, g, Rng(0)),
               std::invalid_argument);
  {
    std::ofstream out(path);
    out << "not json\n";
  }
  EXPECT_THROW((void)make_workload("trace:" + path, g, Rng(0)),
               std::invalid_argument);
  std::remove(path.c_str());
  EXPECT_THROW((void)load_trace(path), std::runtime_error);
}

TEST(Workload, TraceRejectsIdsThatDoNotFitANodeId) {
  // 4294967296 = 2^32 does not fit a NodeId; a cast would replay it as node
  // 0. The error names the file and line.
  const auto g = graph::make_path(10);
  const std::string path =
      ::testing::TempDir() + "test_workload_wide_trace.jsonl";
  const auto message_for = [&](const char* text) -> std::string {
    {
      std::ofstream out(path);
      out << text;
    }
    try {
      (void)load_trace(path);
    } catch (const std::invalid_argument& error) {
      EXPECT_THROW((void)make_workload("trace:" + path, g, Rng(0)),
                   std::invalid_argument);
      return error.what();
    }
    return "";
  };
  auto message = message_for(R"({"s": 4294967296, "t": 1})"
                             "\n"
                             R"({"s": 2, "t": 3})"
                             "\n");
  EXPECT_NE(message.find(path + ":1: trace field 's'"), std::string::npos)
      << message;
  message = message_for(R"({"s": 2, "t": 3})"
                        "\n"
                        R"({"s": 0, "t": 18446744073709551615})"
                        "\n");
  EXPECT_NE(message.find(path + ":2: trace field 't'"), std::string::npos)
      << message;
  std::remove(path.c_str());
}

TEST(Workload, RejectsMalformedSpecs) {
  const auto g = test_graph(64);
  for (const auto* spec :
       {"nope", "zipf", "zipf:abc", "local:0", "local:-1", "hotset:4",
        "hotset:0:0.5", "hotset:4:1.5", "uniform:extra", "trace:"}) {
    EXPECT_THROW((void)make_workload(spec, g, Rng(0)), std::invalid_argument)
        << spec;
  }
}

TEST(Workload, CatalogCoversTheRegistry) {
  const auto& catalog = workload_catalog();
  ASSERT_EQ(catalog.size(), 6u);
  EXPECT_EQ(catalog.front().spec, "uniform");
  const auto g = test_graph(64);
  // Every standard spec must build (the docs promise the catalog is live).
  for (const auto& spec : standard_workload_specs()) {
    EXPECT_NE(make_workload(spec, g, Rng(1)), nullptr) << spec;
  }
}

}  // namespace
}  // namespace nav::workload
