// test_mutation_stream.cpp — the perturbation registry contract: specs
// parse strictly, streams are deterministic under one seed, reset() replays
// the process, one-shots arm exactly once, and JSONL traces round-trip
// through save_mutation_trace / load_mutation_trace into a replay stream.
#include "dynamic/mutation_stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/families.hpp"
#include "runtime/rng.hpp"

namespace nav::dynamic {
namespace {

DynamicGraph make_dyn(const std::string& family = "torus2d", NodeId n = 256) {
  Rng rng(0xD111);
  return DynamicGraph(graph::family(family).make(n, rng));
}

bool same_events(const std::vector<EdgeMutation>& a,
                 const std::vector<EdgeMutation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || a[i].u != b[i].u || a[i].v != b[i].v) {
      return false;
    }
  }
  return true;
}

TEST(MutationRegistry, CatalogListsEverySpecFamily) {
  const auto& catalog = mutation_catalog();
  ASSERT_GE(catalog.size(), 4u);
  std::set<std::string> prefixes;
  for (const auto& info : catalog) {
    prefixes.insert(info.spec.substr(0, info.spec.find(':')));
    EXPECT_FALSE(info.description.empty()) << info.spec;
  }
  for (const auto* expected : {"churn", "fail", "targeted", "trace"}) {
    EXPECT_TRUE(prefixes.count(expected)) << expected;
  }
}

TEST(MutationRegistry, RejectsUnknownAndMalformedSpecs) {
  // "none" is the driver-side sentinel for "no stream", never a stream.
  for (const auto* bad : {"none", "melt", "churn", "churn:x", "churn:-1",
                          "churn:inf", "churn:1e300", "churn:1e19", "fail",
                          "fail:x", "targeted", "targeted:x", ""}) {
    EXPECT_THROW((void)make_mutation_stream(bad), std::invalid_argument)
        << bad;
  }
}

TEST(ChurnStream, DeterministicAndReplaysAfterReset) {
  auto dyn_a = make_dyn();
  auto dyn_b = make_dyn();
  auto stream = make_mutation_stream("churn:4");
  EXPECT_EQ(stream->name(), "churn:4");

  std::vector<std::vector<EdgeMutation>> first;
  for (int i = 0; i < 5; ++i) {
    Rng rng = Rng(0xC0).child(i);
    first.push_back(stream->step(dyn_a, rng));
    (void)dyn_a.apply(first.back());
  }
  stream->reset();
  for (int i = 0; i < 5; ++i) {
    Rng rng = Rng(0xC0).child(i);
    const auto replay = stream->step(dyn_b, rng);
    EXPECT_TRUE(same_events(first[i], replay)) << "step " << i;
    (void)dyn_b.apply(replay);
  }
}

TEST(ChurnStream, FractionalRateContributesBernoulliExtra) {
  auto dyn = make_dyn();
  auto stream = make_mutation_stream("churn:0.5");
  std::size_t total = 0;
  for (int i = 0; i < 64; ++i) {
    Rng rng = Rng(0x5E).child(i);
    total += stream->step(dyn, rng).size();
  }
  // Expectation is 32; anywhere inside (0, 64) proves the coin exists and
  // isn't stuck at 0 or 1.
  EXPECT_GT(total, 8u);
  EXPECT_LT(total, 56u);
}

TEST(FailStream, OneShotRemovesTheRequestedFraction) {
  auto dyn = make_dyn();
  const auto m = dyn.edges().size();
  auto stream = make_mutation_stream("fail:0.1");

  Rng rng0(0xF0);
  const auto batch = stream->step(dyn, rng0);
  EXPECT_EQ(batch.size(), m / 10);
  std::set<std::pair<NodeId, NodeId>> distinct;
  for (const auto& event : batch) {
    EXPECT_EQ(event.op, EdgeMutation::Op::kRemoveEdge);
    EXPECT_TRUE(dyn.has_edge(event.u, event.v));
    distinct.insert({event.u, event.v});
  }
  EXPECT_EQ(distinct.size(), batch.size());  // distinct uniform edges

  // Later steps are empty; reset() re-arms the shot.
  Rng rng1(0xF1);
  EXPECT_TRUE(stream->step(dyn, rng1).empty());
  stream->reset();
  Rng rng2(0xF0);
  EXPECT_EQ(stream->step(dyn, rng2).size(), m / 10);
}

TEST(TargetedStream, FailsTheHighestDegreeNodes) {
  // A star inside a path: node 0 has degree 5, everyone else at most 2.
  DynamicGraph dyn(Graph(
      6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 2}}));
  auto stream = make_mutation_stream("targeted:1");
  Rng rng(0x7A);
  const auto batch = stream->step(dyn, rng);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].op, EdgeMutation::Op::kFailNode);
  EXPECT_EQ(batch[0].u, 0u);

  const auto delta = dyn.apply(batch);
  EXPECT_EQ(delta.edges_removed, 5u);
  EXPECT_EQ(dyn.graph().degree(0), 0u);

  // The attack is one-shot.
  Rng rng2(0x7B);
  EXPECT_TRUE(stream->step(dyn, rng2).empty());
}

TEST(TraceStream, SaveLoadRoundTripAndReplay) {
  const std::string path = ::testing::TempDir() + "mutation_trace.jsonl";
  const std::vector<std::vector<EdgeMutation>> steps = {
      {{EdgeMutation::Op::kAddEdge, 0, 7},
       {EdgeMutation::Op::kRemoveEdge, 1, 2}},
      {},  // a quiet step must survive the round trip
      {{EdgeMutation::Op::kFailNode, 3, 0}},
  };
  save_mutation_trace(path, steps);

  const auto loaded = load_mutation_trace(path);
  ASSERT_EQ(loaded.size(), steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_TRUE(same_events(steps[i], loaded[i])) << "step " << i;
  }

  auto dyn = make_dyn("cycle", 16);
  auto stream = make_mutation_stream("trace:" + path);
  Rng rng(0);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    EXPECT_TRUE(same_events(stream->step(dyn, rng), steps[i])) << i;
  }
  // Drained after the last recorded step; reset() rewinds to step 0.
  EXPECT_TRUE(stream->step(dyn, rng).empty());
  stream->reset();
  EXPECT_TRUE(same_events(stream->step(dyn, rng), steps[0]));
  std::remove(path.c_str());
}

TEST(TraceStream, RejectsWideIdsAndStepsPastTheBound) {
  // Ids must fit a NodeId (a cast would replay 2^32 as node 0), and a step
  // index above kMaxTraceStep is refused before the per-step batches are
  // resized (2^64 - 1 + 1 would wrap to an empty vector). Each error names
  // the file and line.
  const std::string path = ::testing::TempDir() + "wide_mutation_trace.jsonl";
  const auto message_for = [&](const std::string& second_line) {
    {
      std::ofstream out(path);
      out << R"({"step": 0, "op": "add", "u": 0, "v": 1})" << "\n"
          << second_line << "\n";
    }
    try {
      (void)load_mutation_trace(path);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  // A record at a given step.
  const auto step_line = [](std::uint64_t step, const char* rest) {
    return R"({"step": )" + std::to_string(step) + rest;
  };
  const struct {
    std::string line;
    std::string expect;
  } cases[] = {
      {R"({"step": 1, "op": "add", "u": 4294967296, "v": 1})",
       ":2: trace field 'u'"},
      {R"({"step": 1, "op": "remove", "u": 0, "v": 18446744073709551615})",
       ":2: trace field 'v'"},
      {R"({"step": 18446744073709551615, "op": "add", "u": 0, "v": 1})",
       ":2: trace step 18446744073709551615 exceeds"},
      {step_line(kMaxTraceStep + 1, R"(, "op": "add", "u": 0, "v": 1})"),
       ":2: trace step " + std::to_string(kMaxTraceStep + 1) + " exceeds"},
  };
  for (const auto& c : cases) {
    const auto message = message_for(c.line);
    EXPECT_NE(message.find(path + c.expect), std::string::npos)
        << c.line << " reported: " << message;
  }
  // The largest id and the bound itself still load.
  EXPECT_EQ(message_for(step_line(
                kMaxTraceStep, R"(, "op": "fail", "u": 4294967295, "v": 0})")),
            "");
  const auto steps = load_mutation_trace(path);
  ASSERT_EQ(steps.size(), kMaxTraceStep + 1);
  ASSERT_EQ(steps.back().size(), 1u);
  EXPECT_EQ(steps.back()[0].u, 4294967295u);
  std::remove(path.c_str());
}

TEST(TraceStream, MissingFileAndMalformedLinesThrow) {
  EXPECT_THROW((void)load_mutation_trace("/nonexistent/trace.jsonl"),
               std::runtime_error);
  EXPECT_THROW((void)make_mutation_stream("trace:/nonexistent/trace.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace nav::dynamic
