#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "graph/generators.hpp"

namespace nav::graph {
namespace {

TEST(GraphIo, RoundTripStream) {
  const auto g = make_grid2d(4, 5);
  std::stringstream buffer;
  write_graph(buffer, g);
  const auto back = read_graph(buffer);
  EXPECT_EQ(back.num_nodes(), g.num_nodes());
  EXPECT_EQ(back.num_edges(), g.num_edges());
  EXPECT_EQ(back.edge_list(), g.edge_list());
}

TEST(GraphIo, RoundTripFile) {
  const auto g = make_cycle(12);
  const std::string path = ::testing::TempDir() + "nav_io_test.graph";
  save_graph(path, g);
  const auto back = load_graph(path);
  EXPECT_EQ(back.edge_list(), g.edge_list());
  std::remove(path.c_str());
}

TEST(GraphIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n\nnav-graph 1\n# another\nn 3\n\n0 1\n# trailing\n1 2\n");
  const auto g = read_graph(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, IsolatedNodesSurvive) {
  Graph g(5, {{0, 1}});
  std::stringstream buffer;
  write_graph(buffer, g);
  EXPECT_EQ(read_graph(buffer).num_nodes(), 5u);
}

TEST(GraphIo, RejectsBadHeader) {
  std::stringstream in("wrong 1\nn 2\n");
  EXPECT_THROW(read_graph(in), std::invalid_argument);
}

TEST(GraphIo, RejectsBadVersion) {
  std::stringstream in("nav-graph 2\nn 2\n");
  EXPECT_THROW(read_graph(in), std::invalid_argument);
}

TEST(GraphIo, RejectsMissingCount) {
  std::stringstream in("nav-graph 1\n0 1\n");
  EXPECT_THROW(read_graph(in), std::invalid_argument);
}

TEST(GraphIo, RejectsOutOfRangeEdge) {
  std::stringstream in("nav-graph 1\nn 2\n0 5\n");
  EXPECT_THROW(read_graph(in), std::invalid_argument);
}

TEST(GraphIo, RejectsEmptyStream) {
  std::stringstream in("");
  EXPECT_THROW(read_graph(in), std::invalid_argument);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(load_graph("/nonexistent_xyz/g.graph"), std::runtime_error);
}

// ---- load_edge_list: real-graph ingestion -------------------------------

/// Runs `fn`, returning the exception message ("" when nothing threw) — the
/// malformed-input matrix asserts on the "<source>:<line>:" prefix.
template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

TEST(EdgeList, AutoDetectsNavGraph) {
  std::stringstream in("nav-graph 1\nn 3\n0 1\n1 2\n");
  const auto loaded = load_edge_list(in);
  EXPECT_EQ(loaded.format, EdgeListFormat::kNavGraph);
  EXPECT_EQ(loaded.graph.num_nodes(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 2u);
}

TEST(EdgeList, AutoDetectsDimacs) {
  std::stringstream in("c tiny\np edge 3 2\ne 1 2\ne 2 3\n");
  const auto loaded = load_edge_list(in);
  EXPECT_EQ(loaded.format, EdgeListFormat::kDimacs);
  EXPECT_EQ(loaded.graph.num_nodes(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 2u);
  // 1-based input: 'e 1 2' must have become the 0-based edge (0, 1).
  EXPECT_EQ(loaded.graph.edge_list().front(), (std::pair<NodeId, NodeId>{0, 1}));
}

TEST(EdgeList, AutoDetectsSnap) {
  std::stringstream in("# comment\n10 20\n20 30\n10 30\n");
  const auto loaded = load_edge_list(in);
  EXPECT_EQ(loaded.format, EdgeListFormat::kSnap);
  // Arbitrary ids remap densely in first-seen order: 10->0, 20->1, 30->2.
  EXPECT_EQ(loaded.graph.num_nodes(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 3u);
}

TEST(EdgeList, DimacsToleratesSelfLoopsAndDuplicates) {
  std::stringstream in(
      "p edge 3 5\ne 1 2\ne 2 1\ne 2 2\ne 2 3\ne 1 3\n");
  const auto loaded = load_edge_list(in);
  EXPECT_EQ(loaded.self_loops, 1u);
  EXPECT_EQ(loaded.duplicate_edges, 1u);  // e 2 1 duplicates e 1 2
  EXPECT_EQ(loaded.graph.num_edges(), 3u);
}

TEST(EdgeList, NavGraphSelfLoopsToleratedOnlyByIngestion) {
  const std::string text = "nav-graph 1\nn 2\n0 0\n0 1\n";
  std::stringstream strict(text);
  EXPECT_THROW((void)read_graph(strict), std::invalid_argument);
  std::stringstream tolerant(text);
  const auto loaded = load_edge_list(tolerant);
  EXPECT_EQ(loaded.self_loops, 1u);
  EXPECT_EQ(loaded.graph.num_edges(), 1u);
}

TEST(EdgeList, ExtractsLargestComponent) {
  // Two components: a triangle {0,1,2} and an edge {3,4}.
  std::stringstream in("p edge 5 4\ne 1 2\ne 2 3\ne 1 3\ne 4 5\n");
  const auto loaded = load_edge_list(in);
  EXPECT_EQ(loaded.nodes_loaded, 5u);
  EXPECT_EQ(loaded.nodes_dropped, 2u);
  EXPECT_EQ(loaded.graph.num_nodes(), 3u);
  EXPECT_EQ(loaded.graph.num_edges(), 3u);
}

TEST(EdgeList, KeepLargestComponentCanBeDisabled) {
  std::stringstream in("p edge 5 4\ne 1 2\ne 2 3\ne 1 3\ne 4 5\n");
  EdgeListOptions options;
  options.keep_largest_component = false;
  const auto loaded = load_edge_list(in, "<stream>", options);
  EXPECT_EQ(loaded.nodes_dropped, 0u);
  EXPECT_EQ(loaded.graph.num_nodes(), 5u);
}

TEST(EdgeList, ExplicitFormatOverridesSniffing) {
  // "1 2" sniffs as SNAP; forcing kDimacs must reject it as a bad line.
  std::stringstream in("1 2\n");
  EdgeListOptions options;
  options.format = EdgeListFormat::kDimacs;
  EXPECT_THROW((void)load_edge_list(in, "<stream>", options),
               std::invalid_argument);
}

TEST(EdgeList, ErrorsCarrySourceAndLineNumber) {
  // Line 4 (comment and blank lines still count) holds the bad endpoint.
  std::stringstream in("c header\np edge 2 2\n\ne 1 7\n");
  const auto message = thrown_message([&] { (void)load_edge_list(in, "k.gr"); });
  EXPECT_NE(message.find("k.gr:4:"), std::string::npos) << message;
  EXPECT_NE(message.find("out of range"), std::string::npos) << message;
}

TEST(EdgeList, MalformedInputMatrix) {
  // Every row: input text -> required "<source>:<line>" anchor. The matrix
  // pins both that malformed input THROWS and that the message localises it.
  const struct {
    const char* text;
    const char* anchor;
  } cases[] = {
      {"", "<in>:0"},                                // empty input
      {"e 1 2\n", "<in>:1"},                         // 'e' alone: undetectable
      {"p edge 2 1\ne 0 1\n", "<in>:2"},             // DIMACS ids are 1-based
      {"p edge 2 1\ne 1\n", "<in>:2"},               // short edge line
      {"p edge 2 1\nq 1 2\n", "<in>:2"},             // unknown DIMACS type
      {"p edge 2 1\np edge 2 1\n", "<in>:2"},        // duplicate problem line
      {"c only comments\n", "<in>:1"},               // missing problem line
      {"p edge x 1\n", "<in>:1"},                    // non-numeric count
      {"1 2\n3 4 5\n", "<in>:2"},                    // SNAP token overflow
      {"1 2\n3 x\n", "<in>:2"},                      // SNAP bad endpoint
      {"nav-graph 1\nn 2\n0 1 2\n", "<in>:3"},       // native bad edge line
      {"one two three\n", "<in>:1"},                 // undetectable format
  };
  for (const auto& c : cases) {
    std::stringstream in(c.text);
    const auto message =
        thrown_message([&] { (void)load_edge_list(in, "<in>"); });
    EXPECT_NE(message.find(c.anchor), std::string::npos)
        << "input " << ::testing::PrintToString(c.text) << " reported: "
        << message;
  }
}

TEST(EdgeList, RejectsNodeCountAtTheNoNodeSentinel) {
  // n = 2^32 - 1 is kNoNode: its n + 1 CSR offsets would wrap to 0. Both
  // parsers reject it with a located diagnostic before any allocation.
  const struct {
    const char* text;
    const char* anchor;
  } cases[] = {
      {"nav-graph 1\nn 4294967295\n", "<in>:2: node count too large"},
      {"nav-graph 1\nn 4294967296\n", "<in>:2: node count too large"},
      {"p edge 4294967295 0\n", "<in>:1: node count too large"},
      {"c big\np edge 4294967295 0\n", "<in>:2: node count too large"},
  };
  for (const auto& c : cases) {
    std::stringstream in(c.text);
    const auto message =
        thrown_message([&] { (void)load_edge_list(in, "<in>"); });
    EXPECT_NE(message.find(c.anchor), std::string::npos)
        << "input " << ::testing::PrintToString(c.text) << " reported: "
        << message;
  }
  std::stringstream native("nav-graph 1\nn 4294967295\n");
  const auto message = thrown_message([&] { (void)read_graph(native); });
  EXPECT_NE(message.find("<stream>:2: node count too large"),
            std::string::npos)
      << message;
}

TEST(GraphIo, GraphConstructorRejectsTheNoNodeSentinelCount) {
  // The constructor guards every other path to a Graph (builders, tests).
  EXPECT_THROW(Graph(kNoNode, {}), std::invalid_argument);
  EXPECT_THROW(Graph(kNoNode, {{0, 1}}), std::invalid_argument);
}

TEST(EdgeList, DimacsEdgeBeforeProblemLineThrows) {
  std::stringstream in("c header\ne 1 2\np edge 2 1\n");
  const auto message =
      thrown_message([&] { (void)load_edge_list(in, "<in>"); });
  EXPECT_NE(message.find("<in>:2:"), std::string::npos) << message;
  EXPECT_NE(message.find("before the problem line"), std::string::npos)
      << message;
}

TEST(EdgeList, LoadsKarateFixture) {
  // The checked-in CI fixture: Zachary's karate club, DIMACS, connected.
  const auto loaded =
      load_edge_list(std::string(NAV_TEST_DATA_DIR) + "/karate.dimacs");
  EXPECT_EQ(loaded.format, EdgeListFormat::kDimacs);
  EXPECT_EQ(loaded.graph.num_nodes(), 34u);
  EXPECT_EQ(loaded.graph.num_edges(), 78u);
  EXPECT_EQ(loaded.nodes_dropped, 0u);
  EXPECT_EQ(loaded.self_loops, 0u);
  EXPECT_EQ(loaded.duplicate_edges, 0u);
  // Node 34 (0-based 33) is the highest-degree node in the club.
  EXPECT_EQ(loaded.graph.degree(33), 17u);
}

TEST(EdgeList, MissingFileNamesThePath) {
  const auto message = thrown_message(
      [] { (void)load_edge_list("/nonexistent_xyz/k.gr"); });
  EXPECT_NE(message.find("/nonexistent_xyz/k.gr"), std::string::npos);
}

}  // namespace
}  // namespace nav::graph
