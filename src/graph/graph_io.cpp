#include "graph/graph_io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/connectivity.hpp"

namespace nav::graph {

void write_graph(std::ostream& out, const Graph& g) {
  out << "nav-graph 1\n";
  out << "n " << g.num_nodes() << "\n";
  for (const auto& [u, v] : g.edge_list()) out << u << ' ' << v << "\n";
}

namespace {

// Line-numbered scanner shared by every dialect parser: tracks the physical
// line of each content line so malformed input reports "<source>:<line>:"
// instead of a positionless message.
class LineScanner {
 public:
  LineScanner(std::istream& in, const std::string& name)
      : in_(in), name_(name) {}

  /// Next non-blank, non-'#' line; false at end of input.
  bool next(std::string& dst) {
    while (std::getline(in_, dst)) {
      ++line_no_;
      const auto first = dst.find_first_not_of(" \t\r");
      if (first == std::string::npos) continue;  // blank
      if (dst[first] == '#') continue;           // comment
      return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t line() const noexcept { return line_no_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::invalid_argument(name_ + ":" + std::to_string(line_no_) +
                                ": " + message);
  }

 private:
  std::istream& in_;
  const std::string& name_;
  std::size_t line_no_ = 0;
};

/// Whitespace-splits `line` into at most 8 tokens (more than any dialect
/// needs; excess tokens are an error the callers detect by count).
std::size_t tokenize(const std::string& line, std::string_view* out,
                     std::size_t max_tokens) {
  std::size_t count = 0;
  std::size_t i = 0;
  const std::size_t size = line.size();
  while (i < size) {
    while (i < size && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
    if (i >= size) break;
    const std::size_t start = i;
    while (i < size && line[i] != ' ' && line[i] != '\t' && line[i] != '\r') {
      ++i;
    }
    if (count < max_tokens) out[count] = {line.data() + start, i - start};
    ++count;
  }
  return count;
}

std::uint64_t parse_id(std::string_view token, const LineScanner& scan,
                       const char* what) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (token.empty() || ec != std::errc() || end != token.data() + token.size()) {
    scan.fail(std::string("bad ") + what + " '" + std::string(token) + "'");
  }
  return value;
}

struct ParsedEdges {
  std::uint64_t n = 0;
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::size_t self_loops = 0;
};

/// Native "nav-graph 1" dialect. `first_line` is the already-read header.
/// tolerate_self_loops: load_edge_list drops and counts them; read_graph
/// keeps them so the Graph constructor rejects as before.
ParsedEdges parse_nav_graph(LineScanner& scan, const std::string& first_line,
                            bool tolerate_self_loops) {
  std::string_view tok[4];
  std::size_t count = tokenize(first_line, tok, 4);
  if (count != 2 || tok[0] != "nav-graph" || tok[1] != "1") {
    scan.fail("bad header, expected 'nav-graph 1'");
  }
  std::string line;
  if (!scan.next(line)) scan.fail("missing 'n <count>' line");
  count = tokenize(line, tok, 4);
  if (count != 2 || tok[0] != "n") scan.fail("bad 'n <count>' line");
  ParsedEdges result;
  result.n = parse_id(tok[1], scan, "node count");
  if (result.n >= kNoNode) scan.fail("node count too large");
  while (scan.next(line)) {
    count = tokenize(line, tok, 4);
    if (count != 2) scan.fail("bad edge line (expected '<u> <v>')");
    const std::uint64_t u = parse_id(tok[0], scan, "edge endpoint");
    const std::uint64_t v = parse_id(tok[1], scan, "edge endpoint");
    if (u >= result.n || v >= result.n) {
      scan.fail("edge endpoint out of range (n = " +
                std::to_string(result.n) + ")");
    }
    if (tolerate_self_loops && u == v) {
      ++result.self_loops;
      continue;
    }
    result.edges.emplace_back(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return result;
}

/// DIMACS dialect: 'c' comments, one 'p <type> <n> <m>' problem line,
/// 'e'/'a' edge lines with 1-based endpoints. The declared edge count is
/// informational only — real corpora routinely misstate it.
ParsedEdges parse_dimacs(LineScanner& scan, std::string first_line) {
  ParsedEdges result;
  bool have_problem = false;
  std::string line = std::move(first_line);
  std::string_view tok[5];
  do {
    const std::size_t count = tokenize(line, tok, 5);
    if (tok[0] == "c") continue;  // comment line
    if (tok[0] == "p") {
      if (have_problem) scan.fail("duplicate problem line");
      if (count != 4) scan.fail("bad problem line (expected 'p <type> <n> <m>')");
      result.n = parse_id(tok[2], scan, "node count");
      parse_id(tok[3], scan, "edge count");  // validated, not enforced
      if (result.n == 0) scan.fail("node count must be >= 1");
      if (result.n >= kNoNode) scan.fail("node count too large");
      have_problem = true;
      continue;
    }
    if (tok[0] == "e" || tok[0] == "a") {
      if (!have_problem) scan.fail("edge line before the problem line");
      if (count != 3) scan.fail("bad edge line (expected 'e <u> <v>')");
      const std::uint64_t u = parse_id(tok[1], scan, "edge endpoint");
      const std::uint64_t v = parse_id(tok[2], scan, "edge endpoint");
      if (u < 1 || u > result.n || v < 1 || v > result.n) {
        scan.fail("edge endpoint out of range (ids are 1.." +
                  std::to_string(result.n) + ")");
      }
      if (u == v) {
        ++result.self_loops;
        continue;
      }
      result.edges.emplace_back(static_cast<NodeId>(u - 1),
                                static_cast<NodeId>(v - 1));
      continue;
    }
    scan.fail("unrecognised DIMACS line (expected 'c', 'p', 'e', or 'a')");
  } while (scan.next(line));
  if (!have_problem) scan.fail("missing DIMACS problem line");
  return result;
}

/// SNAP dialect: bare "<u> <v>" pairs with arbitrary non-negative ids,
/// remapped densely in first-seen order.
ParsedEdges parse_snap(LineScanner& scan, const std::string& first_line) {
  ParsedEdges result;
  std::unordered_map<std::uint64_t, NodeId> remap;
  const auto id_of = [&](std::uint64_t raw) {
    const auto [it, inserted] =
        remap.emplace(raw, static_cast<NodeId>(remap.size()));
    if (inserted && remap.size() >= static_cast<std::size_t>(kNoNode)) {
      scan.fail("too many distinct node ids");
    }
    return it->second;
  };
  std::string line = first_line;
  std::string_view tok[3];
  do {
    const std::size_t count = tokenize(line, tok, 3);
    if (count != 2) scan.fail("bad edge line (expected '<u> <v>')");
    const std::uint64_t u = parse_id(tok[0], scan, "edge endpoint");
    const std::uint64_t v = parse_id(tok[1], scan, "edge endpoint");
    if (u == v) {
      ++result.self_loops;
      // The endpoint still names a node: isolated unless another edge hits it.
      id_of(u);
      continue;
    }
    const NodeId a = id_of(u);
    const NodeId b = id_of(v);
    result.edges.emplace_back(a, b);
  } while (scan.next(line));
  result.n = remap.size();
  return result;
}

/// Counts parallel edges (the Graph constructor collapses them silently) and
/// finishes the LoadedGraph: construct, then optionally reduce to the
/// largest connected component.
LoadedGraph finish(ParsedEdges parsed, EdgeListFormat format,
                   const EdgeListOptions& options) {
  LoadedGraph result;
  result.format = format;
  result.self_loops = parsed.self_loops;
  {
    std::vector<std::pair<NodeId, NodeId>> normalized = parsed.edges;
    for (auto& [u, v] : normalized) {
      if (u > v) std::swap(u, v);
    }
    std::sort(normalized.begin(), normalized.end());
    for (std::size_t i = 1; i < normalized.size(); ++i) {
      if (normalized[i] == normalized[i - 1]) ++result.duplicate_edges;
    }
  }
  Graph g(static_cast<NodeId>(parsed.n), std::move(parsed.edges));
  result.nodes_loaded = g.num_nodes();
  if (options.keep_largest_component && !is_connected(g)) {
    auto largest = largest_component(g);
    result.nodes_dropped = g.num_nodes() - largest.graph.num_nodes();
    result.graph = std::move(largest.graph);
  } else {
    result.graph = std::move(g);
  }
  return result;
}

}  // namespace

Graph read_graph(std::istream& in) {
  static const std::string kStreamName = "<stream>";
  LineScanner scan(in, kStreamName);
  std::string line;
  if (!scan.next(line)) scan.fail("graph stream is empty");
  ParsedEdges parsed =
      parse_nav_graph(scan, line, /*tolerate_self_loops=*/false);
  return Graph(static_cast<NodeId>(parsed.n), std::move(parsed.edges));
}

LoadedGraph load_edge_list(std::istream& in, const std::string& name,
                           const EdgeListOptions& options) {
  LineScanner scan(in, name);
  std::string line;
  if (!scan.next(line)) scan.fail("empty input (no content lines)");

  EdgeListFormat format = options.format;
  if (format == EdgeListFormat::kAuto) {
    std::string_view tok[3];
    const std::size_t count = tokenize(line, tok, 3);
    if (tok[0] == "nav-graph") {
      format = EdgeListFormat::kNavGraph;
    } else if (tok[0] == "c" || tok[0] == "p") {
      format = EdgeListFormat::kDimacs;
    } else if (count == 2) {
      format = EdgeListFormat::kSnap;
    } else {
      scan.fail("cannot detect edge-list format (expected 'nav-graph 1', a "
                "DIMACS 'c'/'p' line, or a '<u> <v>' pair)");
    }
  }

  ParsedEdges parsed;
  switch (format) {
    case EdgeListFormat::kNavGraph:
      parsed = parse_nav_graph(scan, line, /*tolerate_self_loops=*/true);
      break;
    case EdgeListFormat::kDimacs:
      parsed = parse_dimacs(scan, std::move(line));
      break;
    default:
      parsed = parse_snap(scan, line);
      break;
  }
  return finish(std::move(parsed), format, options);
}

LoadedGraph load_edge_list(const std::string& path,
                           const EdgeListOptions& options) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open for read: " + path);
  return load_edge_list(file, path, options);
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open for write: " + path);
  write_graph(file, g);
  if (!file) throw std::runtime_error("write failed: " + path);
}

Graph load_graph(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open for read: " + path);
  return read_graph(file);
}

}  // namespace nav::graph
