#include "dynamic/mutation_stream.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "api/result_sink.hpp"
#include "runtime/assert.hpp"
#include "runtime/parse.hpp"

namespace nav::dynamic {

namespace {

using Op = EdgeMutation::Op;

// Largest churn rate a spec may ask for: a step reserves and draws that many
// events, so the rate must convert to std::size_t and fit in memory.
constexpr double kMaxChurnRate = 1e6;

/// "churn:<rate>" — steady-state edge turnover: per step, <rate> events,
/// each a fair coin between remove-uniform-edge and add-uniform-absent-pair.
class ChurnStream final : public MutationStream {
 public:
  explicit ChurnStream(double rate, std::string spec)
      : rate_(rate), spec_(std::move(spec)) {}

  [[nodiscard]] std::string name() const override { return spec_; }

  [[nodiscard]] std::vector<EdgeMutation> step(const DynamicGraph& g,
                                               Rng& rng) override {
    std::size_t count = static_cast<std::size_t>(rate_);
    const double remainder = rate_ - static_cast<double>(count);
    if (remainder > 0.0 && rng.next_bool(remainder)) ++count;

    const NodeId n = g.graph().num_nodes();
    std::vector<EdgeMutation> events;
    events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const bool remove = rng.next_bool(0.5);
      if (remove) {
        const auto edges = g.edges();
        if (edges.empty()) continue;  // nothing left to remove
        const auto& e = edges[rng.next_below(edges.size())];
        events.push_back({Op::kRemoveEdge, e.first, e.second});
      } else {
        if (n < 2) continue;
        // Rejection-sample an absent pair. Skip the draw (rather than spin)
        // on a hit: near-complete graphs stay bounded, and the no-op is
        // filtered by apply() anyway.
        const NodeId u = static_cast<NodeId>(rng.next_below(n));
        NodeId v = static_cast<NodeId>(rng.next_below(n - 1));
        if (v >= u) ++v;  // uniform over nodes != u
        events.push_back({Op::kAddEdge, u, v});
      }
    }
    return events;
  }

 private:
  double rate_;
  std::string spec_;
};

/// "fail:<fraction>" — one-shot uniform edge failures.
class FailStream final : public MutationStream {
 public:
  explicit FailStream(double fraction, std::string spec)
      : fraction_(fraction), spec_(std::move(spec)) {}

  [[nodiscard]] std::string name() const override { return spec_; }

  [[nodiscard]] std::vector<EdgeMutation> step(const DynamicGraph& g,
                                               Rng& rng) override {
    if (fired_) return {};
    fired_ = true;
    const auto edges = g.edges();
    const std::size_t kill =
        static_cast<std::size_t>(fraction_ * static_cast<double>(edges.size()));
    // Partial Fisher–Yates over the edge indices: the first `kill` entries
    // of a uniform permutation are a uniform subset.
    std::vector<std::size_t> index(edges.size());
    for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
    std::vector<EdgeMutation> events;
    events.reserve(kill);
    for (std::size_t i = 0; i < kill && i < index.size(); ++i) {
      const std::size_t j = i + rng.next_below(index.size() - i);
      std::swap(index[i], index[j]);
      const auto& e = edges[index[i]];
      events.push_back({Op::kRemoveEdge, e.first, e.second});
    }
    return events;
  }

  void reset() override { fired_ = false; }

 private:
  double fraction_;
  std::string spec_;
  bool fired_ = false;
};

/// "targeted:<k>" — one-shot failure of the k highest-degree nodes.
class TargetedStream final : public MutationStream {
 public:
  explicit TargetedStream(std::size_t k, std::string spec)
      : k_(k), spec_(std::move(spec)) {}

  [[nodiscard]] std::string name() const override { return spec_; }

  [[nodiscard]] std::vector<EdgeMutation> step(const DynamicGraph& g,
                                               Rng& /*rng*/) override {
    if (fired_) return {};
    fired_ = true;
    const Graph& graph = g.graph();
    std::vector<NodeId> nodes(graph.num_nodes());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) nodes[u] = u;
    const std::size_t kill = std::min<std::size_t>(k_, nodes.size());
    // Highest degree first, ties by lower id — a deterministic attack.
    std::partial_sort(nodes.begin(), nodes.begin() + kill, nodes.end(),
                      [&](NodeId a, NodeId b) {
                        if (graph.degree(a) != graph.degree(b)) {
                          return graph.degree(a) > graph.degree(b);
                        }
                        return a < b;
                      });
    std::vector<EdgeMutation> events;
    events.reserve(kill);
    for (std::size_t i = 0; i < kill; ++i) {
      events.push_back({Op::kFailNode, nodes[i], 0});
    }
    return events;
  }

  void reset() override { fired_ = false; }

 private:
  std::size_t k_;
  std::string spec_;
  bool fired_ = false;
};

/// "trace:<path>" — JSONL replay: call i returns the events recorded for
/// step i, empty after the last recorded step.
class TraceStream final : public MutationStream {
 public:
  explicit TraceStream(std::string path, std::string spec)
      : steps_(load_mutation_trace(path)), spec_(std::move(spec)) {}

  [[nodiscard]] std::string name() const override { return spec_; }

  [[nodiscard]] std::vector<EdgeMutation> step(const DynamicGraph& /*g*/,
                                               Rng& /*rng*/) override {
    if (position_ >= steps_.size()) return {};
    return steps_[position_++];
  }

  void reset() override { position_ = 0; }

 private:
  std::vector<std::vector<EdgeMutation>> steps_;
  std::string spec_;
  std::size_t position_ = 0;
};

[[nodiscard]] std::string op_token(Op op) {
  switch (op) {
    case Op::kAddEdge: return "add";
    case Op::kRemoveEdge: return "remove";
    case Op::kFailNode: return "fail";
  }
  NAV_ASSERT(false);
  return {};
}

[[nodiscard]] Op parse_op_token(const std::string& token,
                                const std::string& where) {
  if (token == "add") return Op::kAddEdge;
  if (token == "remove") return Op::kRemoveEdge;
  if (token == "fail") return Op::kFailNode;
  throw std::invalid_argument(where + ": unknown mutation op '" + token +
                              "' (expected add/remove/fail)");
}

}  // namespace

MutationStreamPtr make_mutation_stream(const std::string& spec) {
  const std::vector<std::string> tokens = split_spec(spec);
  const std::string& kind = tokens[0];
  if (kind == "churn" && tokens.size() == 2) {
    const double rate = parse_spec_number<double>(tokens[1], spec);
    NAV_REQUIRE(rate >= 0.0 && rate <= kMaxChurnRate,
                spec + ": churn rate must be in [0, 1e6]");
    return std::make_unique<ChurnStream>(rate, spec);
  }
  if (kind == "fail" && tokens.size() == 2) {
    const double fraction = parse_spec_number<double>(tokens[1], spec);
    NAV_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
                "fail fraction must be in [0, 1]");
    return std::make_unique<FailStream>(fraction, spec);
  }
  if (kind == "targeted" && tokens.size() == 2) {
    const auto k = parse_spec_number<std::size_t>(tokens[1], spec);
    return std::make_unique<TargetedStream>(k, spec);
  }
  if (kind == "trace" && tokens.size() >= 2) {
    // Paths may contain ':' (rare, but cheap to honour): rejoin the tail.
    std::string path = spec.substr(kind.size() + 1);
    NAV_REQUIRE(!path.empty(), "trace spec needs a path");
    return std::make_unique<TraceStream>(std::move(path), spec);
  }
  throw std::invalid_argument("unknown mutation spec: " + spec);
}

const std::vector<MutationInfo>& mutation_catalog() {
  static const std::vector<MutationInfo> catalog = {
      {"churn:<rate>", "per step, <rate> events (at most 1e6): coin flip "
                       "between removing a uniform edge and adding a uniform "
                       "absent pair"},
      {"fail:<fraction>", "one-shot removal of floor(fraction * m) distinct "
                          "uniform edges"},
      {"targeted:<k>", "one-shot failure of the k highest-degree nodes "
                       "(ties by lower id)"},
      {"trace:<path>", "replay a JSONL trace of {\"step\",\"op\",\"u\",\"v\"} "
                       "records; empty after the last recorded step"},
  };
  return catalog;
}

void save_mutation_trace(const std::string& path,
                         const std::vector<std::vector<EdgeMutation>>& steps) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open mutation trace for write: " + path);
  }
  for (std::size_t s = 0; s < steps.size(); ++s) {
    for (const EdgeMutation& e : steps[s]) {
      out << api::to_json_line({{"step", static_cast<std::uint64_t>(s)},
                                {"op", op_token(e.op)},
                                {"u", static_cast<std::uint64_t>(e.u)},
                                {"v", static_cast<std::uint64_t>(e.v)}})
          << '\n';
    }
  }
  if (!out) throw std::runtime_error("failed writing mutation trace: " + path);
}

std::vector<std::vector<EdgeMutation>> load_mutation_trace(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open mutation trace: " + path);
  std::vector<std::vector<EdgeMutation>> steps;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;  // graph_io-style comments
    const std::string where = path + ":" + std::to_string(line_number);
    const auto record = api::parse_json_line(line);
    const auto uint_field = [&](const char* key) -> std::uint64_t {
      for (const auto& f : record) {
        if (f.key == key) {
          if (const auto* v = std::get_if<std::uint64_t>(&f.value)) return *v;
          throw std::invalid_argument(where + ": trace field '" + key +
                                      "' must be an unsigned integer");
        }
      }
      throw std::invalid_argument(where + ": trace record missing field '" +
                                  std::string(key) + "'");
    };
    const auto string_field = [&](const char* key) -> std::string {
      for (const auto& f : record) {
        if (f.key == key) {
          if (const auto* v = std::get_if<std::string>(&f.value)) return *v;
          throw std::invalid_argument(where + ": trace field '" + key +
                                      "' must be a string");
        }
      }
      throw std::invalid_argument(where + ": trace record missing field '" +
                                  std::string(key) + "'");
    };
    const std::size_t step = static_cast<std::size_t>(uint_field("step"));
    if (step >= steps.size()) steps.resize(step + 1);
    steps[step].push_back({parse_op_token(string_field("op"), where),
                           static_cast<NodeId>(uint_field("u")),
                           static_cast<NodeId>(uint_field("v"))});
  }
  return steps;
}

}  // namespace nav::dynamic
