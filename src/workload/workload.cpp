#include "workload/workload.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "api/result_sink.hpp"
#include "graph/bfs.hpp"
#include "graph/bfs_engine.hpp"
#include "graph/diameter.hpp"
#include "runtime/assert.hpp"
#include "runtime/discrete_distribution.hpp"
#include "runtime/parse.hpp"

namespace nav::workload {

namespace {

using graph::NodeId;

/// s, t uniform with s != t. The draw order (s first, then t, redrawing both
/// on collision) matches routing::select_trial_pairs exactly, which the test
/// suite pins: an existing bench rerun under the uniform workload sees the
/// same pairs bit for bit.
class UniformWorkload final : public Workload {
 public:
  explicit UniformWorkload(const graph::Graph& g) : n_(g.num_nodes()) {
    NAV_REQUIRE(n_ >= 2, "workload needs n >= 2");
  }

  [[nodiscard]] std::string name() const override { return "uniform"; }

  [[nodiscard]] Pair next(Rng& rng) override {
    while (true) {
      const auto s = static_cast<NodeId>(random_index(rng, n_));
      const auto t = static_cast<NodeId>(random_index(rng, n_));
      if (s != t) return {s, t};
    }
  }

 private:
  NodeId n_;
};

/// Zipf-popular targets: target ranks follow p(rank) ∝ (rank + 1)^(-s) over
/// a construction-time random permutation of the nodes (so the hot targets
/// are arbitrary nodes, not low ids); sources uniform.
class ZipfWorkload final : public Workload {
 public:
  ZipfWorkload(std::string spec, const graph::Graph& g, double exponent,
               Rng rng)
      : spec_(std::move(spec)),
        n_(g.num_nodes()),
        by_rank_(n_),
        dist_(zipf_weights(n_, exponent)) {
    NAV_REQUIRE(n_ >= 2, "workload needs n >= 2");
    NAV_REQUIRE(exponent >= 0.0, "zipf exponent must be >= 0");
    std::iota(by_rank_.begin(), by_rank_.end(), NodeId{0});
    for (NodeId i = n_; i > 1; --i) {  // Fisher-Yates over popularity ranks
      const auto j = static_cast<NodeId>(random_index(rng, i));
      std::swap(by_rank_[i - 1], by_rank_[j]);
    }
  }

  [[nodiscard]] std::string name() const override { return spec_; }

  [[nodiscard]] Pair next(Rng& rng) override {
    while (true) {
      const auto s = static_cast<NodeId>(random_index(rng, n_));
      const auto t = by_rank_[dist_.sample(rng)];
      if (s != t) return {s, t};
    }
  }

 private:
  static std::vector<double> zipf_weights(NodeId n, double exponent) {
    std::vector<double> weights(n);
    for (NodeId r = 0; r < n; ++r) {
      weights[r] = 1.0 / std::pow(static_cast<double>(r) + 1.0, exponent);
    }
    return weights;
  }

  std::string spec_;
  NodeId n_;
  std::vector<NodeId> by_rank_;  // by_rank_[r] = the rank-r popular node
  DiscreteDistribution dist_;
};

/// Locality-biased demand: s uniform, t uniform in B(s, radius) \ {s}.
/// Sources whose radius-ball is just themselves are redrawn (can't happen on
/// a connected graph with radius >= 1, but isolated nodes stay safe).
class LocalWorkload final : public Workload {
 public:
  LocalWorkload(std::string spec, const graph::Graph& g, graph::Dist radius)
      : spec_(std::move(spec)), graph_(g), radius_(radius) {
    NAV_REQUIRE(g.num_nodes() >= 2, "workload needs n >= 2");
    NAV_REQUIRE(radius >= 1, "local workload needs radius >= 1");
  }

  [[nodiscard]] std::string name() const override { return spec_; }

  [[nodiscard]] Pair next(Rng& rng) override {
    // The engine's epoch-stamped ball kernel costs O(|ball|) per draw, so
    // small-radius demand never pays an O(n) reset (the reason this class
    // used to carry its own stamped scratch).
    auto& ws = graph::local_bfs_workspace();
    while (true) {
      const auto s = static_cast<NodeId>(random_index(rng, graph_.num_nodes()));
      const auto members = ws.ball(graph_, s, radius_).order;
      if (members.size() < 2) continue;  // isolated within the radius
      // members is in BFS (distance, id) order with s first; skip it.
      const auto pick = 1 + random_index(rng, members.size() - 1);
      return {s, members[pick]};
    }
  }

 private:
  std::string spec_;
  const graph::Graph& graph_;
  graph::Dist radius_;
};

/// Far pairs by construction: s uniform, t whichever double-sweep peripheral
/// endpoint lies farther from s — every pair's distance is at least half the
/// diameter lower bound, the regime where the sqrt(n)-barrier bites.
class AdversarialWorkload final : public Workload {
 public:
  explicit AdversarialWorkload(const graph::Graph& g) : n_(g.num_nodes()) {
    NAV_REQUIRE(n_ >= 2, "workload needs n >= 2");
    const auto peripheral = graph::peripheral_pair(g);
    a_ = peripheral.a;
    b_ = peripheral.b;
    dist_a_ = graph::bfs_distances(g, a_);
    dist_b_ = graph::bfs_distances(g, b_);
  }

  [[nodiscard]] std::string name() const override { return "adversarial"; }

  [[nodiscard]] Pair next(Rng& rng) override {
    while (true) {
      const auto s = static_cast<NodeId>(random_index(rng, n_));
      NodeId t = dist_a_[s] >= dist_b_[s] ? a_ : b_;
      if (s == t) t = (t == a_) ? b_ : a_;
      if (s != t) return {s, t};
    }
  }

 private:
  NodeId n_;
  NodeId a_ = 0, b_ = 0;
  std::vector<graph::Dist> dist_a_, dist_b_;
};

/// k hot targets absorb probability p; the rest of the demand is uniform.
/// The hot set is fixed at construction from the registry rng.
class HotsetWorkload final : public Workload {
 public:
  HotsetWorkload(std::string spec, const graph::Graph& g, std::size_t k,
                 double p, Rng rng)
      : spec_(std::move(spec)), n_(g.num_nodes()), p_(p) {
    NAV_REQUIRE(n_ >= 2, "workload needs n >= 2");
    NAV_REQUIRE(k >= 1 && k <= n_, "hotset size must be in [1, n]");
    NAV_REQUIRE(p >= 0.0 && p <= 1.0, "hotset probability must be in [0, 1]");
    std::vector<bool> taken(n_, false);
    while (hot_.size() < k) {  // rejection keeps the k targets distinct
      const auto t = static_cast<NodeId>(random_index(rng, n_));
      if (taken[t]) continue;
      taken[t] = true;
      hot_.push_back(t);
    }
  }

  [[nodiscard]] std::string name() const override { return spec_; }

  [[nodiscard]] Pair next(Rng& rng) override {
    while (true) {
      const auto s = static_cast<NodeId>(random_index(rng, n_));
      const NodeId t = rng.next_bool(p_)
                           ? hot_[random_index(rng, hot_.size())]
                           : static_cast<NodeId>(random_index(rng, n_));
      if (s != t) return {s, t};
    }
  }

 private:
  std::string spec_;
  NodeId n_;
  double p_;
  std::vector<NodeId> hot_;
};

/// Replays a recorded trace, cycling when the demand outlives it. Pure
/// replay: next() ignores the rng entirely.
class TraceWorkload final : public Workload {
 public:
  TraceWorkload(const graph::Graph& g, std::string path)
      : path_(std::move(path)), pairs_(load_trace(path_)) {
    NAV_REQUIRE(!pairs_.empty(), "empty workload trace: " + path_);
    for (const auto& [s, t] : pairs_) {
      NAV_REQUIRE(s < g.num_nodes() && t < g.num_nodes(),
                  "trace pair endpoint out of range: " + path_);
      NAV_REQUIRE(s != t, "trace pair with source == target: " + path_);
    }
  }

  [[nodiscard]] std::string name() const override { return "trace:" + path_; }

  [[nodiscard]] Pair next(Rng& /*rng*/) override {
    const Pair pair = pairs_[position_];
    position_ = (position_ + 1) % pairs_.size();
    return pair;
  }

  void reset() override { position_ = 0; }

 private:
  std::string path_;
  std::vector<Pair> pairs_;
  std::size_t position_ = 0;
};

}  // namespace

std::vector<Pair> Workload::batch(std::size_t count, Rng& rng) {
  std::vector<Pair> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) pairs.push_back(next(rng));
  return pairs;
}

WorkloadPtr make_workload(const std::string& spec, const graph::Graph& g,
                          Rng rng) {
  const auto tokens = split_spec(spec);
  const std::string& kind = tokens.front();
  const auto expect_args = [&](std::size_t count) {
    if (tokens.size() != count + 1) {
      throw std::invalid_argument("workload spec '" + kind + "' takes " +
                                  std::to_string(count) +
                                  " argument(s): " + spec);
    }
  };
  if (kind == "uniform") {
    expect_args(0);
    return std::make_unique<UniformWorkload>(g);
  }
  if (kind == "zipf") {
    expect_args(1);
    return std::make_unique<ZipfWorkload>(
        spec, g, parse_spec_number<double>(tokens[1], spec), rng);
  }
  if (kind == "local") {
    expect_args(1);
    return std::make_unique<LocalWorkload>(
        spec, g, parse_spec_number<graph::Dist>(tokens[1], spec));
  }
  if (kind == "adversarial") {
    expect_args(0);
    return std::make_unique<AdversarialWorkload>(g);
  }
  if (kind == "hotset") {
    expect_args(2);
    return std::make_unique<HotsetWorkload>(
        spec, g, parse_spec_number<std::size_t>(tokens[1], spec),
        parse_spec_number<double>(tokens[2], spec), rng);
  }
  if (kind == "trace") {
    // The path may itself contain ':' — take everything after the prefix.
    if (tokens.size() < 2 || spec.size() <= 6) {
      throw std::invalid_argument("trace workload needs a path: " + spec);
    }
    return std::make_unique<TraceWorkload>(g, spec.substr(6));
  }
  throw std::invalid_argument("unknown workload spec: " + spec);
}

const std::vector<WorkloadInfo>& workload_catalog() {
  static const std::vector<WorkloadInfo> catalog = {
      {"uniform", "s, t uniform with s != t (the paper's demand; reproduces "
                  "select_trial_pairs draws exactly)"},
      {"zipf:<s>", "Zipf(s)-popular targets over a random popularity "
                   "permutation; sources uniform"},
      {"local:<r>", "s uniform, t uniform in B(s, r) \\ {s} — short-range "
                    "demand"},
      {"adversarial", "s uniform, t the farther double-sweep peripheral "
                      "endpoint — far pairs by construction"},
      {"hotset:<k>:<p>", "k fixed hot targets absorb probability p; the rest "
                         "of the demand is uniform"},
      {"trace:<path>", "replay a JSONL trace of {\"s\":..,\"t\":..} records, "
                       "cycling when exhausted"},
  };
  return catalog;
}

std::vector<std::string> standard_workload_specs() {
  return {"uniform", "zipf:1.1", "local:8", "adversarial", "hotset:8:0.9"};
}

void save_trace(const std::string& path, const std::vector<Pair>& pairs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace for write: " + path);
  for (const auto& [s, t] : pairs) {
    out << api::to_json_line({{"s", static_cast<std::uint64_t>(s)},
                              {"t", static_cast<std::uint64_t>(t)}})
        << '\n';
  }
  if (!out) throw std::runtime_error("failed writing trace: " + path);
}

std::vector<Pair> load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open trace: " + path);
  std::vector<Pair> pairs;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;  // graph_io-style comments
    const auto record = api::parse_json_line(line);
    const auto field = [&](const char* key) -> graph::NodeId {
      for (const auto& f : record) {
        if (f.key == key) {
          if (const auto* v = std::get_if<std::uint64_t>(&f.value)) {
            if (*v > std::numeric_limits<graph::NodeId>::max()) {
              throw std::invalid_argument(
                  path + ":" + std::to_string(line_number) + ": trace field '" +
                  key + "' = " + std::to_string(*v) + " is not a node id");
            }
            return static_cast<graph::NodeId>(*v);
          }
          throw std::invalid_argument(path + ":" +
                                      std::to_string(line_number) +
                                      ": trace field '" + key +
                                      "' must be an unsigned integer");
        }
      }
      throw std::invalid_argument(path + ":" + std::to_string(line_number) +
                                  ": trace record missing field '" + key +
                                  "'");
    };
    pairs.emplace_back(field("s"), field("t"));
  }
  return pairs;
}

}  // namespace nav::workload
