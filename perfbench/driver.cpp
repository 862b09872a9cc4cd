// driver.cpp — closed-loop benchmark of api::RouteService.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--digest-file <path>] [--trace-out <path>]
//
// One driver thread keeps at most kInFlight requests in flight against one
// RouteService: each request is a submit() of one pre-generated batch, and
// the next request goes out only when the oldest completes (the service
// runs requests FIFO, so the oldest is always the next to finish).
//
// A run:
//   1. sets the stack up several times (graph, scheme, oracle, warm-up of
//      the lazy state the workload depends on) and keeps the last one;
//   2. generates the seeded request pool before any clock starts;
//   3. routes the first reference_requests requests once, as the reference
//      every later completion of the same request must reproduce exactly;
//   4. measures one untraced phase of --seconds or, with --trace 1, an
//      untraced and a traced phase of half that each; the traced phase runs
//      through the forwarding wrappers of layers.hpp, from which the
//      per-layer metrics come.
// Human-readable lines go to stdout first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). A
// correctness failure prints correct=false and exits 1.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "layers.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_NAV_SANITIZE
#define PERFBENCH_NAV_SANITIZE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace nav;
using perfbench::now_ns;
using perfbench::SpanStore;

/// Requests in flight at once: one per core of the 4-core reference host.
constexpr std::size_t kInFlight = 4;
/// Stack set-ups per run, setup_s being their median: at least kMinSetups,
/// then more while they have taken under kSetupBudgetS in total, so cheap
/// set-ups get a steadier median.
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 3.0;

/// The layer a workload was chosen to load; the traced run checks it still
/// does.
enum class Intent { kContactSampling, kOracleMisses, kHitPath };

struct WorkloadDef {
  const char* name;
  const char* family;
  graph::NodeId n;
  const char* scheme;
  const char* demand;
  const char* oracle;
  std::size_t pairs_per_request;
  /// Requests routed once before timing; their hop counts are the reference.
  std::size_t reference_requests;
  /// Pre-generated requests: about twice what a 30 s phase completes on the
  /// 4-core reference host. A phase that outruns them cycles.
  std::size_t pool_requests;
  /// Size of the demand's hot set (0: no hot set).
  std::size_t hot_targets;
  Intent intent;
};

// Each workload loads one layer (BENCHMARK.json says which and why). Request
// sizes are chosen so a 30 s phase completes well over 1000 requests, which
// leaves at least 10 samples beyond latency_p99_ms: gnp-uniform-cold sends 4
// pairs, so each wave carries exactly one cold miss per lane of the 4-lane
// pool and still takes the wide row-farming path.
constexpr WorkloadDef kWorkloads[] = {
    {"torus-ball-zipf", "torus2d", graph::NodeId{1} << 15, "ball", "zipf:1.1",
     "cache:256", 16, 200, 16384, 0, Intent::kContactSampling},
    {"gnp-uniform-cold", "gnp", graph::NodeId{1} << 18, "uniform", "uniform",
     "cache:64M:auto", 4, 100, 8192, 0, Intent::kOracleMisses},
    {"torus-hot-small", "torus2d", graph::NodeId{1} << 18, "uniform",
     "hotset:64:0.99", "cache:256:auto", 8, 500, 65536, 64, Intent::kHitPath},
};

// ------------------------------------------------------------ utilities ----

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Shortest decimal text that reads back as exactly `value`.
std::string exact_number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// ---------------------------------------------------------------- stack ----

/// One served configuration. Members are declared in dependency order, so
/// destruction releases the router and scheme before the graph they use.
struct Stack {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<graph::DistanceOracle> oracle;
  graph::TargetDistanceCache* cache = nullptr;
  core::SchemePtr scheme;
  routing::RouterPtr router;
};

struct SetupTimes {
  double graph_s = 0, scheme_s = 0, oracle_s = 0, warm_s = 0, total_s = 0;
};

/// The seeded demand: request i is the pair list requests[i], routed with
/// the stream rng.child(i).
struct Pool {
  std::vector<std::vector<workload::Pair>> requests;
  Rng rng;
  double gen_us_per_pair = 0;
  std::vector<graph::NodeId> hot;  // targets of the demand's hot set
};

Pool make_pool(const WorkloadDef& def, const graph::Graph& g,
               std::uint64_t seed) {
  const Rng root(seed);
  Pool pool;
  pool.rng = root.child(1);
  auto demand = workload::make_workload(def.demand, g, root.child(2));
  Rng draw = root.child(3);
  const std::int64_t start = now_ns();
  pool.requests.reserve(def.pool_requests);
  for (std::size_t i = 0; i < def.pool_requests; ++i) {
    pool.requests.push_back(demand->batch(def.pairs_per_request, draw));
  }
  pool.gen_us_per_pair =
      seconds_since(start) * 1e6 /
      static_cast<double>(def.pool_requests * def.pairs_per_request);
  if (def.hot_targets > 0) {
    // The hot set is private to the workload; recover it from the demand.
    // Every hot target is drawn hundreds of times over the pool, while the
    // 1% cold draws spread over the whole graph and (almost) never repeat.
    std::unordered_map<graph::NodeId, std::size_t> hits;
    for (const auto& request : pool.requests) {
      for (const auto& pair : request) ++hits[pair.second];
    }
    for (const auto& [target, count] : hits) {
      if (count >= 16) pool.hot.push_back(target);
    }
    std::sort(pool.hot.begin(), pool.hot.end());
    NAV_REQUIRE(pool.hot.size() == def.hot_targets,
                "could not recover the demand's hot set");
  }
  return pool;
}

/// Learns BallScheme's per-node eccentricity bounds: one draw per node at a
/// radius that covers the graph, which makes each node's ball BFS exhaust
/// the graph and record the bound, exactly as routing would learn it over
/// many requests. Returns whether a second sweep ran at the cost of O(1)
/// draws: under a tenth of the first sweep, or 2 us a node.
bool learn_ball_eccentricities(const core::BallScheme& scheme) {
  const std::uint32_t levels = scheme.levels();
  NAV_REQUIRE(levels >= 2, "ball warm-up needs at least two levels");
  // sample_contact first draws the level k = 1 + next_below(levels); pick a
  // stream whose first draw is the level 2^(levels-1): below n, above the
  // eccentricity of the graphs used here.
  std::uint64_t s = 0;
  while (Rng(s).next_below(levels) != levels - 2) ++s;
  const Rng pinned(s);
  const auto sweep = [&] {
    parallel_for(0, scheme.num_nodes(), [&](std::size_t u) {
      Rng rng = pinned;
      (void)scheme.sample_contact(static_cast<graph::NodeId>(u), rng);
    });
  };
  std::int64_t start = now_ns();
  sweep();
  const double first_s = seconds_since(start);
  start = now_ns();
  sweep();
  const double second_s = seconds_since(start);
  return second_s < 0.1 * first_s ||
         second_s < 2e-6 * static_cast<double>(scheme.num_nodes());
}

/// Puts the oracle in its steady state, the same before every phase: the
/// LRU full of demand targets, taken from the far end of the pool (which a
/// phase does not reach, so cold demand stays cold), with the hot set (if
/// any) prefetched last and verified resident.
void prime_oracle(const Stack& stack, const Pool& pool) {
  graph::TargetDistanceCache& cache = *stack.cache;
  cache.clear();
  const std::size_t capacity = cache.capacity();
  std::vector<graph::NodeId> fill;
  std::unordered_set<graph::NodeId> seen(pool.hot.begin(), pool.hot.end());
  for (auto it = pool.requests.rbegin();
       it != pool.requests.rend() && fill.size() + pool.hot.size() < capacity;
       ++it) {
    for (const auto& pair : *it) {
      if (fill.size() + pool.hot.size() < capacity &&
          seen.insert(pair.second).second) {
        fill.push_back(pair.second);
      }
    }
  }
  std::vector<graph::DistVecPtr> pins;
  cache.prefetch_into(fill, pins);
  if (pool.hot.empty()) return;
  cache.prefetch_into(pool.hot, pins);
  pins.clear();
  const std::size_t misses = cache.misses();
  cache.prefetch_into(pool.hot, pins);
  NAV_REQUIRE(cache.misses() == misses,
              "hot rows are not all resident after warm-up");
}

std::unique_ptr<Stack> build_stack(const WorkloadDef& def, SetupTimes& times,
                                   Pool& pool, std::uint64_t seed,
                                   bool& ball_settled) {
  auto stack = std::make_unique<Stack>();
  const std::int64_t start = now_ns();
  std::int64_t t = start;
  const auto lap = [&t] {
    const std::int64_t now = now_ns();
    const double s = static_cast<double>(now - t) * 1e-9;
    t = now;
    return s;
  };
  Rng graph_rng(0x5eed);
  stack->graph = std::make_unique<graph::Graph>(
      graph::family(def.family).make(def.n, graph_rng));
  times.graph_s = lap();
  Rng scheme_rng(0x5eed);
  stack->scheme = core::make_scheme(def.scheme, *stack->graph, scheme_rng);
  times.scheme_s = lap();
  stack->oracle = graph::make_oracle(def.oracle, *stack->graph);
  stack->cache = dynamic_cast<graph::TargetDistanceCache*>(stack->oracle.get());
  NAV_REQUIRE(stack->cache != nullptr, "workload oracle must be a cache");
  stack->router = routing::make_router("greedy", *stack->graph, *stack->oracle);
  times.oracle_s = lap();
  if (pool.requests.empty()) {
    pool = make_pool(def, *stack->graph, seed);
    (void)lap();  // generation is reported as workload.gen_us_per_pair
  }
  if (const auto* ball =
          dynamic_cast<const core::BallScheme*>(stack->scheme.get())) {
    ball_settled = learn_ball_eccentricities(*ball);
  }
  prime_oracle(*stack, pool);
  times.warm_s = lap();
  times.total_s =
      times.graph_s + times.scheme_s + times.oracle_s + times.warm_s;
  return stack;
}

// ----------------------------------------------------------- closed loop ----

/// Per pool index: the FNV-1a digest of the request's hop counts, once
/// known. Every later completion of the same request must match it.
struct References {
  std::vector<std::uint64_t> digest;
  std::vector<std::uint8_t> known;
  std::size_t mismatches = 0;
};

struct RequestRecord {
  std::size_t seq = 0;    ///< submission order within the phase
  std::size_t index = 0;  ///< pool index
  std::int64_t submit_ns = 0, ready_ns = 0;
  std::uint32_t pairs = 0;
  std::uint32_t failed = 0;     ///< pairs of a batch whose future threw
  std::uint32_t unreached = 0;  ///< admitted routes without `reached`
  /// Reached routes breaking greedy's bound 1 <= steps <= initial_distance
  /// (every greedy hop strictly decreases the distance to the target).
  std::uint32_t bad_routes = 0;
  std::uint64_t hops = 0;
  bool in_window = false;
};

struct PhaseResult {
  std::vector<RequestRecord> records;
  std::int64_t t0 = 0, t_stop = 0;
  double cpu_s = 0;
  std::string first_error;

  [[nodiscard]] std::size_t window_pairs() const {
    std::size_t pairs = 0;
    for (const auto& r : records) pairs += r.in_window ? r.pairs : 0;
    return pairs;
  }
  [[nodiscard]] double window_s() const {
    return static_cast<double>(t_stop - t0) * 1e-9;
  }
  [[nodiscard]] double pairs_per_s() const {
    return static_cast<double>(window_pairs()) / window_s();
  }
  /// Throughput over the first and the second half of the window, so that
  /// drift shows.
  [[nodiscard]] std::pair<double, double> half_rates() const {
    const std::int64_t half = t0 + (t_stop - t0) / 2;
    double first = 0, second = 0;
    for (const auto& r : records) {
      if (r.in_window) (r.ready_ns < half ? first : second) += r.pairs;
    }
    return {first / (window_s() / 2), second / (window_s() / 2)};
  }
  /// Sojourn (submit to result ready) of every request in the window.
  [[nodiscard]] std::vector<double> latencies_ms() const {
    std::vector<double> out;
    for (const auto& r : records) {
      if (r.in_window) {
        out.push_back(static_cast<double>(r.ready_ns - r.submit_ns) * 1e-6);
      }
    }
    return out;
  }
};

void check_results(const std::vector<routing::RouteResult>& results,
                   RequestRecord& rec, References& refs) {
  std::uint64_t digest = kFnvOffset;
  if (results.size() != rec.pairs) {
    rec.unreached = rec.pairs;
    ++refs.mismatches;
    return;
  }
  for (const auto& r : results) {
    if (!r.reached) {
      ++rec.unreached;
    } else if (r.steps == 0 || r.steps > r.initial_distance ||
               r.long_links_used > r.steps) {
      ++rec.bad_routes;
    }
    rec.hops += r.steps;
    digest = fnv1a(digest, (std::uint64_t{r.reached} << 32) | r.steps);
  }
  if (refs.known[rec.index]) {
    if (refs.digest[rec.index] != digest) ++refs.mismatches;
  } else {
    refs.known[rec.index] = 1;
    refs.digest[rec.index] = digest;
  }
}

/// Runs the closed loop for `seconds` (0: until `max_requests` have been
/// submitted), then drains. Requests completing up to the first completion
/// at or past the deadline form the measurement window (all of them when
/// there is no deadline).
PhaseResult run_phase(api::RouteService& service, const Pool& pool,
                      References& refs, std::size_t max_requests,
                      double seconds) {
  struct InFlight {
    RequestRecord rec;
    std::future<std::vector<routing::RouteResult>> future;
  };
  std::deque<InFlight> inflight;
  PhaseResult out;
  const double cpu0 = cpu_seconds();
  out.t0 = now_ns();
  const std::int64_t deadline =
      seconds > 0 ? out.t0 + static_cast<std::int64_t>(seconds * 1e9)
                  : std::numeric_limits<std::int64_t>::max();
  std::size_t next = 0;
  bool submitting = true;
  while (true) {
    while (submitting && inflight.size() < kInFlight) {
      InFlight req;
      req.rec.seq = next;
      req.rec.index = next % pool.requests.size();
      const auto& pairs = pool.requests[req.rec.index];
      req.rec.pairs = static_cast<std::uint32_t>(pairs.size());
      req.rec.submit_ns = now_ns();
      req.future = service.submit(pairs, pool.rng.child(req.rec.index));
      inflight.push_back(std::move(req));
      if (++next == max_requests) submitting = false;
    }
    if (inflight.empty()) break;
    InFlight& front = inflight.front();
    RequestRecord rec = front.rec;
    try {
      const auto results = front.future.get();
      rec.ready_ns = now_ns();
      check_results(results, rec, refs);
    } catch (const std::exception& error) {
      rec.ready_ns = now_ns();
      rec.failed = rec.pairs;
      if (out.first_error.empty()) out.first_error = error.what();
    }
    inflight.pop_front();
    rec.in_window = out.t_stop == 0;
    if (rec.in_window && rec.ready_ns >= deadline) {
      out.t_stop = rec.ready_ns;
      out.cpu_s = cpu_seconds() - cpu0;
      submitting = false;
    }
    out.records.push_back(rec);
  }
  if (out.t_stop == 0) {
    out.t_stop = out.records.back().ready_ns;
    out.cpu_s = cpu_seconds() - cpu0;
  }
  return out;
}

// ------------------------------------------------------------- tracing ----

struct LayerReport {
  std::vector<Metric> metrics;
  double oracle_busy_s = 0, exec_s = 0, route_busy_s = 0, contact_busy_s = 0,
         hit_ratio = 0;
  std::vector<std::string> errors;
};

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length of the union of [start, end) intervals sorted by start.
std::int64_t union_length(const std::vector<Interval>& spans) {
  std::int64_t total = 0, lo = 0, hi = 0;
  for (const auto& [start, end] : spans) {
    if (start > hi) {
      total += hi - lo;
      lo = start;
      hi = end;
    } else {
      hi = std::max(hi, end);
    }
  }
  return total + (hi - lo);
}

/// a / b, or 0 when nothing was counted.
double per(double a, double b) { return b > 0 ? a / b : 0.0; }

/// The per-layer metrics of a drained traced phase, from the span store,
/// the cache's hit/miss deltas over the phase and the service's scrape.
LayerReport layer_metrics(const PhaseResult& phase, std::size_t hits,
                          std::size_t misses, std::size_t pool_width,
                          const obs::MetricsSnapshot& scrape) {
  LayerReport out;
  SpanStore& store = SpanStore::instance();
  const auto& waves = store.waves;
  if (waves.size() != phase.records.size()) {
    out.errors.push_back("traced phase saw " + std::to_string(waves.size()) +
                         " prefetch waves for " +
                         std::to_string(phase.records.size()) + " requests");
    return out;
  }
  std::vector<std::vector<Interval>> routes_of(waves.size());
  double routes = 0, hops = 0, contacts = 0;
  std::int64_t route_ns = 0, route_contact_ns = 0, contact_ns = 0;
  store.for_each_lane([&](const perfbench::LaneLog& lane) {
    contacts += static_cast<double>(lane.contacts);
    contact_ns += lane.contact_ns;
    for (const auto& span : lane.routes) {
      ++routes;
      hops += span.steps;
      route_ns += span.end_ns - span.start_ns;
      route_contact_ns += span.contact_ns;
      if (span.request < routes_of.size()) {
        routes_of[span.request].emplace_back(span.start_ns, span.end_ns);
      }
    }
  });

  std::vector<double> queue_ms, exec_ms, narrow_ms, hit_wave_us;
  std::int64_t wave_ns = 0, miss_wave_ns = 0, exec_ns = 0, residual_ns = 0;
  std::uint64_t targets = 0, wave_misses = 0, narrow = 0, pairs = 0;
  for (const RequestRecord& rec : phase.records) {
    const perfbench::WaveSpan& wave = waves[rec.seq];
    const std::int64_t wave_dur = wave.end_ns - wave.start_ns;
    const std::int64_t exec = rec.ready_ns - wave.start_ns;
    queue_ms.push_back(static_cast<double>(wave.start_ns - rec.submit_ns) *
                       1e-6);
    exec_ms.push_back(static_cast<double>(exec) * 1e-6);
    wave_ns += wave_dur;
    exec_ns += exec;
    targets += wave.targets;
    wave_misses += wave.misses;
    pairs += rec.pairs;
    if (wave.misses == 0) {
      hit_wave_us.push_back(static_cast<double>(wave_dur) * 1e-3);
    } else {
      miss_wave_ns += wave_dur;
      if (wave.misses < pool_width) {
        ++narrow;
        narrow_ms.push_back(static_cast<double>(wave_dur) * 1e-6);
      }
    }
    auto& spans = routes_of[rec.seq];
    std::sort(spans.begin(), spans.end());
    residual_ns += exec - wave_dur - union_length(spans);
  }
  const auto secs = [](std::int64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  };
  out.oracle_busy_s = secs(wave_ns);
  out.exec_s = secs(exec_ns);
  out.route_busy_s = secs(route_ns);
  out.contact_busy_s = secs(contact_ns);
  out.hit_ratio =
      per(static_cast<double>(hits), static_cast<double>(hits + misses));
  const double route_self_s = secs(route_ns - route_contact_ns);
  // One wave per request, so targets per wave is targets per request.
  const double targets_per_request =
      per(static_cast<double>(targets), static_cast<double>(waves.size()));

  if (wave_misses != misses) {
    out.errors.push_back("wave miss counts (" + std::to_string(wave_misses) +
                         ") disagree with the cache (" +
                         std::to_string(misses) + ")");
  }
  if (routes != static_cast<double>(pairs)) {
    out.errors.push_back("traced phase recorded " + exact_number(routes) +
                         " route calls for " + std::to_string(pairs) +
                         " pairs");
  }
  const auto* executed = scrape.find_counter("route_service.executed_batches");
  if (executed == nullptr || executed->value != phase.records.size()) {
    out.errors.push_back(
        "route_service.executed_batches disagrees with the requests completed");
  }
  const auto* service_exec = scrape.find_histogram("route_service.exec_ms");

  out.metrics = {
      {"graph.oracle_waves", static_cast<double>(waves.size()), "count"},
      {"graph.oracle_targets_per_wave", targets_per_request, "count"},
      {"graph.oracle_misses", static_cast<double>(misses), "count"},
      {"graph.oracle_hit_ratio", out.hit_ratio, "ratio"},
      {"graph.oracle_busy_s", out.oracle_busy_s, "s"},
      {"graph.oracle_ms_per_miss",
       per(secs(miss_wave_ns) * 1e3, static_cast<double>(misses)), "ms"},
      {"graph.oracle_narrow_waves", static_cast<double>(narrow), "count"},
      {"graph.oracle_narrow_wave_ms_p50", median(narrow_ms), "ms"},
      {"graph.oracle_hit_wave_us_p50", median(hit_wave_us), "us"},
      {"core.contacts", contacts, "count"},
      {"core.contact_busy_s", out.contact_busy_s, "s"},
      {"core.contact_us_mean", per(out.contact_busy_s * 1e6, contacts), "us"},
      {"routing.routes", routes, "count"},
      {"routing.hops", hops, "count"},
      {"routing.route_busy_s", out.route_busy_s, "s"},
      {"routing.route_self_s", route_self_s, "s"},
      {"routing.ns_per_hop", per(route_self_s * 1e9, hops), "ns"},
      {"api.queue_wait_ms_p50", quantile(queue_ms, 0.5), "ms"},
      {"api.queue_wait_ms_p99", quantile(queue_ms, 0.99), "ms"},
      {"api.exec_ms_p50", median(exec_ms), "ms"},
      {"api.service_exec_ms_mean",
       service_exec != nullptr ? service_exec->mean() : 0.0, "ms"},
      {"api.lane_busy_share",
       per(out.route_busy_s, out.exec_s * static_cast<double>(pool_width)),
       "ratio"},
      {"api.residual_share", per(secs(residual_ns), out.exec_s), "ratio"},
      {"workload.targets_per_request", targets_per_request, "count"},
  };
  return out;
}

/// Writes the traced phase as chrome://tracing JSON: one span per request
/// (driver), per prefetch wave (service thread) and per route call (lane).
void write_chrome_trace(const std::string& path, const PhaseResult& phase) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace output: " + path);
  const std::int64_t base = phase.t0;
  const auto us = [base](std::int64_t ns) {
    return exact_number(static_cast<double>(ns - base) * 1e-3);
  };
  bool first = true;
  const auto event = [&](const char* name, int tid, std::int64_t start,
                         std::int64_t end, std::uint64_t request) {
    out << (first ? "" : ",\n") << R"({"name":")" << name
        << R"(","ph":"X","pid":1,"tid":)" << tid << R"(,"ts":)" << us(start)
        << R"(,"dur":)" << exact_number(static_cast<double>(end - start) * 1e-3)
        << R"(,"args":{"request":)" << request << "}}";
    first = false;
  };
  out << "{\"traceEvents\":[\n";
  for (const auto& rec : phase.records) {
    event("request", 0, rec.submit_ns, rec.ready_ns, rec.seq);
  }
  SpanStore& store = SpanStore::instance();
  for (const auto& wave : store.waves) {
    event("prefetch_wave", 1, wave.start_ns, wave.end_ns, wave.request);
  }
  store.for_each_lane([&](const perfbench::LaneLog& lane) {
    for (const auto& span : lane.routes) {
      event("route", 2 + static_cast<int>(span.lane), span.start_ns,
            span.end_ns, span.request);
    }
  });
  out << "\n]}\n";
}

// ------------------------------------------------------------------ main ----

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  std::string flag = PERFBENCH_NAV_SANITIZE;
  std::transform(flag.begin(), flag.end(), flag.begin(), ::toupper);
  return !(flag.empty() || flag == "OFF" || flag == "0" || flag == "FALSE" ||
           flag == "NO");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string digest_file;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_spec_number<std::uint64_t>(value, flag);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = parse_spec_number<double>(value, flag);
      have_seconds = true;
    } else if (flag == "--trace") {
      NAV_REQUIRE(value == "0" || value == "1", "--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--digest-file") {
      args.digest_file = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  NAV_REQUIRE(have_workload && have_seed && have_seconds,
              "usage: perfbench_driver --workload <name> --seed <n> "
              "--seconds <s> --trace <0|1>");
  NAV_REQUIRE(args.seconds > 0, "--seconds must be > 0");
  return args;
}

/// The reference digest for (workload, seed), compared with the one a
/// previous run of the same binary stored; "" when there is no earlier run.
std::string previous_digest(const std::string& path, const std::string& line) {
  std::ifstream in(path);
  std::string stored;
  if (in && std::getline(in, stored)) return stored;
  std::ofstream out(path);
  if (out) out << line << "\n";
  return "";
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
         << exact_number(metrics[i].value) << ", \"unit\": \""
         << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

std::string phase_line(const char* label, const PhaseResult& phase) {
  const auto latency_ms = phase.latencies_ms();
  const auto [first_half, second_half] = phase.half_rates();
  std::ostringstream line;
  line << label << ": " << latency_ms.size() << " requests in "
       << phase.window_s() << " s, " << phase.pairs_per_s()
       << " pairs/s (first half " << first_half << ", second half "
       << second_half << "), latency p50 " << quantile(latency_ms, 0.5)
       << " ms p99 " << quantile(latency_ms, 0.99) << " ms over "
       << latency_ms.size() << " samples";
  return line.str();
}

int run(const Args& args) {
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) {
    std::cerr << "error: unknown workload " << args.workload << " (";
    for (const auto& w : kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << " )\n";
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || sanitized_build()) {
    std::cerr << "error: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build (NAV_SANITIZE=" << PERFBENCH_NAV_SANITIZE
              << "); configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "sanitizers\n";
    return 2;
  }
  const std::size_t pool_width = global_pool().thread_count();
  std::cout << "perfbench: workload " << def->name << " (" << def->family
            << " n=" << def->n << ", scheme " << def->scheme << ", demand "
            << def->demand << ", oracle " << def->oracle << ", "
            << def->pairs_per_request << " pairs/request, " << kInFlight
            << " in flight), seed " << args.seed << "\n"
            << "host: nproc " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", global_pool().thread_count() " << pool_width
            << ", compiler " << PERFBENCH_COMPILER << ", build "
            << PERFBENCH_BUILD_TYPE << ", NAV_TRACE " << NAV_TRACE
            << ", NAV_SANITIZE " << PERFBENCH_NAV_SANITIZE << "\n";

  // 1. Set-up, several times; the last stack serves the run.
  Pool pool;
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;
  bool ball_settled = true;
  double setup_total_s = 0;
  while (setups.size() < kMinSetups ||
         (setups.size() < kMaxSetups && setup_total_s < kSetupBudgetS)) {
    stack.reset();
    stack = build_stack(*def, setups.emplace_back(), pool, args.seed,
                        ball_settled);
    setup_total_s += setups.back().total_s;
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const auto& s : setups) values.push_back(s.*field);
    return median(values);
  };
  const double setup_s = setup_median(&SetupTimes::total_s);
  std::cout << "setup (median of " << setups.size() << "): " << setup_s
            << " s = graph " << setup_median(&SetupTimes::graph_s)
            << " + scheme " << setup_median(&SetupTimes::scheme_s)
            << " + oracle " << setup_median(&SetupTimes::oracle_s)
            << " + warm-up " << setup_median(&SetupTimes::warm_s) << "\n";
  std::vector<std::string> errors;
  if (!ball_settled) {
    errors.push_back("ball eccentricity bounds not learned by warm-up");
  }

  // 2. Reference pass: the first reference_requests requests, once.
  References refs;
  refs.digest.assign(pool.requests.size(), 0);
  refs.known.assign(pool.requests.size(), 0);
  const auto make_service = [&](const graph::DistanceOracle& oracle,
                                const core::AugmentationScheme* scheme,
                                const routing::Router& router) {
    return std::make_unique<api::RouteService>(*stack->graph, oracle, scheme,
                                               router,
                                               api::RouteServiceOptions{});
  };
  PhaseResult reference;
  {
    auto service =
        make_service(*stack->oracle, stack->scheme.get(), *stack->router);
    reference = run_phase(*service, pool, refs, def->reference_requests, 0);
  }
  std::uint64_t digest = kFnvOffset, ref_hops = 0, ref_pairs = 0;
  for (const auto& r : reference.records) {
    digest = fnv1a(digest, refs.digest[r.index]);
    ref_hops += r.hops;
    ref_pairs += r.pairs;
  }
  const double hops_mean =
      static_cast<double>(ref_hops) / static_cast<double>(ref_pairs);
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                static_cast<unsigned long long>(digest));
  std::cout << "reference: " << reference.records.size()
            << " requests, hop digest " << digest_hex << ", hops_mean "
            << hops_mean << "\n";
  if (!args.digest_file.empty()) {
    const std::string line = std::string(def->name) + " seed " +
                             std::to_string(args.seed) + " digest " +
                             digest_hex;
    const std::string stored = previous_digest(args.digest_file, line);
    if (!stored.empty() && stored != line) {
      errors.push_back("hop digest differs from an earlier run at this seed: " +
                       stored + " vs " + line);
    }
  }

  // 3. Untraced timed phase: all of --seconds, or the first half of it when
  // the traced phase takes the second.
  const double phase_s = args.trace ? args.seconds / 2 : args.seconds;
  prime_oracle(*stack, pool);
  PhaseResult plain;
  {
    auto service =
        make_service(*stack->oracle, stack->scheme.get(), *stack->router);
    plain = run_phase(*service, pool, refs, 0, phase_s);
  }
  std::cout << phase_line("untraced", plain) << "\n";

  // 4. Traced timed phase (--trace 1).
  std::vector<Metric> layers;
  PhaseResult traced;
  if (args.trace) {
    prime_oracle(*stack, pool);
    perfbench::TracedScheme scheme(*stack->scheme);
    perfbench::TracedOracle oracle(*stack->cache);
    perfbench::TracedRouter router(*stack->router);
    SpanStore::instance().clear();
    const std::size_t hits0 = stack->cache->hits();
    const std::size_t misses0 = stack->cache->misses();
    obs::MetricsSnapshot scrape;
    {
      auto service = make_service(oracle, &scheme, router);
      traced = run_phase(*service, pool, refs, 0, phase_s);
      scrape = service->metrics().scrape();
    }
    std::cout << phase_line("traced", traced) << "\n";
    LayerReport report = layer_metrics(traced, stack->cache->hits() - hits0,
                                       stack->cache->misses() - misses0,
                                       pool_width, scrape);
    errors.insert(errors.end(), report.errors.begin(), report.errors.end());
    // Layer-intent guard: the workload still loads the layer it was chosen
    // for. Traced runs on the 4-core reference host measured contact
    // sampling at 99% of route time, prefetch waves at ~100% of execution
    // and a hit ratio of 0.989; the thresholds say "most" and "0.95".
    switch (def->intent) {
      case Intent::kContactSampling:
        if (report.contact_busy_s < 0.5 * report.route_busy_s) {
          errors.push_back("layer guard: contact sampling is no longer most "
                           "of route time");
        }
        break;
      case Intent::kOracleMisses:
        if (report.oracle_busy_s < 0.5 * report.exec_s) {
          errors.push_back("layer guard: prefetch waves are no longer most "
                           "of execution time");
        }
        break;
      case Intent::kHitPath:
        if (report.hit_ratio < 0.95) {
          errors.push_back("layer guard: oracle hit ratio fell below 0.95");
        }
        break;
    }
    const auto [first_half, second_half] = plain.half_rates();
    layers = {
        {"graph.build_s", setup_median(&SetupTimes::graph_s), "s"},
        {"graph.oracle_build_s", setup_median(&SetupTimes::oracle_s), "s"},
        {"core.scheme_build_s", setup_median(&SetupTimes::scheme_s), "s"},
        {"api.warmup_s", setup_median(&SetupTimes::warm_s), "s"},
        {"api.pairs_per_s_first_half", first_half, "1/s"},
        {"api.pairs_per_s_second_half", second_half, "1/s"},
        {"workload.gen_us_per_pair", pool.gen_us_per_pair, "us"},
        {"trace.overhead", traced.pairs_per_s() / plain.pairs_per_s(), "ratio"},
    };
    layers.insert(layers.end(), report.metrics.begin(), report.metrics.end());
    for (const auto& m : layers) {
      std::cout << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
    }
    if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, traced);
  }

  // Correctness gate over every request routed in this run.
  std::size_t attempted = 0, failed = 0, unreached = 0, bad_routes = 0;
  for (const auto& r : plain.records) {
    if (!r.in_window) continue;
    attempted += r.pairs;
    failed += r.failed + r.unreached;
  }
  for (const auto* phase : {&reference, &plain, &traced}) {
    for (const auto& r : phase->records) {
      unreached += r.unreached;
      bad_routes += r.bad_routes;
    }
    if (!phase->first_error.empty()) errors.push_back(phase->first_error);
  }
  if (unreached > 0) {
    errors.push_back(std::to_string(unreached) +
                     " admitted routes did not reach their target");
  }
  if (bad_routes > 0) {
    errors.push_back(std::to_string(bad_routes) +
                     " routes outside 1 <= steps <= initial_distance");
  }
  if (refs.mismatches > 0) {
    errors.push_back(std::to_string(refs.mismatches) +
                     " requests routed with different hop counts than their "
                     "reference");
  }
  for (const auto& e : errors) std::cout << "error: " << e << "\n";

  if (!args.trace) {
    // failed_share is reported as its complement: an end-to-end metric must
    // never read 0, and a healthy run fails nothing.
    const double failed_share =
        static_cast<double>(failed) / static_cast<double>(attempted);
    std::cout << "failed_share " << failed_share << " (" << failed << " of "
              << attempted << " pairs)\n";
    const auto latency_ms = plain.latencies_ms();
    print_result(errors.empty(), attempted, failed,
                 {{"pairs_per_s", plain.pairs_per_s(), "1/s"},
                  {"latency_p50_ms", quantile(latency_ms, 0.5), "ms"},
                  {"latency_p99_ms", quantile(latency_ms, 0.99), "ms"},
                  {"hops_mean", hops_mean, "hops"},
                  {"served_share", 1.0 - failed_share, "ratio"},
                  {"setup_s", setup_s, "s"},
                  {"cpu_us_per_pair",
                   plain.cpu_s * 1e6 / static_cast<double>(attempted), "us"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}});
  } else {
    print_result(errors.empty(), attempted, failed, layers);
  }
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed threshold (which also turns off glibc's adaptive one) maps every
  // large block, such as the oracle's row slabs, on its own and returns it
  // to the system when freed. Otherwise whether a slab freed by one set-up
  // is reused by the next depends on which thread's malloc arena got it,
  // and peak_rss_mb wanders by a third from run to run.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 2;
  }
}
