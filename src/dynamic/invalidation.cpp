#include "dynamic/invalidation.hpp"

#include <algorithm>

#include "graph/oracle_factory.hpp"
#include "obs/metrics.hpp"
#include "runtime/assert.hpp"

namespace nav::dynamic {

namespace {

// Registry mirrors of InvalidationStats. The struct stays the per-oracle
// source of truth (and the bench's acceptance surface); these counters fold
// every DynamicOracle in the process into one scrape.
struct DynMetrics {
  obs::Counter mutations;
  obs::Counter events;
  obs::Counter scanned;
  obs::Counter invalidated;
  obs::Counter retained;
  obs::Counter rebuilt;
  obs::Counter full_flushes;
  obs::Counter wrap_flushes;

  DynMetrics()
      : mutations(
            obs::default_registry().counter("dynamic_oracle.mutations_seen")),
        events(obs::default_registry().counter("dynamic_oracle.events_seen")),
        scanned(
            obs::default_registry().counter("dynamic_oracle.targets_scanned")),
        invalidated(obs::default_registry().counter(
            "dynamic_oracle.targets_invalidated")),
        retained(obs::default_registry().counter(
            "dynamic_oracle.targets_retained")),
        rebuilt(obs::default_registry().counter("dynamic_oracle.rows_rebuilt")),
        full_flushes(
            obs::default_registry().counter("dynamic_oracle.full_flushes")),
        wrap_flushes(
            obs::default_registry().counter("dynamic_oracle.wrap_flushes")) {}
};

DynMetrics& dyn_metrics() {
  static DynMetrics* m = new DynMetrics();
  return *m;
}

// Posts the InvalidationStats delta accumulated during one on_mutation to
// the registry on scope exit — one place instead of thirteen increment
// sites, and it covers every early-return path.
class ScopedStatsMirror {
 public:
  explicit ScopedStatsMirror(const InvalidationStats& live)
      : live_(live), before_(live) {}

  ~ScopedStatsMirror() {
    DynMetrics& m = dyn_metrics();
    post(m.mutations, live_.mutations_seen, before_.mutations_seen);
    post(m.events, live_.events_seen, before_.events_seen);
    post(m.scanned, live_.targets_scanned, before_.targets_scanned);
    post(m.invalidated, live_.targets_invalidated,
         before_.targets_invalidated);
    post(m.retained, live_.targets_retained, before_.targets_retained);
    post(m.rebuilt, live_.rows_rebuilt, before_.rows_rebuilt);
    post(m.full_flushes, live_.full_flushes, before_.full_flushes);
    post(m.wrap_flushes, live_.wrap_flushes, before_.wrap_flushes);
  }

  ScopedStatsMirror(const ScopedStatsMirror&) = delete;
  ScopedStatsMirror& operator=(const ScopedStatsMirror&) = delete;

 private:
  static void post(obs::Counter& c, std::uint64_t now, std::uint64_t then) {
    if (now > then) c.inc(now - then);
  }

  const InvalidationStats& live_;
  InvalidationStats before_;
};

// The make_oracle spec of each backend choice: u32 rows, default cache slots.
const char* backend_spec(DynamicOracle::Backend backend) {
  switch (backend) {
    case DynamicOracle::Backend::kCache: return "cache";
    case DynamicOracle::Backend::kMatrix: return "matrix";
    case DynamicOracle::Backend::kAuto: break;
  }
  return "auto";
}

}  // namespace

DynamicOracle::DynamicOracle(DynamicGraph& g, Options options)
    : graph_(g),
      options_(options),
      backend_(graph::make_oracle(backend_spec(options.backend), g.graph())),
      matrix_(dynamic_cast<graph::DistanceMatrix*>(backend_.get())),
      cache_(dynamic_cast<graph::TargetDistanceCache*>(backend_.get())) {
  NAV_ASSERT((matrix_ != nullptr) != (cache_ != nullptr));
  if (matrix_ != nullptr) {
    // Every row is resident and exact at generation 0.
    const graph::NodeId n = g.graph().num_nodes();
    stamps_.reserve(n);
    for (graph::NodeId t = 0; t < n; ++t) stamps_.emplace(t, watermark_);
  }
  graph_.subscribe(*this);
}

DynamicOracle::~DynamicOracle() { graph_.unsubscribe(*this); }

Dist DynamicOracle::distance(graph::NodeId u, graph::NodeId target) const {
  return (*distances_to(target))[u];
}

void DynamicOracle::stamp_validated(graph::NodeId target) const {
  std::lock_guard lock(mutex_);
  const auto [it, inserted] = stamps_.try_emplace(target, watermark_);
  // A pre-existing stamp must agree with the watermark: rows validated
  // before the last mutation were either retained (re-stamped) or erased,
  // so a stale stamp here means the invalidation scan missed a row.
  NAV_ASSERT(inserted || it->second == watermark_);
}

DistVecPtr DynamicOracle::distances_to(graph::NodeId target) const {
  DistVecPtr row = backend_->distances_to(target);
  stamp_validated(target);
  return row;
}

void DynamicOracle::prefetch_into(std::span<const graph::NodeId> targets,
                                  std::vector<DistVecPtr>& out) const {
  backend_->prefetch_into(targets, out);
  for (const graph::NodeId t : targets) stamp_validated(t);
}

bool DynamicOracle::event_affects_row(const EdgeMutation& event,
                                      const graph::DistRow& row) {
  const Dist du = row[event.u];
  const Dist dv = row[event.v];
  const Dist delta = std::max(du, dv) - std::min(du, dv);
  // Remove: only shortest-path-DAG edges (adjacent levels) matter.
  // Add: only level-skipping shortcuts matter. row[] decodes a narrow
  // sentinel to kInfDist first, so unreachable endpoints resolve correctly
  // through the unsigned max-min at every width (see header comment).
  return event.op == EdgeMutation::Op::kRemoveEdge ? delta == 1 : delta >= 2;
}

void DynamicOracle::flush(const DynamicGraph& g) {
  // Callers hold mutex_.
  stamps_.clear();
  if (matrix_ != nullptr) {
    const graph::NodeId n = g.graph().num_nodes();
    matrix_->rebuild_all(g.graph());
    stats_.rows_rebuilt += n;
    for (graph::NodeId t = 0; t < n; ++t) stamps_.emplace(t, watermark_);
  } else {
    cache_->clear();
  }
}

void DynamicOracle::on_mutation(const DynamicGraph& g,
                                const MutationDelta& delta) {
  std::lock_guard lock(mutex_);
  const ScopedStatsMirror mirror(stats_);
  ++stats_.mutations_seen;
  stats_.events_seen += delta.events.size();
  ++watermark_;  // uint16: wraps every 65536 effective mutations

  if (watermark_ == 0) {
    // Wraparound: one defensive flush, mirroring BfsWorkspace's re-zero —
    // no stamp from generation 0 of the previous era can alias the new one.
    ++stats_.wrap_flushes;
    flush(g);
    return;
  }

  if (options_.mode == Mode::kFullFlush) {
    ++stats_.full_flushes;
    const std::uint64_t residents =
        matrix_ != nullptr
            ? static_cast<std::uint64_t>(g.graph().num_nodes())
            : static_cast<std::uint64_t>(cache_->resident_targets().size());
    stats_.targets_scanned += residents;
    stats_.targets_invalidated += residents;
    flush(g);
    return;
  }

  if (matrix_ != nullptr) {
    const graph::NodeId n = g.graph().num_nodes();
    std::vector<graph::NodeId> affected;
    for (graph::NodeId t = 0; t < n; ++t) {
      const DistVecPtr row = matrix_->distances_to(t);
      bool hit = false;
      for (const EdgeMutation& event : delta.events) {
        if (event_affects_row(event, *row)) {
          hit = true;
          break;
        }
      }
      if (hit) affected.push_back(t);
    }
    matrix_->rebuild_rows(g.graph(), affected);
    stats_.targets_scanned += n;
    stats_.targets_invalidated += affected.size();
    stats_.targets_retained += n - affected.size();
    stats_.rows_rebuilt += affected.size();
    // Repaired and retained rows alike are exact at the new generation.
    stamps_.clear();
    for (graph::NodeId t = 0; t < n; ++t) stamps_.emplace(t, watermark_);
    return;
  }

  const std::vector<graph::NodeId> residents = cache_->resident_targets();
  std::unordered_map<graph::NodeId, std::uint16_t> retained_stamps;
  retained_stamps.reserve(residents.size());
  for (const graph::NodeId t : residents) {
    const DistVecPtr row = cache_->peek(t);
    NAV_ASSERT(row != nullptr);
    bool hit = false;
    for (const EdgeMutation& event : delta.events) {
      if (event_affects_row(event, *row)) {
        hit = true;
        break;
      }
    }
    if (hit) {
      cache_->erase(t);  // lazily recomputed against the mutated CSR
      ++stats_.targets_invalidated;
    } else {
      retained_stamps.emplace(t, watermark_);
      ++stats_.targets_retained;
    }
  }
  stats_.targets_scanned += residents.size();
  // Rebuild rather than patch: targets evicted by LRU pressure since the
  // last mutation must not keep stale stamps (their next query recomputes
  // fresh rows that are valid at the current generation).
  stamps_ = std::move(retained_stamps);
}

InvalidationStats DynamicOracle::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::uint16_t DynamicOracle::watermark() const {
  std::lock_guard lock(mutex_);
  return watermark_;
}

}  // namespace nav::dynamic
