// metrics.hpp — the zero-overhead metrics registry.
//
// The serving stack needs live, structured counters without taxing the hot
// paths that produce them: a route hit, a warm prefetch wave, or a BFS sweep
// must not pay a lock — or, worse, an allocation — to be observable. The
// registry splits the cost asymmetrically, the same way runtime/scratch_pool
// splits workspace reuse:
//
//   * registration (counter() / gauge() / histogram()) is the cold side:
//     mutex-protected, allocating, deduplicating by name — call it once at
//     construction time and keep the returned handle;
//
//   * increments are the hot side: each thread owns a private shard of
//     plain 64-bit cells, and an increment is a relaxed load + relaxed store
//     on the calling thread's own cell — WAIT-FREE (no CAS, no retry loop:
//     the owning thread is the only writer) and ZERO-ALLOCATION once the
//     thread's shard exists (it is created on the thread's first increment
//     against the registry, the one exempt moment — the same warm-up
//     contract as BfsWorkspace). The counting-allocator suite and a TSan
//     test pin both properties;
//
//   * aggregation happens only on scrape(): the registry walks every shard
//     (live threads', outgrown and exited threads' — shards are grow-only
//     and never discarded, so counts are monotone and exact) and sums cells
//     into a MetricsSnapshot.
//
// Gauges are the exception to sharding: a gauge is one shared atomic cell
// (set/add/sub are single atomic ops — a live queue depth has one logical
// value, and summing per-thread deltas would make set() meaningless).
//
// Histograms are fixed-bin (lo, hi, bins — the runtime/stats.hpp Histogram
// shape): each shard holds the bin counters plus underflow/overflow and a
// value sum, and the snapshot's HistogramValue offers the same
// interpolated percentile() the streaming Histogram does.
//
// Exact totals under concurrency: writers use relaxed atomics on private
// cells, so a scrape racing an increment may miss the very latest bump —
// but any synchronisation between writer and scraper (a mutex both sides
// hold, a joined thread) makes the sums exact. RouteService exploits this:
// its counters are written under its queue mutex, so queue_stats() reads
// are bit-identical to the pre-registry struct counters.
//
// Handles are trivially copyable POD-ish values; a default-constructed
// handle is a no-op (lets instrumentation be optional without branching on
// registry presence at every call site). Handles must not outlive their
// Registry. default_registry() is the process-wide instance (never
// destroyed) that library-level instrumentation — BFS engine, distance
// oracles — records into.
#pragma once

/// \file
/// \brief obs::Registry: wait-free per-thread-sharded counters, gauges, and
/// fixed-bin histograms, aggregated on scrape() into a MetricsSnapshot with
/// Prometheus text and JSON writers.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace nav::obs {

namespace detail {
struct RegistryState;
struct Shard;
/// Resolves the calling thread's shard cell (attaching / growing the shard
/// on first touch — the only allocating path).
[[nodiscard]] std::atomic<std::uint64_t>& cell_for(
    const std::shared_ptr<RegistryState>& state, std::uint32_t cell);
/// Aggregated value of one cell across every shard (locks the registry).
[[nodiscard]] std::uint64_t cell_sum(const RegistryState& state,
                                     std::uint32_t cell);
}  // namespace detail

/// Monotone event counter. Hot path: wait-free, zero-allocation once the
/// calling thread's shard exists.
class Counter {
 public:
  /// No-op handle (instrumentation disabled).
  Counter() = default;

  /// Adds `n` to the calling thread's cell.
  void inc(std::uint64_t n = 1) const {
    if (state_ == nullptr) return;
    auto& cell = detail::cell_for(state_, cell_);
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }

  /// Aggregate value across every thread's shard (locks the registry; exact
  /// when writers are quiesced or synchronised with the caller).
  [[nodiscard]] std::uint64_t value() const {
    return state_ ? detail::cell_sum(*state_, cell_) : 0;
  }

 private:
  friend class Registry;
  Counter(std::shared_ptr<detail::RegistryState> state, std::uint32_t cell)
      : state_(std::move(state)), cell_(cell) {}

  std::shared_ptr<detail::RegistryState> state_;
  std::uint32_t cell_ = 0;
};

/// Instantaneous signed value (queue depth, resident entries). One shared
/// atomic cell: set/add/sub are single wait-free atomic ops from any thread.
class Gauge {
 public:
  /// No-op handle (instrumentation disabled).
  Gauge() = default;

  void set(std::int64_t v) const noexcept {
    if (cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) const noexcept {
    if (cell_) cell_->fetch_add(d, std::memory_order_relaxed);
  }
  void sub(std::int64_t d) const noexcept { add(-d); }

  /// Raises the gauge to `v` if above the current value (high-water marks).
  /// Lock-free CAS loop; call sites that already serialise writers (e.g.
  /// under their own mutex) never retry.
  void set_max(std::int64_t v) const noexcept {
    if (cell_ == nullptr) return;
    std::int64_t cur = cell_->load(std::memory_order_relaxed);
    while (cur < v && !cell_->compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::int64_t value() const noexcept {
    return cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  Gauge(std::shared_ptr<detail::RegistryState> state,
        std::atomic<std::int64_t>* cell)
      : state_(std::move(state)), cell_(cell) {}

  std::shared_ptr<detail::RegistryState> state_;  // keeps the cell alive
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Fixed-bin histogram over [lo, hi) with underflow/overflow counters and a
/// value sum — the sharded sibling of nav::Histogram. observe() is wait-free
/// and zero-allocation once the thread's shard exists.
class HistogramHandle {
 public:
  /// No-op handle (instrumentation disabled).
  HistogramHandle() = default;

  /// Records one sample into the calling thread's shard.
  void observe(double x) const;

 private:
  friend class Registry;
  HistogramHandle(std::shared_ptr<detail::RegistryState> state,
                  std::uint32_t base, double lo, double hi, std::uint32_t bins)
      : state_(std::move(state)), base_(base), lo_(lo), hi_(hi), bins_(bins) {}

  std::shared_ptr<detail::RegistryState> state_;
  std::uint32_t base_ = 0;  // cells: bins | underflow | overflow | sum bits
  double lo_ = 0.0, hi_ = 1.0;
  std::uint32_t bins_ = 0;
};

/// Point-in-time aggregation of a registry: everything scrape() saw, in
/// registration order (deterministic output for goldens and diffs).
struct MetricsSnapshot {
  /// One counter's aggregated value.
  struct CounterValue {
    std::string name;          ///< registered name
    std::uint64_t value = 0;   ///< sum across all shards
  };
  /// One gauge's current value.
  struct GaugeValue {
    std::string name;          ///< registered name
    std::int64_t value = 0;    ///< the shared cell
  };
  /// One histogram's aggregated bins.
  struct HistogramValue {
    std::string name;          ///< registered name
    double lo = 0.0;           ///< range start (inclusive)
    double hi = 1.0;           ///< range end (exclusive)
    std::vector<std::uint64_t> counts;  ///< per-bin counts
    std::uint64_t underflow = 0;        ///< samples below lo
    std::uint64_t overflow = 0;         ///< samples at or above hi
    double sum = 0.0;                   ///< sum of observed values

    /// Total samples (bins + underflow + overflow).
    [[nodiscard]] std::uint64_t total() const noexcept;
    /// Mean of observed values (0 when empty).
    [[nodiscard]] double mean() const noexcept;
    /// Interpolated percentile from the binned counts, mirroring
    /// nav::Histogram::percentile: underflow resolves to lo, overflow to hi,
    /// `q` in [0, 1]. Returns lo on an empty histogram (a snapshot is a
    /// report, not a precondition site).
    [[nodiscard]] double percentile(double q) const;
  };

  std::vector<CounterValue> counters;      ///< registration order
  std::vector<GaugeValue> gauges;          ///< registration order
  std::vector<HistogramValue> histograms;  ///< registration order

  /// Lookup by registered name; nullptr when absent.
  [[nodiscard]] const CounterValue* find_counter(const std::string& name) const;
  [[nodiscard]] const GaugeValue* find_gauge(const std::string& name) const;
  [[nodiscard]] const HistogramValue* find_histogram(
      const std::string& name) const;
};

/// The registry: cold-side registration and scrape over hot-side sharded
/// cells. Movable, not copyable (copies would silently alias cells).
class Registry {
 public:
  Registry();
  Registry(Registry&&) noexcept = default;
  Registry& operator=(Registry&&) noexcept = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers (or re-fetches) a counter. Registering an existing name
  /// returns a handle to the same cell; a name already registered as a
  /// different metric kind throws std::invalid_argument.
  [[nodiscard]] Counter counter(const std::string& name);

  /// Registers (or re-fetches) a gauge.
  [[nodiscard]] Gauge gauge(const std::string& name);

  /// Registers (or re-fetches) a fixed-bin histogram over [lo, hi). A
  /// re-fetch with a different (lo, hi, bins) shape throws.
  [[nodiscard]] HistogramHandle histogram(const std::string& name, double lo,
                                          double hi, std::size_t bins);

  /// Aggregates every metric across every shard into a snapshot.
  [[nodiscard]] MetricsSnapshot scrape() const;

  /// Registered metrics (counters + gauges + histograms).
  [[nodiscard]] std::size_t metric_count() const;

 private:
  std::shared_ptr<detail::RegistryState> state_;
};

/// The process-wide registry library-level instrumentation records into
/// (BFS engine sweep kinds, oracle hit/miss).
/// Never destroyed, so handles and thread shards stay valid through exit.
[[nodiscard]] Registry& default_registry();

/// Writes the snapshot in Prometheus text exposition format: metric names
/// are prefixed "nav_" and sanitised ('.' and other non-identifier bytes
/// become '_'); histograms emit cumulative _bucket{le=...} series plus
/// _sum and _count, with underflow folded into the first bucket.
void write_prometheus(const MetricsSnapshot& snapshot, std::ostream& out);

/// Writes the snapshot as one JSON object {"counters": {...}, "gauges":
/// {...}, "histograms": {...}} — the embeddable form (bench cells, traces).
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);

}  // namespace nav::obs
