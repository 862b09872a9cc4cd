#include "graph/bfs_engine.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>

#include "obs/metrics.hpp"
#include "runtime/scratch_pool.hpp"

namespace nav::graph {

namespace {

// Process-wide sweep instrumentation. Handles are registered once; every
// increment afterwards is a wait-free store into the calling thread's shard.
struct BfsMetrics {
  obs::Counter sweep_diropt;
  obs::Counter sweep_scalar_full;

  BfsMetrics()
      : sweep_diropt(obs::default_registry().counter("bfs.sweep_diropt")),
        sweep_scalar_full(
            obs::default_registry().counter("bfs.sweep_scalar_full")) {}
};

BfsMetrics& bfs_metrics() {
  static BfsMetrics* m = new BfsMetrics();
  return *m;
}

// Beamer switching thresholds: go bottom-up when the frontier's out-edges
// exceed unexplored/kAlpha, back to top-down when the frontier shrinks under
// n/kBeta. Pure heuristics — distances are level-synchronous and identical
// under any schedule.
constexpr std::uint64_t kAlpha = 15;
constexpr std::uint64_t kBeta = 18;

// Below these sizes the bitmap bookkeeping outweighs any bottom-up win.
constexpr std::size_t kDiroptMinNodes = 1024;
constexpr std::uint64_t kDiroptMinDirectedEdges = 4096;

// Neighbours a bottom-up scan probes per branch: their frontier bits are
// OR-ed together, so a dense node pays one branch per block, not per edge.
constexpr std::size_t kProbeBlock = 8;

inline void set_bit(std::vector<std::uint64_t>& bits, NodeId v) {
  bits[v >> 6] |= std::uint64_t{1} << (v & 63);
}

inline std::uint64_t bit_of(const std::uint64_t* bits, NodeId v) {
  return bits[v >> 6] >> (v & 63);
}

/// True iff some neighbour is set in the frontier bitmap.
bool touches_frontier(std::span<const NodeId> nbrs,
                      const std::uint64_t* front) {
  const NodeId* p = nbrs.data();
  const std::size_t degree = nbrs.size();
  std::size_t i = 0;
  for (; i + kProbeBlock <= degree; i += kProbeBlock) {
    std::uint64_t any = 0;
    for (std::size_t j = 0; j < kProbeBlock; ++j) {
      any |= bit_of(front, p[i + j]);
    }
    if (any & 1u) return true;
  }
  for (; i < degree; ++i) {
    if (bit_of(front, p[i]) & 1u) return true;
  }
  return false;
}

/// Saturation probe for a row that holds every distance up to top: some
/// reachable node lies beyond iff a node at top has an unreached neighbour.
template <typename T>
bool reaches_past(const Graph& g, const T* dist, T top) {
  constexpr T kInf = std::numeric_limits<T>::max();
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (dist[u] != top) continue;
    for (const NodeId v : g.neighbors(u)) {
      if (dist[v] == kInf) return true;
    }
  }
  return false;
}

}  // namespace

void BfsWorkspace::prepare(std::size_t n) {
  if (stamp_.size() < n) {
    stamp_.assign(n, 0);
    if (!mark_stamp_.empty()) mark_stamp_.assign(n, 0);
    epoch_ = 0;
  }
  if (++epoch_ == 0) {
    // 16-bit generation counter wrapped: stale stamps from 65535 epochs ago
    // could collide, so pay one full clear and restart at 1 (0 is reserved
    // as "never stamped"). Amortised cost: O(n / 65535) per prepare.
    std::fill(stamp_.begin(), stamp_.end(), std::uint16_t{0});
    std::fill(mark_stamp_.begin(), mark_stamp_.end(), std::uint16_t{0});
    epoch_ = 1;
  }
  queue_.clear();
}

void BfsWorkspace::mark(NodeId v) {
  if (mark_stamp_.size() < stamp_.size()) mark_stamp_.resize(stamp_.size(), 0);
  mark_stamp_[v] = epoch_;
}

void BfsWorkspace::count_sweep(SweepKind kind) {
  last_sweep_kind_ = kind;
  ++sweep_tally_[static_cast<std::size_t>(kind)];
  if (kind == SweepKind::kDirectionOptimizing) {
    bfs_metrics().sweep_diropt.inc();
  } else {
    bfs_metrics().sweep_scalar_full.inc();
  }
}

void BfsWorkspace::ensure_bitmaps(std::size_t words) {
  if (front_bits_.size() < words) {
    front_bits_.resize(words);
    next_bits_.resize(words);
    visited_bits_.resize(words);
  }
}

template <typename T>
bool BfsWorkspace::row_into(const Graph& g, NodeId source, std::span<T> out) {
  static_assert(std::is_same_v<T, std::uint8_t> ||
                std::is_same_v<T, std::uint16_t> || std::is_same_v<T, Dist>);
  constexpr T kInf = std::numeric_limits<T>::max();  // the width's sentinel
  constexpr T kTop = kInf - 1;                       // max_finite(width)
  const std::size_t n = g.num_nodes();
  NAV_REQUIRE(source < n, "BFS source out of range");
  NAV_REQUIRE(out.size() == n, "distance output size mismatch");
  const bool diropt =
      n >= kDiroptMinNodes && 2 * g.num_edges() >= kDiroptMinDirectedEdges;
  count_sweep(diropt ? SweepKind::kDirectionOptimizing
                     : SweepKind::kScalarFull);
  last_flips_ = 0;
  last_bottom_up_levels_ = 0;

  T* const dist = out.data();
  std::fill(out.begin(), out.end(), kInf);
  if (row_queue_.size() < n) row_queue_.resize(n);
  NodeId* const queue = row_queue_.data();
  dist[source] = 0;
  queue[0] = source;
  std::size_t level_begin = 0;  // top-down frontier = queue[level_begin..tail)
  std::size_t tail = 1;

  const std::size_t words = (n + 63) / 64;
  // Bits >= n never enter the frontier; mask them out of "unvisited".
  const std::uint64_t tail_mask =
      (n % 64) ? ((std::uint64_t{1} << (n % 64)) - 1) : ~std::uint64_t{0};
  const std::uint64_t total_edges = 2 * g.num_edges();
  const std::uint64_t max_degree = g.max_degree();

  // Beamer's switch state. Until the first flip (!tracking) the queue holds
  // every visited node in level order, so the edge sums are recoverable
  // from it on demand: summed_edges = sum of degrees over queue[0..summed).
  // From the first flip on, the visited bitmap exists and both sums are
  // tracked per level.
  bool tracking = false;
  bool bottom_up = false;
  bool growing = true;  // frontier larger than its predecessor?
  std::size_t summed = 0;
  std::uint64_t summed_edges = 0;
  std::uint64_t unexplored = total_edges;
  std::uint64_t frontier_edges = 0;
  std::size_t frontier_count = 1;
  Dist depth = 0;

  // Beamer's flip test: frontier_edges > unexplored / kAlpha.
  const auto flip_due = [&] {
    if (tracking) return frontier_edges > unexplored / kAlpha;
    // A frontier of c nodes has at most c * max_degree out-edges, and at
    // least total - level_begin * max_degree edges are unexplored: while
    // that bound fails the test, no degree is read.
    const std::uint64_t explored_bound =
        std::min<std::uint64_t>(total_edges, level_begin * max_degree);
    if (frontier_count * max_degree <=
        (total_edges - explored_bound) / kAlpha) {
      return false;
    }
    for (; summed < level_begin; ++summed) {
      summed_edges += g.degree(queue[summed]);
    }
    unexplored = total_edges - summed_edges;
    frontier_edges = 0;
    for (; summed < tail; ++summed) frontier_edges += g.degree(queue[summed]);
    summed_edges += frontier_edges;
    return frontier_edges > unexplored / kAlpha;
  };

  while (frontier_count > 0) {
    if (depth == kTop) return reaches_past(g, dist, kTop);
    const T next_dist = static_cast<T>(depth + 1);
    // Beamer's switch gate needs both conditions: a frontier rich in
    // out-edges AND still growing. Past the sweep's midpoint frontiers
    // shrink while unexplored edges run out, and flipping there would make
    // every tail level scan all remaining unvisited nodes fruitlessly.
    if (diropt && !bottom_up && growing && flip_due()) {
      ensure_bitmaps(words);
      if (!tracking) {
        // First flip: the queue holds exactly the visited set.
        std::fill(visited_bits_.begin(), visited_bits_.begin() + words, 0u);
        for (std::size_t i = 0; i < tail; ++i) set_bit(visited_bits_, queue[i]);
        tracking = true;
      }
      std::fill(front_bits_.begin(), front_bits_.begin() + words, 0u);
      for (std::size_t i = level_begin; i < tail; ++i) {
        set_bit(front_bits_, queue[i]);
      }
      bottom_up = true;
      ++last_flips_;
    }

    std::size_t next_count = 0;
    std::uint64_t next_edges = 0;
    if (bottom_up) {
      // Bottom-up level: every unvisited node probes its own neighbours for
      // a frontier member and stops at the first hit.
      ++last_bottom_up_levels_;
      std::fill(next_bits_.begin(), next_bits_.begin() + words, 0u);
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t unvisited = ~visited_bits_[w];
        if (w == words - 1) unvisited &= tail_mask;
        while (unvisited != 0) {
          const auto bit = static_cast<unsigned>(std::countr_zero(unvisited));
          unvisited &= unvisited - 1;
          const auto v = static_cast<NodeId>(w * 64 + bit);
          const auto nbrs = g.neighbors(v);
          if (touches_frontier(nbrs, front_bits_.data())) {
            dist[v] = next_dist;
            set_bit(next_bits_, v);
            ++next_count;
            next_edges += nbrs.size();
          }
        }
      }
      // Newly found nodes enter visited after the scan (a level must not see
      // its own members as frontier candidates' "visited").
      for (std::size_t w = 0; w < words; ++w) visited_bits_[w] |= next_bits_[w];
      std::swap(front_bits_, next_bits_);
    } else {
      // Top-down level. Before the first flip the row is the only visited
      // set; after it the bitmap and the edge sums are kept up to date.
      const std::size_t level_end = tail;
      for (std::size_t i = level_begin; i < level_end; ++i) {
        for (const NodeId v : g.neighbors(queue[i])) {
          if (dist[v] == kInf) {
            dist[v] = next_dist;
            queue[tail++] = v;
            if (tracking) {
              set_bit(visited_bits_, v);
              next_edges += g.degree(v);
            }
          }
        }
      }
      level_begin = level_end;
      next_count = tail - level_end;
    }

    if (tracking) {
      unexplored -= std::min<std::uint64_t>(unexplored, frontier_edges);
      frontier_edges = next_edges;
    }
    growing = next_count > frontier_count;
    frontier_count = next_count;
    ++depth;
    if (bottom_up && frontier_count > 0 && !growing &&
        frontier_count < n / kBeta) {
      // Flip back: rebuild the queue from the frontier bitmap.
      tail = 0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = front_bits_[w];
        while (bits != 0) {
          const auto bit = static_cast<unsigned>(std::countr_zero(bits));
          bits &= bits - 1;
          queue[tail++] = static_cast<NodeId>(w * 64 + bit);
        }
      }
      level_begin = 0;
      bottom_up = false;
    }
  }
  return false;
}

template bool BfsWorkspace::row_into(const Graph&, NodeId,
                                     std::span<std::uint8_t>);
template bool BfsWorkspace::row_into(const Graph&, NodeId,
                                     std::span<std::uint16_t>);
template bool BfsWorkspace::row_into(const Graph&, NodeId, std::span<Dist>);

bool BfsWorkspace::row_into(const Graph& g, NodeId source, DistWidth width,
                            std::uint8_t* dst) {
  const std::size_t n = g.num_nodes();
  switch (width) {
    case DistWidth::kU8:
      return row_into(g, source, std::span<std::uint8_t>{dst, n});
    case DistWidth::kU16:
      return row_into(
          g, source,
          std::span<std::uint16_t>{reinterpret_cast<std::uint16_t*>(dst), n});
    default:
      return row_into(g, source,
                      std::span<Dist>{reinterpret_cast<Dist*>(dst), n});
  }
}

BfsWorkspace::BallView BfsWorkspace::ball(const Graph& g, NodeId center,
                                          Dist radius,
                                          std::size_t max_members) {
  NAV_REQUIRE(center < g.num_nodes(), "ball center out of range");
  const std::size_t n = g.num_nodes();
  prepare(n);
  try_visit(center);
  queue_.push_back(center);
  std::size_t head = 0;
  std::size_t level_end = 1;
  Dist depth = 0;
  BallView view;
  // Tested first so uncapped balls skip the per-node size check.
  const bool capped = max_members != kAllMembers;
  while (head < queue_.size() && depth < radius) {
    while (head < level_end && !(capped && queue_.size() >= max_members)) {
      const NodeId u = queue_[head++];
      for (const NodeId v : g.neighbors(u)) {
        if (try_visit(v)) queue_.push_back(v);
      }
    }
    if (head < level_end) break;  // max_members reached mid-level
    ++depth;
    level_end = queue_.size();
    if (std::has_single_bit(depth)) {
      view.pow2_sizes[std::countr_zero(depth)] =
          static_cast<std::uint32_t>(level_end);
    }
    if (level_end == n) {
      // The ball swallowed the graph: no later level can add members, and
      // depth is an eccentricity upper bound for the center.
      view.whole_graph = true;
      view.exhausted_depth = depth;
      break;
    }
  }
  if (view.whole_graph || head == queue_.size()) {
    // The ball stopped growing (it holds the graph or center's whole
    // component): every larger depth has the same members.
    for (auto j = static_cast<std::size_t>(std::bit_width(depth));
         j < view.pow2_sizes.size(); ++j) {
      view.pow2_sizes[j] = static_cast<std::uint32_t>(queue_.size());
    }
  }
  view.order = {queue_.data(), queue_.size()};
  return view;
}

FarthestResult BfsWorkspace::farthest(const Graph& g, NodeId source) {
  NAV_REQUIRE(source < g.num_nodes(), "BFS source out of range");
  prepare(g.num_nodes());
  try_visit(source);
  queue_.push_back(source);
  std::size_t head = 0;
  std::size_t level_end = 1;
  std::size_t level_begin = 0;
  Dist ecc = 0;
  while (head < queue_.size()) {
    while (head < level_end) {
      const NodeId u = queue_[head++];
      for (const NodeId v : g.neighbors(u)) {
        if (try_visit(v)) queue_.push_back(v);
      }
    }
    if (queue_.size() > level_end) {
      ++ecc;
      level_begin = level_end;  // the new last level starts here
    }
    level_end = queue_.size();
  }
  // queue_[level_begin..end) holds exactly the nodes at distance ecc;
  // smallest id among them matches the reference's ascending-id scan.
  NodeId best = queue_[level_begin];
  for (std::size_t i = level_begin + 1; i < queue_.size(); ++i) {
    best = std::min(best, queue_[i]);
  }
  return {best, ecc};
}

BfsWorkspace& local_bfs_workspace() {
  return nav::thread_scratch<BfsWorkspace>();
}

}  // namespace nav::graph
