// Zero-allocation contracts, proven with a counting allocator. This suite
// lives in its own binary: NAV_DEFINE_ALLOC_COUNTER() replaces ::operator
// new process-wide, which is a per-program decision.
//
// Measurement discipline: warm every code path first (workspace growth,
// cache fill, thread-locals), snapshot nav::allocation_count(), run the
// steady-state operation, snapshot again — and only then assert (gtest
// macros allocate). Pool threads run only inside the operation under test,
// so no unrelated thread can perturb the counter inside a measurement window.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <vector>

#include "core/ball_scheme.hpp"
#include "core/uniform_scheme.hpp"
#include "graph/bfs_engine.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/dist_slab.hpp"
#include "graph/generators.hpp"
#include "graph/landmark_oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "resilience/faulty_oracle.hpp"
#include "routing/greedy_router.hpp"
#include "runtime/alloc_counter.hpp"
#include "runtime/thread_pool.hpp"
#include "support/bfs_reference.hpp"

NAV_DEFINE_ALLOC_COUNTER();

namespace nav::graph {
namespace {

TEST(ZeroAlloc, WarmWorkspaceKernelsAllocateNothing) {
  const auto g = make_grid2d(48, 48);
  BfsWorkspace ws;
  std::vector<Dist> out(g.num_nodes());
  // Warm-up: grows the queue, stamps, and direction-optimizing bitmaps.
  (void)ws.row_into<Dist>(g, 0, out);
  (void)ws.ball(g, 100, 5);
  (void)ws.farthest(g, 7);

  const std::uint64_t before = nav::allocation_count();
  for (NodeId s = 0; s < 32; ++s) {
    (void)ws.row_into<Dist>(g, s, out);  // direction-optimizing sweep
    (void)ws.ball(g, s, 4);              // sparse ball
    (void)ws.farthest(g, s);             // sparse eccentricity sweep
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm BfsWorkspace must perform zero heap allocations per sweep";
}

TEST(ZeroAlloc, WarmRowFillsOnFlippingGraphAllocateNothing) {
  // An oracle miss fills its row with row_into at the slab width. On a graph
  // whose sweeps flip bottom-up, a warm workspace must fill rows at every
  // width without allocating: the level queue and bitmaps are grow-only
  // and shared across widths.
  Rng rng(11);
  const auto g = make_random_regular(4096, 16, rng);
  BfsWorkspace ws;
  std::vector<std::uint8_t> row(g.num_nodes() * sizeof(Dist));
  (void)ws.row_into(g, 0, DistWidth::kU32, row.data());  // warm-up

  std::uint32_t flips = 0;
  bool saturated = false;
  const std::uint64_t before = nav::allocation_count();
  for (NodeId s = 0; s < 8; ++s) {
    for (const DistWidth width :
         {DistWidth::kU8, DistWidth::kU16, DistWidth::kU32}) {
      saturated |= ws.row_into(g, s, width, row.data());
      flips += ws.last_flip_count();
    }
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm row fill must perform zero heap allocations at any width";
  EXPECT_FALSE(saturated);
  EXPECT_GE(flips, 24u) << "every sweep on this graph should flip bottom-up";
}

TEST(ZeroAlloc, ReferenceKernelAllocatesEveryCall) {
  // Sanity check that the counter actually counts: the pre-engine reference
  // kernel heap-allocates its result and queue on every call.
  const auto g = make_grid2d(16, 16);
  (void)bfs_distances_reference(g, 0);
  const std::uint64_t before = nav::allocation_count();
  (void)bfs_distances_reference(g, 0);
  const std::uint64_t after = nav::allocation_count();
  EXPECT_GE(after - before, 2u);
}

TEST(ZeroAlloc, WarmBallSchemeSamplingAllocatesNothing) {
  // Both sampling paths of the Theorem 4 scheme: the first draws from fresh
  // nodes run the full ball BFS and learn |B(u, 2^k)| into the size table;
  // later draws read the size and stop the BFS at the drawn member.
  const auto g = make_grid2d(48, 48);
  const core::BallScheme scheme(g);
  (void)local_bfs_workspace().ball(g, 0, kInfDist);  // queue sized to n
  constexpr NodeId kNodes = 64;
  Rng rng(7);

  const std::uint64_t before_unknown = nav::allocation_count();
  for (NodeId u = 0; u < kNodes; ++u) (void)scheme.sample_contact(u, rng);
  const std::uint64_t after_unknown = nav::allocation_count();

  // Learn the small levels of every node (radius 2^3 = 8 < ecc on 48x48).
  for (NodeId u = 0; u < kNodes; ++u) {
    for (int i = 0; i < 200; ++i) (void)scheme.sample_contact(u, rng);
  }
  bool all_learned = true;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (std::uint32_t k = 1; k <= 3; ++k) {
      all_learned = all_learned && scheme.learned_ball_size(u, k) != 0;
    }
  }

  const std::uint64_t before_memo = nav::allocation_count();
  NodeId sum = 0;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (int i = 0; i < 16; ++i) sum += scheme.sample_contact(u, rng);
  }
  const std::uint64_t after_memo = nav::allocation_count();

  EXPECT_EQ(after_unknown - before_unknown, 0u)
      << "a size-unknown ball draw on a warm workspace must not allocate";
  ASSERT_TRUE(all_learned);
  EXPECT_EQ(after_memo - before_memo, 0u)
      << "a memoised ball draw must not allocate";
  EXPECT_GT(sum, 0u);
}

TEST(ZeroAlloc, SteadyStateOracleHitAllocatesNothing) {
  const auto g = make_grid2d(40, 40);
  TargetDistanceCache cache(g, 4);
  const NodeId target = 123;
  (void)cache.distances_to(target);  // the one miss: BFS into an arena slot

  const std::uint64_t before = nav::allocation_count();
  Dist sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto pin = cache.distances_to(target);  // hit: pin copy + LRU bump
    sum += (*pin)[static_cast<NodeId>(i % g.num_nodes())];
    sum += cache.distance(7, target);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a steady-state oracle hit must perform zero heap allocations";
  EXPECT_GT(sum, 0u);  // keep the loop observable
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 2000u);
}

TEST(ZeroAlloc, SteadyStateRoutingOnWarmCacheAllocatesNothing) {
  const auto g = make_grid2d(32, 32);
  TargetDistanceCache cache(g, 2);
  const routing::GreedyRouter router(g, cache);
  core::UniformScheme scheme(g);
  const NodeId target = g.num_nodes() - 1;
  Rng rng(42);
  (void)router.route(0, target, &scheme, rng.child(0));  // warms the cache

  const std::uint64_t before = nav::allocation_count();
  std::uint32_t hops = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    hops += router.route(5, target, &scheme, rng.child(i)).steps;
    hops += router.route(9, target, nullptr, rng.child(i)).steps;
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "routing against a resident target must not touch the allocator";
  EXPECT_GT(hops, 0u);
}

TEST(ZeroAlloc, ArenaRecyclingServesMissesWithoutRowAllocations) {
  // A miss is not allocation-free (the LRU list and hash map own nodes, the
  // slot handle owns a control block), but the distance ROW must come from a
  // recycled arena slot, never a fresh heap block — including on a FULL
  // cache, where the row is computed before the victim's slot frees (the
  // arena's +1 spare slot covers exactly that window). The byte counter is
  // the proof: one spilled row for n=4096 would add 16 KiB at a stroke,
  // while 37 misses of pure bookkeeping stay within a few KiB.
  const auto g = make_path(4096);
  TargetDistanceCache cache(g, 2);
  (void)cache.distances_to(0);
  (void)cache.distances_to(1);  // LRU now full: both slots resident
  (void)cache.distances_to(2);  // full-cache miss; must use the spare slot
  const std::uint64_t count_before = nav::allocation_count();
  const std::uint64_t bytes_before = nav::allocation_bytes();
  for (NodeId t = 3; t < 40; ++t) {
    (void)cache.distances_to(t);  // every miss evicts and recycles
  }
  const std::uint64_t count_after = nav::allocation_count();
  const std::uint64_t bytes_after = nav::allocation_bytes();
  EXPECT_LE(count_after - count_before, 37u * 4u);
  EXPECT_LT(bytes_after - bytes_before, 4096u * sizeof(Dist));
}

TEST(ZeroAlloc, WarmPrefetchWaveAllocatesNothing) {
  // An all-hit prefetch wave is the oracle's steady state under RouteService:
  // dedup runs on grow-only thread scratch, residents are refcount copies
  // into a caller-reused vector, and with no misses the pool fan-out is
  // skipped — nothing may reach the allocator, at the pool's width and on
  // narrow storage alike.
  const auto g = make_grid2d(40, 40);
  for (const DistWidth width : {DistWidth::kU32, DistWidth::kU8}) {
    TargetDistanceCache cache(g, 8, width);
    const std::vector<NodeId> wave{5, 9, 13, 5, 21, 9};
    std::vector<DistVecPtr> pinned;
    cache.prefetch_into(wave, pinned);  // warm: misses, scratch, out growth
    cache.prefetch_into(wave, pinned);  // warm: the all-hit shape itself

    const std::uint64_t before = nav::allocation_count();
    for (int i = 0; i < 200; ++i) cache.prefetch_into(wave, pinned);
    const std::uint64_t after = nav::allocation_count();
    EXPECT_EQ(after - before, 0u)
        << width_token(width)
        << ": a resident prefetch wave must perform zero heap allocations";
    EXPECT_EQ(cache.misses(), 4u);  // only the first wave's distinct targets
  }
}

TEST(ZeroAlloc, ParallelMissWavesRecycleArenaRows) {
  // Miss waves farm their rows across the pool: a 1-miss wave runs inline on
  // the caller, a 2-miss wave on the caller and the pool lanes (inline at
  // NAV_WORKERS=1).
  // Every row must match the sequential reference kernel, and every row must
  // come from a recycled arena slot, never a fresh heap block. Bookkeeping
  // per wave stays O(1) (LRU and map nodes, slot control blocks, the
  // fan-out's task closures), so the byte counter proves no n-sized row was
  // ever heap-spilled. 1-miss waves run on a full cache (the arena's spare
  // slot covers the row computed before the eviction); 2-miss waves start
  // from a cleared cache, since a full one has only that one spare.
  const auto g = make_path(4096);
  TargetDistanceCache cache(g, 2);
  std::vector<DistVecPtr> pinned;
  // Warm every pool thread's BFS workspace (its first sweep grows the queue
  // and bitmaps): the first latch holds each task until all have started,
  // so each pool thread runs exactly one; the second waits for their sweeps.
  auto& pool = nav::global_pool();
  const auto lanes = static_cast<std::ptrdiff_t>(pool.thread_count());
  std::latch all_started(lanes);
  std::latch all_warm(lanes);
  for (std::size_t i = 0; i < pool.thread_count(); ++i) {
    pool.submit([&] {
      all_started.arrive_and_wait();
      std::vector<Dist> row(g.num_nodes());
      (void)local_bfs_workspace().row_into<Dist>(g, 0, row);
      all_warm.count_down();
    });
  }
  all_warm.wait();
  for (const std::size_t misses : {std::size_t{1}, std::size_t{2}}) {
    std::vector<NodeId> wave(misses);
    NodeId next = 0;
    const auto run_wave = [&](bool check) {
      if (misses > 1) cache.clear();
      for (NodeId& t : wave) t = next++;
      cache.prefetch_into(wave, pinned);  // miss, evict, recycle
      for (std::size_t i = 0; check && i < wave.size(); ++i) {
        const auto expect = bfs_distances_reference(g, wave[i]);
        EXPECT_TRUE(*pinned[i] == std::span<const Dist>(expect))
            << misses << "-miss wave, target " << wave[i];
      }
      pinned.clear();  // drop the pins so their slots recycle
    };
    cache.clear();
    for (int i = 0; i < 3; ++i) run_wave(true);  // warm: spare slot, scratch
    const std::uint64_t count_before = nav::allocation_count();
    const std::uint64_t bytes_before = nav::allocation_bytes();
    for (int i = 0; i < 16; ++i) run_wave(false);
    const std::uint64_t count_after = nav::allocation_count();
    const std::uint64_t bytes_after = nav::allocation_bytes();
    EXPECT_LE(count_after - count_before, 16u * 12u) << misses << "-miss waves";
    EXPECT_LT(bytes_after - bytes_before, 4096u * sizeof(Dist))
        << misses << "-miss waves";
  }
}

TEST(ZeroAlloc, WarmNarrowCacheHitAllocatesNothing) {
  // The compact-slab cache's steady state: a row hit is an LRU bump plus a
  // refcount copy of the packed row's handle, and a point query decodes one
  // packed entry. Neither may touch the allocator once warm.
  const auto g = make_grid2d(40, 40);
  TargetDistanceCache cache(g, 4, DistWidth::kU16);
  const NodeId target = 123;
  (void)cache.distances_to(target);  // the one miss: BFS + pack

  const std::uint64_t before = nav::allocation_count();
  Dist sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto pin = cache.distances_to(target);  // packed row hit
    sum += (*pin)[static_cast<NodeId>(i % g.num_nodes())];
    sum += cache.distance(7, target);  // packed point query
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm narrow-width cache hit must perform zero heap allocations";
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ZeroAlloc, WarmNarrowWaveRoutesEveryResidentRowWithoutAllocating) {
  // RouteService's hit path on a narrow cache with many resident rows: one
  // all-hit prefetch wave over 64 distinct targets, then one route per
  // pinned row, read in place at its storage width. Nothing may reach the
  // allocator once warm.
  const auto g = make_grid2d(40, 40);
  const core::UniformScheme scheme(g);
  constexpr NodeId kTargets = 64;
  std::vector<NodeId> wave(kTargets);
  for (NodeId i = 0; i < kTargets; ++i) wave[i] = 25 * i;
  for (const DistWidth width : {DistWidth::kU8, DistWidth::kU16}) {
    TargetDistanceCache cache(g, kTargets, width);
    const routing::GreedyRouter router(g, cache);
    std::vector<DistVecPtr> pinned;
    cache.prefetch_into(wave, pinned);  // warm: the misses, scratch growth
    const auto serve = [&] {
      cache.prefetch_into(wave, pinned);
      std::uint64_t hops = 0;
      for (NodeId i = 0; i < kTargets; ++i) {
        hops += router.route_row(7, wave[i], *pinned[i], &scheme, Rng(i)).steps;
      }
      return hops;
    };
    (void)serve();  // warm: the all-hit shape itself

    const std::uint64_t before = nav::allocation_count();
    const std::uint64_t hops = serve();
    const std::uint64_t after = nav::allocation_count();
    EXPECT_EQ(after - before, 0u)
        << width_token(width)
        << ": an all-hit wave plus its routes must perform zero allocations";
    EXPECT_GT(hops, 0u);
    EXPECT_EQ(cache.misses(), kTargets);  // only the first wave missed
    EXPECT_EQ(pinned[0]->width(), width);  // served packed, not widened
  }
}

TEST(ZeroAlloc, WarmLandmarkHitAllocatesNothing) {
  // The approximate backend inherits the oracle allocation contract: row
  // materialisation (triangle merge + patch BFS) happens on the miss; a warm
  // hit is an LRU splice plus a refcount copy, and point queries ride the
  // same row cache.
  const auto g = make_grid2d(32, 32);
  LandmarkOracle oracle(g, {});
  const NodeId target = g.num_nodes() - 1;
  (void)oracle.distances_to(target);  // the one miss

  const std::uint64_t before = nav::allocation_count();
  Dist sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto pin = oracle.distances_to(target);
    sum += (*pin)[static_cast<NodeId>(i % g.num_nodes())];
    sum += oracle.distance(5, target);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm landmark row hit must perform zero heap allocations";
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(oracle.misses(), 1u);
  EXPECT_GE(oracle.hits(), 2000u);
}

TEST(ZeroAlloc, WarmLandmarkWaveAllocatesNothing) {
  // Landmark rows ride the shared row cache, so a warm all-hit landmark
  // wave (duplicates included) is the cache's zero-allocation wave too.
  const auto g = make_grid2d(32, 32);
  const LandmarkOracle oracle(g, {});
  const std::vector<NodeId> wave = {3, 500, 3, 1023, 77, 500};
  std::vector<DistVecPtr> pinned;
  oracle.prefetch_into(wave, pinned);  // the misses, scratch growth
  oracle.prefetch_into(wave, pinned);  // warm: the all-hit shape itself

  const std::uint64_t before = nav::allocation_count();
  Dist sum = 0;
  for (int i = 0; i < 100; ++i) {
    oracle.prefetch_into(wave, pinned);
    for (const auto& row : pinned) sum += (*row)[5];
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm all-hit landmark wave must perform zero heap allocations";
  EXPECT_GT(sum, 0u);
  EXPECT_EQ(oracle.misses(), 4u);  // only the first wave missed
}

TEST(ZeroAlloc, WarmMetricIncrementsAllocateNothing) {
  // The obs registry's hot-path contract: once this thread's shard exists
  // (created by the warm-up increments), counter inc, gauge set/add/set_max,
  // and histogram observe are wait-free stores — zero allocations.
  obs::Registry reg;
  const auto counter = reg.counter("alloc_test.counter");
  const auto gauge = reg.gauge("alloc_test.gauge");
  const auto hist = reg.histogram("alloc_test.hist", 0.0, 100.0, 32);
  counter.inc();      // warm: attaches this thread's shard
  gauge.set(1);
  hist.observe(1.0);

  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 10000; ++i) {
    counter.inc();
    counter.inc(3);
    gauge.add(2);
    gauge.sub(1);
    gauge.set_max(i);
    hist.observe(static_cast<double>(i % 150) - 10.0);  // bins + under + over
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "warm metric increments must perform zero heap allocations";
  EXPECT_EQ(counter.value(), 1u + 10000u * 4u);
}

TEST(ZeroAlloc, WarmTraceSpansAllocateNothing) {
  // Span recording promises zero-allocation-when-warm: the ring is created
  // on this thread's first recorded span, after which NAV_OBS_SPAN is a
  // clock read plus a locked ring write.
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(true);
  { NAV_OBS_SPAN("alloc-test-warm"); }  // warm: attaches this thread's ring

  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    NAV_OBS_SPAN("alloc-test-span", "i", static_cast<double>(i));
  }
  const std::uint64_t after = nav::allocation_count();
  tracer.set_enabled(false);
  EXPECT_EQ(after - before, 0u)
      << "warm span recording must perform zero heap allocations";
  EXPECT_GE(tracer.event_count(), 1001u);
  tracer.clear();
}

TEST(ZeroAlloc, DisabledTracerSpanSitesAllocateNothing) {
  // The common case — tracing off — must cost one relaxed load, no ring.
  auto& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 1000; ++i) {
    NAV_OBS_SPAN("disabled-span");
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u);
}

TEST(ZeroAlloc, InstrumentedWarmRouteHitAllocatesNothing) {
  // End-to-end: the oracle hit path now bumps registry counters
  // (oracle.cache_hits et al). A warm hit must STILL be allocation-free —
  // the instrumentation sweep is not allowed to tax the paths it observes.
  const auto g = make_grid2d(32, 32);
  TargetDistanceCache cache(g, 4);
  core::UniformScheme scheme(g);
  routing::GreedyRouter router(g, cache);
  const NodeId target = g.num_nodes() - 1;
  Rng rng(11);
  (void)router.route(0, target, &scheme, rng);  // warm: miss + shard attach

  const std::uint64_t before = nav::allocation_count();
  for (int i = 0; i < 200; ++i) {
    Rng trial(static_cast<std::uint64_t>(i));
    (void)router.route(static_cast<NodeId>(i % 31), target, &scheme, trial);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "instrumented warm route hits must stay allocation-free";
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ZeroAlloc, WarmFaultFreeFaultyOracleHitAllocatesNothing) {
  // The resilience decorator must not tax the healthy path: with no fault
  // family active, a warm FaultyOracle hit is the base oracle's hit plus an
  // attempt-counter bump on an existing map entry — still allocation-free.
  // (Stall widening allocates by design — the heap copy IS the fault — so
  // only the fault-free posture carries the zero-alloc contract.)
  const auto g = make_grid2d(32, 32);
  TargetDistanceCache cache(g, 4);
  const resilience::FaultSpec spec;  // all probabilities zero
  const resilience::FaultyOracle faulty(cache, spec);
  core::UniformScheme scheme(g);
  routing::GreedyRouter router(g, faulty);
  const NodeId target = g.num_nodes() - 1;
  Rng rng(17);
  // Warm: the base cache miss, the attempt-counter map entry for `target`,
  // and the router's scratch.
  (void)router.route(0, target, &scheme, rng);

  const std::uint64_t before = nav::allocation_count();
  std::uint32_t hops = 0;
  for (int i = 0; i < 200; ++i) {
    Rng trial(static_cast<std::uint64_t>(i));
    hops += router.route(static_cast<NodeId>(i % 31), target, &scheme, trial)
                .steps;
    hops += faulty.distance(7, target);
  }
  const std::uint64_t after = nav::allocation_count();
  EXPECT_EQ(after - before, 0u)
      << "a warm fault-free FaultyOracle hit must stay allocation-free";
  EXPECT_GT(hops, 0u);
  EXPECT_EQ(faulty.injected_failures(), 0u);
}

}  // namespace
}  // namespace nav::graph
