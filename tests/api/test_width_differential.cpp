// test_width_differential.cpp — distance-row storage width is invisible to
// routing: RouteService over a TargetDistanceCache at u8, u16 and u32
// reproduces routing over a u32 DistanceMatrix bit for bit, for every
// router and graph family here, including tolerated unreachable pairs on a
// disconnected graph. Routers that only override the span entry point get
// exactly one call per pair with the decoded row.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "api/route_service.hpp"
#include "core/scheme_factory.hpp"
#include "graph/dist_slab.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/families.hpp"
#include "routing/router_factory.hpp"

namespace nav::api {
namespace {

using graph::DistWidth;
using Pair = std::pair<graph::NodeId, graph::NodeId>;

constexpr DistWidth kWidths[] = {DistWidth::kU8, DistWidth::kU16,
                                 DistWidth::kU32};

/// `count` pairs over `targets` interleaved targets, s != t.
std::vector<Pair> interleaved_pairs(graph::NodeId n, std::size_t count,
                                    std::size_t targets, std::uint64_t seed) {
  std::vector<Pair> pairs;
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto t = static_cast<graph::NodeId>((i % targets) * (n / targets));
    auto s = static_cast<graph::NodeId>(random_index(rng, n));
    if (s == t) s = (s + 1) % n;
    pairs.emplace_back(s, t);
  }
  return pairs;
}

void expect_identical(const RouteReport& got, const RouteReport& want,
                      const std::string& where) {
  ASSERT_EQ(got.results.size(), want.results.size()) << where;
  for (std::size_t i = 0; i < got.results.size(); ++i) {
    const auto& a = got.results[i];
    const auto& b = want.results[i];
    EXPECT_EQ(a.steps, b.steps) << where << " pair " << i;
    EXPECT_EQ(a.long_links_used, b.long_links_used) << where << " pair " << i;
    EXPECT_EQ(a.initial_distance, b.initial_distance) << where << " pair " << i;
    EXPECT_EQ(a.reached, b.reached) << where << " pair " << i;
    EXPECT_EQ(got.status[i], want.status[i]) << where << " pair " << i;
  }
}

TEST(WidthDifferential, RouteServiceMatchesU32MatrixAtEveryWidth) {
  for (const std::string family : {"grid2d", "torus2d", "gnp", "random_tree"}) {
    Rng graph_rng(11);
    const auto g = graph::family(family).make(400, graph_rng);
    Rng scheme_rng(12);
    const auto scheme = core::make_scheme("uniform", g, scheme_rng);
    const graph::DistanceMatrix matrix(g);
    // Capacity below the 12 targets: waves evict and re-BFS while routing.
    RouteServiceOptions options;
    options.max_pinned_targets = 5;
    const auto pairs = interleaved_pairs(g.num_nodes(), 96, 12, 13);
    for (const std::string router_spec : {"greedy", "lookahead:1"}) {
      const auto ref_router = routing::make_router(router_spec, g, matrix);
      const auto want = RouteService(g, matrix, scheme.get(), *ref_router,
                                     options)
                            .route_batch(pairs, Rng(14));
      for (const DistWidth width : kWidths) {
        const graph::TargetDistanceCache cache(g, 8, width);
        const auto router = routing::make_router(router_spec, g, cache);
        const auto got = RouteService(g, cache, scheme.get(), *router, options)
                             .route_batch(pairs, Rng(14));
        expect_identical(got, want,
                         family + "/" + router_spec + "/" + width_token(width));
        EXPECT_EQ(cache.distances_to(0)->width(), width);
      }
    }
  }
}

TEST(WidthDifferential, TolerateUnreachableDecodesSentinelsAtEveryWidth) {
  // Two components: cross pairs come back reached == false with
  // initial_distance kInfDist (the narrow sentinel decoded), degraded.
  const graph::Graph g(7, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}});
  const graph::DistanceMatrix matrix(g);
  RouteServiceOptions options;
  options.tolerate_unreachable = true;
  const std::vector<Pair> pairs = {{0, 3}, {0, 5}, {6, 4}, {4, 2}, {3, 0}};
  for (const std::string router_spec : {"greedy", "lookahead:1"}) {
    const auto ref_router = routing::make_router(router_spec, g, matrix);
    const auto want = RouteService(g, matrix, nullptr, *ref_router, options)
                          .route_batch(pairs, Rng(3));
    for (const DistWidth width : kWidths) {
      const graph::TargetDistanceCache cache(g, 4, width);
      const auto router = routing::make_router(router_spec, g, cache);
      const auto got = RouteService(g, cache, nullptr, *router, options)
                           .route_batch(pairs, Rng(3));
      expect_identical(got, want, router_spec + "/" + width_token(width));
      for (const std::size_t cross : {1u, 3u}) {
        EXPECT_FALSE(got.results[cross].reached);
        EXPECT_EQ(got.results[cross].initial_distance, graph::kInfDist);
        EXPECT_EQ(got.status[cross], DegradationStatus::kDegraded);
      }
      EXPECT_EQ(got.results[0].steps, 3u);
    }
  }
}

/// A forwarding router that only overrides the span entry point: counts its
/// calls and checks every row it is handed against the u32 matrix.
class SpanOnlyRouter final : public routing::Router {
 public:
  SpanOnlyRouter(const routing::Router& inner,
                 const graph::DistanceMatrix& truth)
      : inner_(inner), truth_(truth) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const graph::Graph& graph() const noexcept override {
    return inner_.graph();
  }
  [[nodiscard]] routing::RouteResult route(
      graph::NodeId s, graph::NodeId t, const core::AugmentationScheme* scheme,
      Rng rng, bool record_trace) const override {
    return inner_.route(s, t, scheme, rng, record_trace);
  }
  [[nodiscard]] routing::RouteResult route_resolved(
      graph::NodeId s, graph::NodeId t, std::span<const graph::Dist> row,
      const core::AugmentationScheme* scheme, Rng rng,
      bool record_trace) const override {
    calls.fetch_add(1);
    if (!(*truth_.distances_to(t) == row)) mismatches.fetch_add(1);
    return inner_.route_resolved(s, t, row, scheme, rng, record_trace);
  }

  mutable std::atomic<std::size_t> calls{0}, mismatches{0};

 private:
  const routing::Router& inner_;
  const graph::DistanceMatrix& truth_;
};

TEST(WidthDifferential, SpanOnlyRouterSeesOneDecodedCallPerPair) {
  Rng graph_rng(21);
  const auto g = graph::family("torus2d").make(256, graph_rng);
  Rng scheme_rng(22);
  const auto scheme = core::make_scheme("uniform", g, scheme_rng);
  const graph::DistanceMatrix matrix(g);
  const auto pairs = interleaved_pairs(g.num_nodes(), 48, 6, 23);
  const auto ref_router = routing::make_router("greedy", g, matrix);
  const auto want = RouteService(g, matrix, scheme.get(), *ref_router)
                        .route_batch(pairs, Rng(24));
  for (const DistWidth width : kWidths) {
    const graph::TargetDistanceCache cache(g, 8, width);
    const auto inner = routing::make_router("greedy", g, cache);
    const SpanOnlyRouter router(*inner, matrix);
    const auto got = RouteService(g, cache, scheme.get(), router)
                         .route_batch(pairs, Rng(24));
    expect_identical(got, want, width_token(width));
    EXPECT_EQ(router.calls.load(), pairs.size()) << width_token(width);
    EXPECT_EQ(router.mismatches.load(), 0u) << width_token(width);
  }
}

}  // namespace
}  // namespace nav::api
