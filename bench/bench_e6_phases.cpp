// bench_e6_phases.cpp — Experiment E6: the five-phase anatomy of Theorem 4.
//
// The proof of Theorem 4 splits a greedy route toward t into phases around
// B = the n^{2/3} closest nodes to t:
//   phase 1  entering B                          — expected Õ(n^{1/3})
//   phases 2-4  manoeuvring inside B (leaving the boundary, growing and
//               shrinking the ball around the current node)  — Õ(n^{1/3})
//   phase 5  the final <= n^{1/3} local steps    — n^{1/3}
//
// The bench routes with tracing, classifies every hop by the distance to the
// target (outside B / inside B above n^{1/3} / within n^{1/3}), and checks
// each bucket scales like Õ(n^{1/3}) — the mechanism, not just the total.
#include "harness.hpp"

#include <algorithm>
#include <cmath>

namespace {

using namespace nav;

struct PhaseBreakdown {
  double enter_b = 0;   // hops taken while dist(u,t) > radius(B)
  double middle = 0;    // hops inside B with dist > n^{1/3}
  double final_leg = 0; // hops with dist <= n^{1/3}
};

/// Distance threshold d such that |{v : dist(v,t) <= d}| >= size.
graph::Dist ball_radius_for_size(const graph::DistRow& dist_to_t,
                                 std::size_t size) {
  std::vector<graph::Dist> sorted;
  sorted.reserve(dist_to_t.size());
  for (std::size_t v = 0; v < dist_to_t.size(); ++v) {
    if (dist_to_t[v] != graph::kInfDist) sorted.push_back(dist_to_t[v]);
  }
  std::sort(sorted.begin(), sorted.end());
  const std::size_t idx = std::min(size, sorted.size()) - 1;
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness h("e6", "e6_phases",
                   "E6: Theorem 4 proof mechanics — per-phase step counts",
                   "each phase of the five-phase analysis contributes "
                   "~O(n^{1/3}) steps (B = n^{2/3} closest nodes to t)",
                   argc, argv);
  h.group_by({"family", "n"});

  const unsigned hi = h.quick() ? 13 : 17;
  for (const auto* family : {"path", "torus2d"}) {
    if (!h.section(std::string("E6: phase breakdown on ") + family)) continue;
    Table table({"family", "n", "total", "enter B", "inside B", "final n^1/3",
                 "n^1/3 ref"});
    std::vector<double> ns, enter, middle, final_leg;
    for (unsigned e = 12; e <= hi; ++e) {
      Rng rng(h.seed(0xE6));
      const auto g =
          graph::family(family).make(graph::NodeId{1} << e, rng);
      const auto n = static_cast<double>(g.num_nodes());
      core::BallScheme scheme(g);
      graph::TargetDistanceCache oracle(g, 4);
      routing::GreedyRouter router(g, oracle);
      const auto pp = graph::peripheral_pair(g);
      const auto dist_to_t = oracle.distances_to(pp.b);

      const auto b_size = static_cast<std::size_t>(std::pow(n, 2.0 / 3.0));
      const auto b_radius = ball_radius_for_size(*dist_to_t, b_size);
      const auto cbrt_n = static_cast<graph::Dist>(std::cbrt(n));

      RunningStats s_enter, s_middle, s_final, s_total;
      const int trials = h.quick() ? 8 : 16;
      for (int trial = 0; trial < trials; ++trial) {
        Rng trial_rng = rng.child(static_cast<std::uint64_t>(trial) + e * 100);
        const auto result =
            router.route(pp.a, pp.b, &scheme, trial_rng, /*record_trace=*/true);
        PhaseBreakdown breakdown;
        for (std::size_t i = 0; i < result.steps; ++i) {
          const auto d = (*dist_to_t)[result.trace[i]];
          if (d > b_radius) breakdown.enter_b += 1;
          else if (d > cbrt_n) breakdown.middle += 1;
          else breakdown.final_leg += 1;
        }
        s_enter.add(breakdown.enter_b);
        s_middle.add(breakdown.middle);
        s_final.add(breakdown.final_leg);
        s_total.add(result.steps);
      }
      table.add_row({family, Table::integer(g.num_nodes()),
                     Table::num(s_total.mean(), 1),
                     Table::num(s_enter.mean(), 1),
                     Table::num(s_middle.mean(), 1),
                     Table::num(s_final.mean(), 1),
                     Table::num(std::cbrt(n), 1)});
      h.add_cell({{"family", std::string(family)},
                  {"n", static_cast<std::uint64_t>(g.num_nodes())},
                  {"total_steps", s_total.mean()},
                  {"enter_b_steps", s_enter.mean()},
                  {"inside_b_steps", s_middle.mean()},
                  {"final_leg_steps", s_final.mean()}});
      ns.push_back(n);
      enter.push_back(std::max(1.0, s_enter.mean()));
      middle.push_back(std::max(1.0, s_middle.mean()));
      final_leg.push_back(std::max(1.0, s_final.mean()));
    }
    std::cout << table.to_ascii();
    std::cout << "phase exponents: enter B "
              << Table::num(fit_power_law(ns, enter).slope, 2) << ", inside B "
              << Table::num(fit_power_law(ns, middle).slope, 2) << ", final "
              << Table::num(fit_power_law(ns, final_leg).slope, 2) << "\n";
  }

  if (h.section("E6 summary")) {
    std::cout << "PASS criteria: on the path every phase exponent is in\n"
                 "[0.1, 0.5] — each phase is bounded by ~O(n^{1/3}), and the\n"
                 "bound is an upper bound, so drifting *below* 1/3 (polylog\n"
                 "mixing effects at these sizes) is consistent — and no phase\n"
                 "dominates asymptotically. On the torus the total is\n"
                 "diameter-capped but the same decomposition applies.\n";
  }
  return h.finish();
}
