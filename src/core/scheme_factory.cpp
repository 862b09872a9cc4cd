#include "core/scheme_factory.hpp"

#include <stdexcept>

#include "core/augmentation_matrix.hpp"
#include "core/ball_scheme.hpp"
#include "core/growth_scheme.hpp"
#include "core/kleinberg_scheme.hpp"
#include "core/ml_scheme.hpp"
#include "core/rank_scheme.hpp"
#include "core/uniform_scheme.hpp"
#include "dynamic/rewire_scheme.hpp"
#include "runtime/parse.hpp"

namespace nav::core {

SchemePtr make_scheme(const std::string& spec, const Graph& g, Rng& rng) {
  if (spec == "none") return nullptr;
  if (spec == "uniform") return std::make_unique<UniformScheme>(g);
  if (spec == "ball") return std::make_unique<BallScheme>(g);
  if (spec.rfind("ball-fixed:", 0) == 0) {
    const auto k = parse_spec_number<std::uint32_t>(spec.substr(11), spec);
    return BallScheme::make_fixed_level(g, k);
  }
  if (spec == "ml") return std::make_unique<MLScheme>(g);
  if (spec == "ml-labelU") {
    MLSchemeOptions opt;
    opt.uniform_over_nodes = false;
    return std::make_unique<MLScheme>(g, opt);
  }
  if (spec == "ml-A-only") {
    MLSchemeOptions opt;
    opt.mode = MLSchemeOptions::Mode::kHierarchyOnly;
    return std::make_unique<MLScheme>(g, opt);
  }
  if (spec == "ml-U-only") {
    MLSchemeOptions opt;
    opt.mode = MLSchemeOptions::Mode::kUniformOnly;
    return std::make_unique<MLScheme>(g, opt);
  }
  if (spec == "ml-random-label") {
    // The Theorem 2 matrix with a labeling that ignores the decomposition —
    // E7c's control showing the labeling carries the polylog behaviour.
    auto hierarchy = std::make_shared<HierarchyMatrix>(g.num_nodes());
    auto uniform = std::make_shared<UniformMatrix>(g.num_nodes());
    auto mix = std::make_shared<MixMatrix>(std::move(hierarchy), std::move(uniform));
    return std::make_unique<MatrixScheme>(
        std::move(mix), random_distinct_labeling(g.num_nodes(), rng),
        "ml-random-label");
  }
  if (spec.rfind("kleinberg:", 0) == 0) {
    const double alpha = parse_spec_number<double>(spec.substr(10), spec);
    return std::make_unique<KleinbergScheme>(g, alpha);
  }
  if (spec == "rank") return std::make_unique<RankScheme>(g);
  if (spec == "growth") return std::make_unique<GrowthScheme>(g);
  if (spec.rfind("rewire:", 0) == 0) {
    // Self-organizing realised augmentation (dynamic subsystem); callers
    // that drive the feedback loop use dynamic::make_rewire_scheme directly
    // to keep the concrete learn() handle.
    return dynamic::make_rewire_scheme(spec, g, rng);
  }
  throw std::invalid_argument("unknown scheme spec: " + spec);
}

std::vector<std::string> standard_scheme_specs() {
  return {"uniform", "ml", "ball"};
}

}  // namespace nav::core
