#include "core/scheme_factory.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "graph/generators.hpp"

namespace nav::core {
namespace {

TEST(SchemeFactory, NoneIsNull) {
  const auto g = graph::make_path(8);
  Rng rng(1);
  EXPECT_EQ(make_scheme("none", g, rng), nullptr);
}

TEST(SchemeFactory, BuildsEveryStandardSpec) {
  const auto g = graph::make_path(32);
  Rng rng(2);
  for (const auto& spec :
       {"uniform", "ball", "ml", "ml-labelU", "ml-A-only", "ml-U-only",
        "ml-random-label", "rank", "kleinberg:2.0", "ball-fixed:3"}) {
    const auto scheme = make_scheme(spec, g, rng);
    ASSERT_NE(scheme, nullptr) << spec;
    EXPECT_EQ(scheme->num_nodes(), 32u) << spec;
    Rng sample_rng(3);
    const auto c = scheme->sample_contact(0, sample_rng);
    EXPECT_TRUE(c == kNoContact || c < 32u) << spec;
  }
}

TEST(SchemeFactory, KleinbergParsesAlpha) {
  // The numeric scheme values the benches and examples use (E7's quick
  // ball-fixed levels among them) parse to the numbers they always did.
  const auto g = graph::make_path(16);
  Rng rng(4);
  for (const auto& [spec, name] :
       {std::pair{"kleinberg:1.0", "kleinberg(a=1.00)"},
        std::pair{"kleinberg:1.5", "kleinberg(a=1.50)"},
        std::pair{"kleinberg:2.0", "kleinberg(a=2.00)"},
        std::pair{"kleinberg:2.5", "kleinberg(a=2.50)"},
        std::pair{"ball-fixed:4", "ball-fixed-k4"},
        std::pair{"ball-fixed:6", "ball-fixed-k6"},
        std::pair{"ball-fixed:8", "ball-fixed-k8"},
        std::pair{"ball-fixed:12", "ball-fixed-k12"}}) {
    EXPECT_EQ(make_scheme(spec, g, rng)->name(), name) << spec;
  }
}

TEST(SchemeFactory, UnknownSpecThrows) {
  const auto g = graph::make_path(8);
  Rng rng(5);
  EXPECT_THROW(make_scheme("definitely-not-a-scheme", g, rng),
               std::invalid_argument);
}

TEST(SchemeFactory, RejectsMalformedNumbers) {
  // Numeric fields parse strictly (runtime/parse.hpp): no non-finite or
  // out-of-range values, no hex, no whitespace, no trailing garbage, no
  // silent wraparound — every case is a std::invalid_argument naming the
  // spec.
  const auto g = graph::make_path(16);
  Rng rng(8);
  for (const char* spec :
       {"kleinberg:inf", "kleinberg:nan", "kleinberg:2abc", "kleinberg: 2",
        "kleinberg:0x10", "kleinberg:1e400", "kleinberg:", "kleinberg:2:3",
        "ball-fixed:3x", "ball-fixed:4294967297", "ball-fixed:abc",
        "ball-fixed:", "ball-fixed:-1", "ball-fixed: 3"}) {
    try {
      (void)make_scheme(spec, g, rng);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << spec << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << spec << " threw a non-invalid_argument: " << e.what();
    }
  }
}

TEST(SchemeFactory, StandardSpecsNonEmpty) {
  const auto specs = standard_scheme_specs();
  EXPECT_GE(specs.size(), 3u);
  const auto g = graph::make_path(16);
  Rng rng(6);
  for (const auto& spec : specs) {
    EXPECT_NE(make_scheme(spec, g, rng), nullptr) << spec;
  }
}

TEST(SchemeFactory, RandomLabelVariantDeterministicGivenRng) {
  const auto g = graph::make_path(16);
  Rng a(7), b(7);
  const auto s1 = make_scheme("ml-random-label", g, a);
  const auto s2 = make_scheme("ml-random-label", g, b);
  // Same rng seed -> same random labeling -> identical probabilities.
  for (graph::NodeId v = 0; v < 16; ++v) {
    EXPECT_DOUBLE_EQ(s1->probability(3, v), s2->probability(3, v));
  }
}

}  // namespace
}  // namespace nav::core
