// test_spec_fuzz.cpp — seeded mutation fuzzing of every spec grammar.
//
// Spec strings reach the library from CLIs and config files, so each
// registry parser must treat them as untrusted: whatever the text, a parse
// either succeeds or throws std::invalid_argument — never another exception
// type, a wrapped-around number, an abort or a hang. This suite mutates a
// corpus of valid specs per grammar (token swaps, deletions, duplications,
// truncations, character edits) with a fixed seed and a fixed budget, builds
// each mutant over a 64-node graph, and exercises the result once (mutation
// streams are only built: a step's cost grows with the spec's rate). Inputs
// this suite once found go to the grammar's named test.
//
// "trace:<path>" specs are left out: they open files, which is not parsing.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scheme_factory.hpp"
#include "dynamic/mutation_stream.hpp"
#include "graph/distance_oracle.hpp"
#include "graph/generators.hpp"
#include "graph/oracle_factory.hpp"
#include "routing/router_factory.hpp"
#include "runtime/parse.hpp"
#include "runtime/rng.hpp"
#include "workload/traffic_driver.hpp"
#include "workload/workload.hpp"

namespace nav {
namespace {

constexpr std::uint64_t kSeed = 0x5bec;
constexpr int kMutantsPerGrammar = 2000;

// Replacement tokens: boundary numbers, every malformed-number shape the
// strict parser rejects, and the grammars' own keywords (so structurally
// plausible specs appear too).
const std::vector<std::string> kTokens = {
    "",       "0",        "1",       "2",        "3",       "-1",
    "64",     "65",       "0.5",     "1.5",      "-0.0",    "1e-400",
    "1e400",  "inf",      "-inf",    "nan",      "0x10",    "+1",
    " 2",     "2 ",       "2abc",    "1.0.0",    "4294967295",
    "4294967296",         "18446744073709551615",  "18446744073709551616",
    "2K",     "64M",      "1G",      "u8",       "u16",     "u32",
    "auto",   "matrix",   "cache",   "landmark", "faulty",  "degree",
    "farthest", "stall",  "fail",    "slow",     "seed",    "uniform",
    "ball",   "kleinberg", "ball-fixed", "greedy", "lookahead", "zipf",
    "local",  "hotset",   "churn",   "targeted", "poisson", "burst"};

const std::string kChars = "0123456789:.-+eEx ,abuK";

std::string join(const std::vector<std::string>& tokens) {
  std::string out;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) out += ':';
    out += tokens[i];
  }
  return out;
}

// One random edit of `spec`.
std::string mutate(const std::string& spec, Rng& rng) {
  std::vector<std::string> tokens = split_spec(spec);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(random_index(rng, n));
  };
  switch (pick(6)) {
    case 0:  // replace a token
      tokens[pick(tokens.size())] = kTokens[pick(kTokens.size())];
      return join(tokens);
    case 1:  // delete a token
      if (tokens.size() > 1) tokens.erase(tokens.begin() + pick(tokens.size()));
      return join(tokens);
    case 2: {  // duplicate a token, or append one
      const std::size_t i = pick(tokens.size());
      tokens.insert(tokens.begin() + i, pick(2) == 0
                                            ? tokens[i]
                                            : kTokens[pick(kTokens.size())]);
      return join(tokens);
    }
    case 3:  // truncate
      return spec.substr(0, pick(spec.size() + 1));
    case 4: {  // insert a character
      std::string out = spec;
      out.insert(out.begin() + pick(out.size() + 1), kChars[pick(kChars.size())]);
      return out;
    }
    default: {  // overwrite a character
      std::string out = spec;
      if (!out.empty()) out[pick(out.size())] = kChars[pick(kChars.size())];
      return out;
    }
  }
}

// Builds `kMutantsPerGrammar` mutants of `corpus` (chains of 1-3 edits) and
// feeds each to `build`; fails on any outcome but success or
// std::invalid_argument.
void fuzz(std::uint64_t stream, const char* grammar,
          const std::vector<std::string>& corpus,
          const std::function<void(const std::string&)>& build) {
  Rng rng = Rng(kSeed).child(stream);
  std::size_t accepted = 0;
  for (const auto& spec : corpus) {
    ASSERT_NO_THROW(build(spec)) << grammar << " corpus spec " << spec;
  }
  for (int i = 0; i < kMutantsPerGrammar; ++i) {
    std::string spec = corpus[random_index(rng, corpus.size())];
    const auto edits = 1 + random_index(rng, 3);
    for (std::uint64_t e = 0; e < edits; ++e) spec = mutate(spec, rng);
    if (spec.rfind("trace", 0) == 0) continue;
    try {
      build(spec);
      ++accepted;
    } catch (const std::invalid_argument&) {
      // The one sanctioned failure.
    } catch (const std::exception& e) {
      ADD_FAILURE() << grammar << " spec '" << spec << "' threw "
                    << e.what();
    }
  }
  // The budget must reach past the front door: some mutants stay valid.
  EXPECT_GT(accepted, 0u) << grammar;
}

TEST(SpecFuzz, EveryGrammarFailsOnlyWithInvalidArgument) {
  const graph::Graph g = graph::make_torus2d(8, 8);
  ASSERT_EQ(g.num_nodes(), 64u);
  const graph::DistanceMatrix oracle(g);

  fuzz(0, "oracle",
       {"auto", "matrix", "matrix:u8", "matrix:auto", "cache", "cache:16",
        "cache:2K:u16", "cache:4:auto", "landmark:4", "landmark:4:degree",
        "faulty:cache:16:fail:0.1:stall:0.05:seed:7",
        "faulty:matrix:slow:0.5:100"},
       [&](const std::string& spec) {
         const auto built = graph::make_oracle(spec, g);
         if (spec.rfind("faulty", 0) != 0) (void)built->distances_to(5);
       });

  fuzz(1, "scheme",
       {"none", "uniform", "ball", "ml", "rank", "growth", "kleinberg:2.0",
        "ball-fixed:3", "rewire:uniform"},
       [&](const std::string& spec) {
         Rng rng(1);
         const auto scheme = core::make_scheme(spec, g, rng);
         if (scheme != nullptr) (void)scheme->sample_contact(5, rng);
       });

  fuzz(2, "router", {"greedy", "lookahead:0", "lookahead:1", "lookahead:3"},
       [&](const std::string& spec) {
         const auto router = routing::make_router(spec, g, oracle);
         (void)router->route(0, 63, nullptr, Rng(2));
       });

  fuzz(3, "workload",
       {"uniform", "zipf:1.1", "local:2", "adversarial", "hotset:4:0.9"},
       [&](const std::string& spec) {
         Rng rng(3);
         const auto workload = workload::make_workload(spec, g, Rng(4));
         (void)workload->batch(4, rng);
       });

  fuzz(4, "mutation", {"churn:2", "churn:0.5", "fail:0.1", "targeted:2"},
       [&](const std::string& spec) {
         (void)dynamic::make_mutation_stream(spec);
       });

  fuzz(5, "schedule", {"poisson:100", "burst:4:0.01", "burst:1:0"},
       [&](const std::string& spec) {
         const auto schedule = workload::ArrivalSchedule::parse(spec);
         (void)schedule.arrival_times(4, Rng(5));
       });
}

}  // namespace
}  // namespace nav
