// test_wave_ladder.cpp — fetch_wave, the resilience ladder over one prefetch
// wave, driven over a FaultyOracle with no RouteService: each retry round
// re-asks only the still-failing subset after a doubling virtual backoff
// (1, 2, then 4 ms), exhausted targets take the fallback tier's rows, and
// with neither a fallback nor tolerance the wave throws a
// TransientOracleError naming exactly the dead targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "api/route_service.hpp"
#include "graph/families.hpp"
#include "graph/oracle_factory.hpp"
#include "resilience/fault_spec.hpp"
#include "resilience/virtual_clock.hpp"

namespace nav::api {
namespace {

/// Delegates every query to `inner`, logging each single-row query with the
/// virtual time it was made at: a retry round is exactly the queries made
/// at one clock reading.
class RecordingOracle final : public graph::DistanceOracle {
 public:
  RecordingOracle(const graph::DistanceOracle& inner,
                  const resilience::VirtualClock& clock)
      : inner_(inner), clock_(clock) {}

  [[nodiscard]] bool exact() const noexcept override {
    return inner_.exact();
  }
  [[nodiscard]] graph::Dist distance(graph::NodeId u,
                                     graph::NodeId target) const override {
    return inner_.distance(u, target);
  }
  [[nodiscard]] graph::DistVecPtr distances_to(
      graph::NodeId target) const override {
    rounds[clock_.micros()].push_back(target);
    return inner_.distances_to(target);
  }
  void prefetch_into(std::span<const graph::NodeId> targets,
                     std::vector<graph::DistVecPtr>& out) const override {
    inner_.prefetch_into(targets, out);
  }

  /// Targets queried one by one, keyed by the virtual microsecond.
  mutable std::map<std::uint64_t, std::vector<graph::NodeId>> rounds;

 private:
  const graph::DistanceOracle& inner_;
  const resilience::VirtualClock& clock_;
};

struct Ladder {
  Ladder() {
    Rng rng(1);
    g = graph::family("grid2d").make(256, rng);
    for (graph::NodeId t = 0; t < 64; ++t) targets.push_back(t);
  }
  graph::Graph g;
  std::vector<graph::NodeId> targets;
};

TEST(WaveLadder, FaultFreeWaveTakesNoRetryAndNoVirtualTime) {
  const Ladder ladder;
  const auto oracle = graph::make_oracle("cache:16", ladder.g);
  resilience::VirtualClock clock;
  WaveRows wave;
  fetch_wave(*oracle, ladder.targets, nullptr, false, clock, wave);
  EXPECT_EQ(wave.retries, 0u);
  EXPECT_EQ(clock.micros(), 0u);
  ASSERT_EQ(wave.rows.size(), ladder.targets.size());
  for (std::size_t k = 0; k < ladder.targets.size(); ++k) {
    EXPECT_EQ(wave.source[k], RowSource::kPrimary) << k;
    EXPECT_EQ((*wave.rows[k])[ladder.targets[k]], 0u) << k;
  }
}

TEST(WaveLadder, RetriesAShrinkingSubsetOnADoublingVirtualBackoff) {
  const Ladder ladder;
  const auto faulty =
      graph::make_oracle("faulty:cache:16:fail:0.5:seed:3", ladder.g);
  resilience::VirtualClock clock;
  const RecordingOracle oracle(*faulty, clock);
  WaveRows wave;
  fetch_wave(oracle, ladder.targets, nullptr, /*tolerate=*/true, clock, wave);

  EXPECT_EQ(wave.retries, ResilienceOptions::kMaxRetries);
  EXPECT_EQ(clock.micros(), 7000u);
  // Rounds 1, 2, 3 ran after 1, 1 + 2 and 1 + 2 + 4 ms of backoff, each on
  // a strict subset of the round before.
  ASSERT_EQ(oracle.rounds.size(), 3u);
  const std::vector<std::uint64_t> starts = {1000, 3000, 7000};
  const std::vector<graph::NodeId>* previous = nullptr;
  std::size_t r = 0;
  for (const auto& [micros, round] : oracle.rounds) {
    EXPECT_EQ(micros, starts[r++]);
    ASSERT_FALSE(round.empty());
    if (previous != nullptr) {
      EXPECT_LT(round.size(), previous->size());
      for (const graph::NodeId t : round) {
        EXPECT_NE(std::find(previous->begin(), previous->end(), t),
                  previous->end())
            << t;
      }
    }
    previous = &round;
  }
  // What the last round could not fetch is rowless (tolerated); every
  // other target holds its primary row.
  std::size_t none = 0;
  for (std::size_t k = 0; k < ladder.targets.size(); ++k) {
    if (wave.source[k] == RowSource::kNone) {
      ++none;
      EXPECT_FALSE(wave.rows[k]) << k;
      EXPECT_NE(std::find(previous->begin(), previous->end(),
                          ladder.targets[k]),
                previous->end())
          << k;
    } else {
      EXPECT_EQ(wave.source[k], RowSource::kPrimary) << k;
      EXPECT_EQ((*wave.rows[k])[ladder.targets[k]], 0u) << k;
    }
  }
  EXPECT_GT(none, 0u);
  EXPECT_LT(none, previous->size());
}

TEST(WaveLadder, ExhaustedTargetsTakeTheFallbackRows) {
  const Ladder ladder;
  const auto faulty =
      graph::make_oracle("faulty:cache:16:fail:1.0", ladder.g);
  const auto fallback = graph::make_oracle("matrix", ladder.g);
  resilience::VirtualClock clock;
  WaveRows wave;
  fetch_wave(*faulty, ladder.targets, fallback.get(), false, clock, wave);
  EXPECT_EQ(wave.retries, ResilienceOptions::kMaxRetries);
  for (std::size_t k = 0; k < ladder.targets.size(); ++k) {
    EXPECT_EQ(wave.source[k], RowSource::kFallback) << k;
    const auto want = fallback->distances_to(ladder.targets[k]);
    for (graph::NodeId u = 0; u < ladder.g.num_nodes(); ++u) {
      ASSERT_EQ((*wave.rows[k])[u], (*want)[u]) << k << "/" << u;
    }
  }
}

TEST(WaveLadder, ToleranceMarksRowlessTargetsNone) {
  const Ladder ladder;
  const auto faulty =
      graph::make_oracle("faulty:cache:16:fail:1.0", ladder.g);
  resilience::VirtualClock clock;
  WaveRows wave;
  fetch_wave(*faulty, ladder.targets, nullptr, /*tolerate=*/true, clock,
             wave);
  for (std::size_t k = 0; k < ladder.targets.size(); ++k) {
    EXPECT_EQ(wave.source[k], RowSource::kNone) << k;
    EXPECT_FALSE(wave.rows[k]) << k;
  }
}

TEST(WaveLadder, WithoutFallbackOrToleranceTheErrorNamesTheDeadTargets) {
  const Ladder ladder;
  const auto spec = "faulty:cache:16:fail:0.5:seed:3";
  // A fresh oracle replays the same schedule: the tolerated run learns
  // which targets die, the strict run must name exactly those.
  std::vector<graph::NodeId> dead;
  {
    const auto faulty = graph::make_oracle(spec, ladder.g);
    resilience::VirtualClock clock;
    WaveRows wave;
    fetch_wave(*faulty, ladder.targets, nullptr, true, clock, wave);
    for (std::size_t k = 0; k < ladder.targets.size(); ++k) {
      if (wave.source[k] == RowSource::kNone) dead.push_back(ladder.targets[k]);
    }
  }
  ASSERT_FALSE(dead.empty());
  const auto faulty = graph::make_oracle(spec, ladder.g);
  resilience::VirtualClock clock;
  WaveRows wave;
  try {
    fetch_wave(*faulty, ladder.targets, nullptr, false, clock, wave);
    FAIL() << "expected TransientOracleError";
  } catch (const resilience::TransientOracleError& error) {
    EXPECT_EQ(error.targets(), dead);
  }
}

}  // namespace
}  // namespace nav::api
