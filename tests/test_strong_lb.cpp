#include "minmach/adversary/strong_lb.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "minmach/algos/mediumfit.hpp"
#include "minmach/algos/nonpreemptive.hpp"
#include "minmach/algos/scale_class.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/obs/trace.hpp"
#include "reference_strong_lb.hpp"

namespace minmach {
namespace {

TEST(StrongLb, RejectsBadParameters) {
  FitPolicy policy(FitRule::kFirstFit);
  EXPECT_THROW((void)run_strong_lower_bound(policy, 1), std::invalid_argument);
  StrongLbParams bad;
  bad.alpha = Rat(1, 4);  // <= 1/2
  EXPECT_THROW((void)run_strong_lower_bound(policy, 2, bad),
               std::invalid_argument);
  StrongLbParams bad2;
  bad2.beta = Rat(2, 5);
  bad2.alpha = Rat(51, 100);  // Eq. (1) fails: floor(0.05/0.4)=0
  EXPECT_THROW((void)run_strong_lower_bound(policy, 2, bad2),
               std::invalid_argument);
}

TEST(StrongLb, BaseGadgetForcesTwoMachines) {
  FitPolicy policy(FitRule::kFirstFit);
  StrongLbResult result = run_strong_lower_bound(policy, 2);
  EXPECT_EQ(result.critical_jobs.size(), 2u);
  EXPECT_FALSE(result.opponent_missed_deadline);
  EXPECT_GE(result.machines_used, 2u);
  // The released instance is migratory-feasible on 3 machines (Lemma 2 ii)
  // -- in fact the base gadget even fits on 2.
  EXPECT_TRUE(feasible_migratory(result.instance, 3));
}

struct LbCase {
  FitRule rule;
  int levels;
};

class StrongLbGameTest : public ::testing::TestWithParam<LbCase> {};

TEST_P(StrongLbGameTest, ForcesKMachinesWhileOptStaysThree) {
  FitPolicy policy(GetParam().rule, /*seed=*/987);
  StrongLbResult result = run_strong_lower_bound(policy, GetParam().levels);

  // (i) the opponent was forced to k distinct machines.
  EXPECT_GE(result.machines_used,
            static_cast<std::size_t>(GetParam().levels));
  EXPECT_EQ(result.critical_jobs.size(),
            static_cast<std::size_t>(GetParam().levels));
  EXPECT_FALSE(result.opponent_missed_deadline);

  // (ii) the full released instance has a migratory schedule on <= 3
  // machines (certified exactly by max flow).
  EXPECT_TRUE(feasible_migratory(result.instance, 3))
      << "migratory OPT = "
      << optimal_migratory_machines(result.instance);

  // Job count grows as O(2^k).
  EXPECT_LE(result.jobs, std::size_t{1} << (GetParam().levels + 2));
}

INSTANTIATE_TEST_SUITE_P(
    Opponents, StrongLbGameTest,
    ::testing::Values(LbCase{FitRule::kFirstFit, 4},
                      LbCase{FitRule::kBestFit, 4},
                      LbCase{FitRule::kWorstFit, 4},
                      LbCase{FitRule::kNextFit, 4},
                      LbCase{FitRule::kRandomFit, 3},
                      LbCase{FitRule::kFirstFit, 6}),
    [](const ::testing::TestParamInfo<LbCase>& info) {
      return std::string(fit_rule_name(info.param.rule)) + "_k" +
             std::to_string(info.param.levels);
    });

TEST(StrongLb, OpponentScheduleIsValidNonMigratory) {
  FitPolicy policy(FitRule::kFirstFit);
  StrongLbResult result = run_strong_lower_bound(policy, 4);
  // Replay the instance against a fresh policy to inspect the schedule.
  FitPolicy fresh(FitRule::kFirstFit);
  SimRun run = simulate(fresh, result.instance, Rat(1),
                        /*require_no_miss=*/true);
  ValidateOptions options;
  options.require_non_migratory = true;
  auto validation = validate(result.instance, run.schedule, options);
  EXPECT_TRUE(validation.ok) << validation.summary();
}

TEST(StrongLb, NonPreemptiveOpponentsAreForcedToo) {
  // The generalized entry point attacks reservation-based (non-preemptive)
  // policies as well; the adversary's Case-2 job cannot fit any critical
  // machine's reservation book either.
  {
    MediumFitPolicy policy;
    StrongLbResult result = run_strong_lower_bound(policy, 4);
    EXPECT_GE(result.machines_used, 4u);
    EXPECT_TRUE(feasible_migratory(result.instance, 3));
  }
  {
    NonPreemptiveGreedyPolicy policy;
    StrongLbResult result = run_strong_lower_bound(policy, 4);
    EXPECT_GE(result.machines_used, 4u);
    EXPECT_TRUE(feasible_migratory(result.instance, 3));
  }
  {
    ScaleClassPolicy policy;
    StrongLbResult result = run_strong_lower_bound(policy, 4);
    EXPECT_GE(result.machines_used, 4u);
    EXPECT_TRUE(feasible_migratory(result.instance, 3));
  }
}

TEST(StrongLb, MachinesGrowWithLevels) {
  std::size_t previous = 0;
  for (int k = 2; k <= 5; ++k) {
    FitPolicy policy(FitRule::kFirstFit);
    StrongLbResult result = run_strong_lower_bound(policy, k);
    EXPECT_GE(result.machines_used, static_cast<std::size_t>(k));
    EXPECT_GE(result.machines_used, previous);
    previous = result.machines_used;
  }
}

// --- The adversary on the time grid against the Rat reference ---
//
// The library's adversary keeps every time and length in ticks of the
// simulator's grid; tests/reference_strong_lb.hpp plays the same game on
// canonical Rats through the simulator's Rat entry points. Each game is
// played by both against fresh copies of the same policy, and everything
// either leaves behind must be equal: the result, the deterministic
// metrics (den_bits and level_depth histograms, case counters, the
// simulator's event counts) and the trace; or the same invariant error.

struct GameRecord {
  std::optional<StrongLbResult> result;
  std::string error;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, obs::HistogramData> histograms;
  std::string trace;
};

using Game = std::function<StrongLbResult()>;

GameRecord record(const Game& play) {
  GameRecord out;
  obs::Registry::global().reset();
  std::ostringstream trace;
  obs::TraceSink sink(trace);
  obs::TraceSink::set_global(&sink);
  try {
    out.result = play();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  obs::TraceSink::set_global(nullptr);
  obs::Snapshot metrics = obs::Registry::global().snapshot();
  out.counters = std::move(metrics.counters);
  out.histograms = std::move(metrics.histograms);
  out.trace = trace.str();
  return out;
}

void expect_same_game(const GameRecord& got, const GameRecord& want) {
  EXPECT_EQ(got.error, want.error);
  ASSERT_EQ(got.result.has_value(), want.result.has_value());
  EXPECT_EQ(got.counters, want.counters);
  EXPECT_TRUE(got.histograms == want.histograms);
  for (const char* name : {"adversary.den_bits", "adversary.level_depth"}) {
    ASSERT_TRUE(got.histograms.contains(name)) << name;
    const obs::HistogramData& mine = got.histograms.at(name);
    const obs::HistogramData& theirs = want.histograms.at(name);
    EXPECT_GT(mine.count, 0u) << name;
    EXPECT_EQ(mine.count, theirs.count) << name;
    EXPECT_EQ(mine.sum, theirs.sum) << name;
    EXPECT_EQ(mine.max, theirs.max) << name;
  }
  EXPECT_FALSE(got.trace.empty());
  EXPECT_EQ(got.trace, want.trace);
  if (!got.result) return;
  const StrongLbResult& mine = *got.result;
  const StrongLbResult& theirs = *want.result;
  EXPECT_TRUE(mine.instance.jobs() == theirs.instance.jobs());
  EXPECT_EQ(mine.critical_jobs, theirs.critical_jobs);
  EXPECT_EQ(mine.critical_time, theirs.critical_time);
  EXPECT_EQ(mine.machines_used, theirs.machines_used);
  EXPECT_EQ(mine.jobs, theirs.jobs);
  EXPECT_EQ(mine.opponent_missed_deadline, theirs.opponent_missed_deadline);
  ASSERT_EQ(mine.level_slices.size(), theirs.level_slices.size());
  for (std::size_t i = 0; i < mine.level_slices.size(); ++i) {
    EXPECT_EQ(mine.level_slices[i].level, theirs.level_slices[i].level);
    EXPECT_EQ(mine.level_slices[i].job_begin, theirs.level_slices[i].job_begin);
    EXPECT_EQ(mine.level_slices[i].job_end, theirs.level_slices[i].job_end);
  }
}

// The (alpha, beta) pairs of inequality (1) that perfbench plays.
const std::vector<std::pair<Rat, Rat>> kAlphaBeta = {
    {Rat(3, 4), Rat(1, 4)},
    {Rat(3, 4), Rat(1, 5)},
    {Rat(4, 5), Rat(1, 5)},
    {Rat(5, 6), Rat(1, 6)}};

// Plays every level in [lowest, highest] at every (alpha, beta) pair with
// both adversaries, each against its own policy from `make_policy`.
template <class Policy>
void expect_matches_reference(
    const std::function<std::unique_ptr<Policy>()>& make_policy, int lowest,
    int highest) {
  for (const auto& [alpha, beta] : kAlphaBeta) {
    StrongLbParams params;
    params.alpha = alpha;
    params.beta = beta;
    for (int levels = lowest; levels <= highest; ++levels) {
      SCOPED_TRACE("alpha " + alpha.to_string() + " beta " +
                   beta.to_string() + " levels " + std::to_string(levels));
      const GameRecord got = record(
          [&] {
            std::unique_ptr<Policy> policy = make_policy();
            return run_strong_lower_bound(*policy, levels, params);
          });
      const GameRecord want = record(
          [&] {
            std::unique_ptr<Policy> policy = make_policy();
            Policy& opponent = *policy;
            return reference::run_strong_lower_bound(
                opponent,
                [&opponent](JobId id) { return opponent.machine_of(id); },
                levels, params);
          });
      // The paper's construction forces every one of these opponents.
      EXPECT_EQ(got.error, "");
      expect_same_game(got, want);
    }
  }
}

struct FitCase {
  FitRule rule;
  std::uint64_t seed;
};

// Keeps the ctest names free of the struct's padding bytes.
void PrintTo(const FitCase& fit, std::ostream* os) {
  *os << fit_rule_name(fit.rule) << " seed " << fit.seed;
}

class StrongLbReferenceTest : public ::testing::TestWithParam<FitCase> {};

TEST_P(StrongLbReferenceTest, GridGameEqualsRatGame) {
  const FitCase fit = GetParam();
  expect_matches_reference<FitPolicy>(
      [fit] { return std::make_unique<FitPolicy>(fit.rule, fit.seed); }, 2, 7);
}

INSTANTIATE_TEST_SUITE_P(
    FitRules, StrongLbReferenceTest,
    ::testing::Values(FitCase{FitRule::kFirstFit, 1},
                      FitCase{FitRule::kBestFit, 1},
                      FitCase{FitRule::kWorstFit, 1},
                      FitCase{FitRule::kNextFit, 1},
                      FitCase{FitRule::kRandomFit, 1},
                      FitCase{FitRule::kRandomFit, 7},
                      FitCase{FitRule::kRandomFit, 29}),
    [](const ::testing::TestParamInfo<FitCase>& info) {
      return std::string(fit_rule_name(info.param.rule)) + "_seed" +
             std::to_string(info.param.seed);
    });

// The reservation policies' wake-ups (MediumFit's start times, ScaleClass's
// class boundaries) refine the grid in the middle of the game, between the
// adversary's own steps.
TEST(StrongLbReference, MediumFitGameEqualsRatGame) {
  expect_matches_reference<MediumFitPolicy>(
      [] { return std::make_unique<MediumFitPolicy>(); }, 2, 5);
}

TEST(StrongLbReference, NonPreemptiveGreedyGameEqualsRatGame) {
  expect_matches_reference<NonPreemptiveGreedyPolicy>(
      [] { return std::make_unique<NonPreemptiveGreedyPolicy>(); }, 2, 5);
}

TEST(StrongLbReference, ScaleClassGameEqualsRatGame) {
  expect_matches_reference<ScaleClassPolicy>(
      [] { return std::make_unique<ScaleClassPolicy>(); }, 2, 5);
}

}  // namespace
}  // namespace minmach
