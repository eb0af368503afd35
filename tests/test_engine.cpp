#include "minmach/sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "minmach/algos/edf.hpp"
#include "minmach/algos/llf.hpp"
#include "minmach/algos/nonmig.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

// Runs every active job on its own machine (machine index == job id).
class OnePerMachinePolicy : public OnlinePolicy {
 public:
  void on_release(Simulator&, JobId) override {}
  void dispatch(Simulator& sim) override {
    for (JobId id = 0; id < sim.job_count(); ++id) {
      if (sim.released(id) && !sim.finished(id) && !sim.missed(id))
        sim.set_running(id, id);
      else if (id < sim.machine_slots() && sim.running_on(id) == id)
        sim.set_running(id, kInvalidJob);
    }
  }
  [[nodiscard]] std::string name() const override { return "OnePerMachine"; }
};

// Never runs anything (to test deadline misses).
class IdlePolicy : public OnlinePolicy {
 public:
  void on_release(Simulator&, JobId) override {}
  void dispatch(Simulator&) override {}
  [[nodiscard]] std::string name() const override { return "Idle"; }
};

TEST(Simulator, RunsJobsToCompletion) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 4, 2));
  sim.submit(mk(1, 5, 3));
  sim.run_to_completion();
  EXPECT_TRUE(sim.all_done());
  EXPECT_FALSE(sim.any_missed());
  EXPECT_EQ(sim.machines_used(), 2u);
  Schedule s = sim.schedule();
  auto result = validate(sim.instance(), s);
  EXPECT_TRUE(result.ok) << result.summary();
  // Jobs ran greedily from release.
  EXPECT_EQ(s.slots(0)[0].start, Rat(0));
  EXPECT_EQ(s.slots(0)[0].end, Rat(2));
  EXPECT_EQ(s.slots(1)[0].start, Rat(1));
  EXPECT_EQ(s.slots(1)[0].end, Rat(4));
}

TEST(Simulator, DetectsDeadlineMiss) {
  IdlePolicy policy;
  Simulator sim(policy);
  JobId id = sim.submit(mk(0, 2, 1));
  sim.run_until(Rat(5));
  EXPECT_TRUE(sim.missed(id));
  EXPECT_TRUE(sim.any_missed());
  EXPECT_EQ(sim.missed_jobs().size(), 1u);
  EXPECT_TRUE(sim.all_done());  // missed jobs leave the system
}

TEST(Simulator, ExactCompletionAtDeadlineIsNotAMiss) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  JobId id = sim.submit(mk(0, 2, 2));  // zero laxity
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(id));
  EXPECT_FALSE(sim.any_missed());
}

TEST(Simulator, FutureReleaseAndInterleavedSubmission) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 10, 1));
  sim.run_until(Rat(3));
  // Adversary-style: submit mid-run with a future release.
  JobId late = sim.submit(mk(5, 8, 2));
  EXPECT_THROW((void)sim.submit(mk(1, 8, 2)), std::invalid_argument);
  sim.run_until(Rat(4));
  EXPECT_FALSE(sim.released(late));
  sim.run_until(Rat(5));
  EXPECT_TRUE(sim.released(late));
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(late));
}

TEST(Simulator, RemainingTracksProcessing) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  JobId id = sim.submit(mk(0, 10, 4));
  sim.run_until(Rat(3, 2));
  EXPECT_EQ(sim.remaining(id), Rat(5, 2));
}

TEST(Simulator, SpeedScalesProcessing) {
  OnePerMachinePolicy policy;
  Simulator sim(policy, Rat(2));
  JobId id = sim.submit(mk(0, 3, 4));
  sim.run_until(Rat(1));
  EXPECT_EQ(sim.remaining(id), Rat(2));
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(id));
  ValidateOptions options;
  options.speed = Rat(2);
  EXPECT_TRUE(validate(sim.instance(), sim.schedule(), options).ok);
}

TEST(Simulator, RejectsBadUsage) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  EXPECT_THROW((void)sim.submit(mk(0, 1, 2)), std::invalid_argument);  // malformed
  sim.submit(mk(0, 4, 2));
  sim.run_until(Rat(1));
  EXPECT_THROW(sim.run_until(Rat(0)), std::invalid_argument);  // backwards
}

TEST(Simulator, RejectsDispatchOfInactiveJobs) {
  class BadPolicy : public OnlinePolicy {
   public:
    void on_release(Simulator&, JobId) override {}
    void dispatch(Simulator& sim) override {
      if (sim.job_count() > 1) sim.set_running(0, 1);  // job 1 not released
    }
    [[nodiscard]] std::string name() const override { return "Bad"; }
  };
  BadPolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 4, 1));
  sim.submit(mk(2, 4, 1));
  EXPECT_THROW(sim.run_until(Rat(1)), std::logic_error);
}

TEST(Simulator, RejectsJobOnTwoMachines) {
  class DoublePolicy : public OnlinePolicy {
   public:
    void on_release(Simulator&, JobId) override {}
    void dispatch(Simulator& sim) override {
      if (sim.job_count() > 0 && sim.released(0) && !sim.finished(0)) {
        sim.set_running(0, 0);
        sim.set_running(1, 0);
      }
    }
    [[nodiscard]] std::string name() const override { return "Double"; }
  };
  DoublePolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 4, 1));
  EXPECT_THROW(sim.run_until(Rat(1)), std::logic_error);
}

// Runs job 0 on machine 0 in the first dispatch and on machine 1 in every
// later one, clearing machine 0 first when `reset_first` is set.
class MovingPolicy : public OnlinePolicy {
 public:
  explicit MovingPolicy(bool reset_first) : reset_first_(reset_first) {}
  void on_release(Simulator&, JobId) override {}
  void dispatch(Simulator& sim) override {
    if (!sim.released(0) || sim.finished(0)) return;
    if (dispatches_++ == 0) {
      sim.set_running(0, 0);
      return;
    }
    if (reset_first_) sim.set_running(0, kInvalidJob);
    sim.set_running(1, 0);
  }
  [[nodiscard]] std::string name() const override { return "Moving"; }

 private:
  bool reset_first_;
  int dispatches_ = 0;
};

TEST(Simulator, AcceptsAJobMovedToAnotherMachine) {
  MovingPolicy policy(/*reset_first=*/true);
  Simulator sim(policy);
  sim.submit(mk(0, 4, 2));
  sim.run_until(Rat(1));
  EXPECT_EQ(sim.running_on(0), kInvalidJob);
  EXPECT_EQ(sim.running_on(1), 0u);
  sim.run_to_completion();
  EXPECT_EQ(sim.schedule().to_string(),
            "Schedule(2 machines)\n  M0: [0,1)j0\n  M1: [1,2)j0\n");
  EXPECT_EQ(sim.stats().migrations, 1u);
}

TEST(Simulator, RejectsAJobLeftOnItsPreviousMachine) {
  MovingPolicy policy(/*reset_first=*/false);
  Simulator sim(policy);
  sim.submit(mk(0, 4, 2));
  try {
    sim.run_until(Rat(1));
    FAIL() << "a job on two machines was accepted";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "Simulator: job dispatched on two machines");
  }
}

TEST(Simulator, SimulateHelper) {
  OnePerMachinePolicy policy;
  Instance in({mk(0, 4, 2), mk(0, 4, 2)});
  SimRun run = simulate(policy, in);
  EXPECT_FALSE(run.missed);
  EXPECT_EQ(run.machines_used, 2u);
  EXPECT_TRUE(validate(in, run.schedule).ok);

  IdlePolicy idle;
  EXPECT_THROW((void)simulate(idle, in), std::runtime_error);
  SimRun tolerant = simulate(idle, in, Rat(1), /*require_no_miss=*/false);
  EXPECT_TRUE(tolerant.missed);
}

// --- The time grid ---
//
// The simulator keeps every time as ticks over one grid denominator that
// refines as off-grid values arrive. These tests replay instances whose
// jobs carry their own denominators, submitting each job only once the
// simulation has reached its release, so the grid refines mid-run while
// releases are pending, jobs are running and trace slots sit on older
// grids. Each replay is compared with the replay of the same instance
// pre-scaled to integers, on which the grid never refines.

// Forwards to a policy and checks at every event that the Rat views equal
// the grid view.
class GridCheckedPolicy : public OnlinePolicy {
 public:
  explicit GridCheckedPolicy(OnlinePolicy& inner) : inner_(inner) {}

  void on_release(Simulator& sim, JobId job) override {
    check(sim);
    inner_.on_release(sim, job);
  }
  void on_complete(Simulator& sim, JobId job) override {
    check(sim);
    inner_.on_complete(sim, job);
  }
  void on_miss(Simulator& sim, JobId job) override {
    check(sim);
    inner_.on_miss(sim, job);
  }
  void dispatch(Simulator& sim) override {
    check(sim);
    inner_.dispatch(sim);
  }
  std::optional<Rat> next_wakeup(const Simulator& sim) override {
    check(sim);
    return inner_.next_wakeup(sim);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] std::size_t checks() const { return checks_; }

 private:
  void check(const Simulator& sim) {
    // A run whose events pile up toward one instant fails, not hangs.
    if (++checks_ > 100000)
      throw std::runtime_error("events pile up toward one instant");
    ASSERT_EQ(sim.now(), Rat(sim.now_ticks(), sim.grid()));
    for (JobId id = 0; id < sim.job_count(); ++id) {
      const Rat wall(sim.remaining_ticks(id), sim.grid());
      ASSERT_EQ(sim.remaining(id), wall * sim.speed()) << "job " << id;
      if (sim.finished(id)) {
        ASSERT_TRUE(sim.remaining_ticks(id).is_zero()) << "job " << id;
        continue;
      }
      ASSERT_EQ(Rat(sim.deadline_ticks(id), sim.grid()), sim.job(id).deadline)
          << "job " << id;
    }
  }

  OnlinePolicy& inner_;
  std::size_t checks_ = 0;
};

// What one replay leaves behind, in the instance's own time unit.
struct Replay {
  std::string schedule;
  SimStats stats;
  std::size_t machines_used = 0;
  std::vector<JobId> missed;
  std::vector<std::optional<std::size_t>> machine_of;
  BigInt grid;
  std::size_t checks = 0;
};

// The policies under test, built fresh per replay. `time_scale` multiplies
// every time the policy is given (LLF's quantum).
using PolicyFactory =
    std::function<std::unique_ptr<OnlinePolicy>(const Rat& time_scale)>;

// Submits the jobs in release order, each after run_until(r_{j - lag}), then
// runs to completion. Times are multiplied by `scale` on the way in and
// divided by it on the way out.
Replay replay(const Instance& instance, const PolicyFactory& make_policy,
              const Rat& speed, const Rat& scale, std::size_t lag) {
  std::unique_ptr<OnlinePolicy> policy = make_policy(scale);
  GridCheckedPolicy checked(*policy);
  Simulator sim(checked, speed);
  const std::vector<Job>& jobs = instance.jobs();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sim.run_until(jobs[j < lag ? 0 : j - lag].release * scale);
    sim.submit({jobs[j].release * scale, jobs[j].deadline * scale,
                jobs[j].processing * scale});
  }
  sim.run_to_completion();

  Replay out;
  Schedule unscaled;
  const Schedule scaled = sim.schedule();
  for (std::size_t m = 0; m < scaled.machine_count(); ++m)
    for (const Slot& slot : scaled.slots(m))
      unscaled.add_slot(m, slot.start / scale, slot.end / scale, slot.job);
  unscaled.canonicalize();
  out.schedule = unscaled.to_string();
  out.stats = sim.stats();
  out.machines_used = sim.machines_used();
  out.missed = sim.missed_jobs();
  if (auto* nonmig = dynamic_cast<NonMigratoryPolicy*>(policy.get()))
    for (JobId id = 0; id < jobs.size(); ++id)
      out.machine_of.push_back(nonmig->machine_of(id));
  out.grid = sim.grid();
  out.checks = checked.checks();
  return out;
}

// Gives every job its own denominator q from {1, 2, 3, 5, 7}: an integer
// job (r, d, p) becomes (r + 1/q, d + 1/q, p - 1/q), sorted by release.
Instance with_job_denominators(const Instance& integral, Rng& rng) {
  static const std::int64_t kDenominators[] = {1, 2, 3, 5, 7};
  std::vector<Job> jobs;
  for (const Job& job : integral.jobs()) {
    const std::int64_t q = kDenominators[rng.uniform_int(0, 4)];
    const Rat shift = q == 1 ? Rat(0) : Rat(1, q);
    jobs.push_back({job.release + shift, job.deadline + shift,
                    job.processing - shift});
  }
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.release < b.release;
  });
  return Instance(std::move(jobs));
}

std::vector<Instance> grid_instances(std::uint64_t seed) {
  GenConfig config;
  config.n = 14;
  config.horizon = 24;
  config.max_window = 8;
  config.denominator = 1;
  const Rat alpha(1, 2);
  Rng rng(seed);
  std::vector<Instance> integral = {
      gen_general(rng, config),
      gen_agreeable(rng, config),
      gen_laminar(rng, config),
      gen_loose(rng, config, alpha),
      gen_tight(rng, config, alpha),
      gen_agreeable_tight(rng, config, alpha),
      gen_laminar_tight(rng, config, alpha),
      gen_unit(rng, config),
  };
  std::vector<Instance> out;
  for (const Instance& instance : integral)
    out.push_back(with_job_denominators(instance, rng));
  return out;
}

// The lcm of every denominator in the instance, times the speed's
// numerator (so every wall time p / speed is an integer too) and the
// denominator of `extra` (LLF's quantum).
BigInt integer_scale(const Instance& instance, const Rat& speed,
                     const Rat& extra) {
  BigInt scale = extra.den();
  for (const Job& job : instance.jobs())
    for (const Rat* value : {&job.release, &job.deadline, &job.processing})
      scale = BigInt::lcm(scale, value->den());
  return scale * speed.num();
}

// Replays every family at speeds 1 and 5/4 with lags 0 and 2, against the
// integer replay. `laxity_counts_work` marks LLF, whose laxity counts
// remaining work rather than wall time, so that at speed 5/4 its
// crossings leave the pre-scaled instance's integer grid.
void expect_grid_replays_match(const PolicyFactory& make_policy,
                               const Rat& quantum, bool laxity_counts_work) {
  for (std::uint64_t seed : {11u, 12u}) {
    const std::vector<Instance> instances = grid_instances(seed);
    for (std::size_t family = 0; family < instances.size(); ++family) {
      const Instance& instance = instances[family];
      for (const Rat& speed : {Rat(1), Rat(5, 4)}) {
        const Rat scale(integer_scale(instance, speed, quantum), BigInt(1));
        for (std::size_t lag : {0u, 2u}) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " family " +
                       std::to_string(family) + " speed " + speed.to_string() +
                       " lag " + std::to_string(lag));
          const Replay grid = replay(instance, make_policy, speed, Rat(1), lag);
          const Replay integer =
              replay(instance, make_policy, speed, scale, lag);
          EXPECT_EQ(grid.schedule, integer.schedule);
          EXPECT_EQ(grid.stats.releases, integer.stats.releases);
          EXPECT_EQ(grid.stats.completions, integer.stats.completions);
          EXPECT_EQ(grid.stats.misses, integer.stats.misses);
          EXPECT_EQ(grid.stats.dispatches, integer.stats.dispatches);
          EXPECT_EQ(grid.stats.preemptions, integer.stats.preemptions);
          EXPECT_EQ(grid.stats.migrations, integer.stats.migrations);
          EXPECT_EQ(grid.machines_used, integer.machines_used);
          EXPECT_EQ(grid.missed, integer.missed);
          EXPECT_EQ(grid.machine_of, integer.machine_of);
          EXPECT_EQ(grid.stats.releases, instance.size());
          EXPECT_GT(grid.checks, instance.size());
          // The per-job denominators refined the grid; the pre-scaled
          // instance never did.
          EXPECT_NE(grid.grid, BigInt(1));
          if (!laxity_counts_work || speed == Rat(1)) {
            EXPECT_EQ(integer.grid, BigInt(1));
          }
        }
      }
    }
  }
}

TEST(SimulatorGrid, FirstFitReplaysMatchTheIntegerGrid) {
  expect_grid_replays_match(
      [](const Rat&) {
        return std::make_unique<FitPolicy>(FitRule::kFirstFit);
      },
      Rat(0), false);
}

TEST(SimulatorGrid, BestFitReplaysMatchTheIntegerGrid) {
  expect_grid_replays_match(
      [](const Rat&) {
        return std::make_unique<FitPolicy>(FitRule::kBestFit);
      },
      Rat(0), false);
}

TEST(SimulatorGrid, EdfReplaysMatchTheIntegerGrid) {
  expect_grid_replays_match(
      [](const Rat&) { return std::make_unique<EdfPolicy>(2); }, Rat(0), false);
}

TEST(SimulatorGrid, LlfWithQuantumReplaysMatchTheIntegerGrid) {
  const Rat quantum(1, 2);
  expect_grid_replays_match(
      [quantum](const Rat& scale) {
        return std::make_unique<LlfPolicy>(2, quantum * scale);
      },
      quantum, true);
}

TEST(SimulatorGrid, MissedJobRemainingStaysExactAcrossRefinements) {
  for (const Rat& speed : {Rat(1), Rat(5, 4)}) {
    SCOPED_TRACE("speed " + speed.to_string());
    EdfPolicy policy(1);
    Simulator sim(policy, speed);
    // EDF on one machine runs b over [0, 1/speed), then a until its
    // deadline 2, where a misses with 7/4 - (2 - 1/speed) * speed of work
    // left.
    const JobId a = sim.submit({Rat(0), Rat(2), Rat(7, 4)});
    sim.submit({Rat(0), Rat(1), Rat(1)});
    sim.run_until(Rat(2));
    ASSERT_TRUE(sim.missed(a));
    const Rat left = Rat(7, 4) - (Rat(2) - Rat(1) / speed) * speed;
    ASSERT_TRUE(left.is_positive());
    EXPECT_EQ(sim.remaining(a), left);
    // Each later submit puts a new prime on the grid.
    for (std::int64_t q : {3, 7, 11, 13}) {
      const BigInt before = sim.grid();
      sim.submit({Rat(2 * q + 1, q), Rat(4 * q + 1, q), Rat(1, q)});
      EXPECT_NE(sim.grid(), before);
      EXPECT_EQ(sim.remaining(a), left);
    }
    sim.run_to_completion();
    EXPECT_EQ(sim.remaining(a), left);
    EXPECT_EQ(sim.missed_jobs(), std::vector<JobId>{a});
  }
}

// Runs every active job with an even id on its own machine and leaves the
// odd ones waiting, so they miss; records the time of every miss.
class EvenOnlyPolicy : public OnlinePolicy {
 public:
  void on_release(Simulator&, JobId) override {}
  void on_miss(Simulator& sim, JobId job) override {
    misses.emplace_back(job, sim.now());
  }
  void dispatch(Simulator& sim) override {
    for (JobId id = 0; id < sim.job_count(); id += 2) {
      if (sim.released(id) && !sim.finished(id) && !sim.missed(id))
        sim.set_running(id, id);
      else if (id < sim.machine_slots())
        sim.set_running(id, kInvalidJob);
    }
  }
  [[nodiscard]] std::string name() const override { return "EvenOnly"; }

  std::vector<std::pair<JobId, Rat>> misses;
};

TEST(SimulatorGrid, MissesFireAtTheirDeadlinesAfterRefinements) {
  // Short even jobs finish early and leave stale entries all through the
  // deadline heap; each refinement drops them while the odd jobs are still
  // waiting for their deadlines, scattered over [1, 12] (and 20 for the
  // odd one of the three refining jobs). The deadlines are chosen so that
  // the heap left after dropping the stale entries is no heap unless it
  // is rebuilt.
  EvenOnlyPolicy policy;
  Simulator sim(policy);
  const std::int64_t even_deadlines[] = {2, 17, 10, 19, 9, 8, 17, 19, 19, 17};
  const std::int64_t odd_deadlines[] = {4, 10, 9, 3, 6, 5, 12, 7, 1, 11};
  for (std::int64_t i = 0; i < 10; ++i) {
    sim.submit({Rat(0), Rat(even_deadlines[i]), Rat(1, 8 + i)});
    sim.submit({Rat(0), Rat(odd_deadlines[i]), Rat(1, 2)});
  }
  sim.run_until(Rat(1, 2));
  for (std::int64_t q : {29, 23, 19}) {  // primes off the grid so far
    const BigInt before = sim.grid();
    sim.submit({Rat(1, 2) + Rat(1, q), Rat(20), Rat(1, q)});
    EXPECT_NE(sim.grid(), before);
    sim.run_until(Rat(1, 2) + Rat(1, q));
  }
  sim.run_to_completion();
  ASSERT_EQ(policy.misses.size(), 11u);
  for (const auto& [job, when] : policy.misses) {
    EXPECT_EQ(job % 2, 1u);
    EXPECT_EQ(when, sim.job(job).deadline) << "job " << job;
  }
  for (std::size_t i = 1; i < policy.misses.size(); ++i)
    EXPECT_LT(policy.misses[i - 1].second, policy.misses[i].second);
}

// Runs every active job on its own machine and, from next_wakeup, sets one
// more job running behind the simulator's back, after the completions have
// been read: the slice then overshoots that job's completion.
class LateDispatchPolicy : public OnlinePolicy {
 public:
  void on_release(Simulator& sim, JobId) override { sim_ = &sim; }
  void dispatch(Simulator& sim) override {
    if (sim.released(0) && !sim.finished(0)) sim.set_running(0, 0);
  }
  std::optional<Rat> next_wakeup(const Simulator&) override {
    if (sim_ != nullptr && sim_->released(1) && !sim_->finished(1))
      sim_->set_running(1, 1);
    return std::nullopt;
  }
  [[nodiscard]] std::string name() const override { return "LateDispatch"; }

 private:
  Simulator* sim_ = nullptr;
};

std::string error_of(const std::function<void()>& action) {
  try {
    action();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(SimulatorGrid, ErrorsAreUnchangedOffTheGrid) {
  OnePerMachinePolicy policy;
  Simulator sim(policy, Rat(5, 4));
  const std::string malformed = "Simulator: malformed job";
  // p / speed must fit the window: 5/4 of a window fits at speed 5/4, a
  // hair more does not, and p must be positive.
  EXPECT_EQ(error_of([&] { sim.submit({Rat(1, 3), Rat(2, 3), Rat(0)}); }),
            malformed);
  EXPECT_EQ(error_of([&] {
              sim.submit({Rat(1, 3), Rat(2, 3), Rat(5, 12) + Rat(1, 1000)});
            }),
            malformed);
  EXPECT_EQ(error_of([&] { sim.submit({Rat(1, 3), Rat(1, 7), Rat(1, 9)}); }),
            malformed);
  EXPECT_EQ(sim.job_count(), 0u);
  const JobId fits = sim.submit({Rat(1, 3), Rat(2, 3), Rat(5, 12)});
  sim.run_until(Rat(1, 2));
  EXPECT_EQ(error_of([&] { sim.submit({Rat(2, 5), Rat(3), Rat(1)}); }),
            "Simulator: release date in the past");
  EXPECT_EQ(error_of([&] { sim.run_until(Rat(3, 7)); }),
            "Simulator: cannot run backwards");
  // The refusals refined the grid but left the run intact.
  EXPECT_EQ(sim.job_count(), 1u);
  EXPECT_EQ(sim.now(), Rat(1, 2));
  EXPECT_EQ(sim.remaining(fits),
            Rat(5, 12) - (Rat(1, 2) - Rat(1, 3)) * Rat(5, 4));
  sim.run_to_completion();
  EXPECT_TRUE(sim.finished(fits));
  EXPECT_FALSE(sim.any_missed());
  EXPECT_EQ(sim.schedule().to_string(),
            "Schedule(1 machines)\n  M0: [1/3,2/3)j0\n");

  LateDispatchPolicy late;
  Simulator overshoot(late);
  overshoot.submit({Rat(0), Rat(10), Rat(5)});
  overshoot.submit({Rat(0), Rat(10), Rat(1, 3)});
  EXPECT_EQ(error_of([&] { overshoot.run_until(Rat(1)); }),
            "Simulator: job overshot its completion");
}

// --- The grid's write side ---
//
// submit_ticks(), run_until_ticks() and refine() take values in ticks of
// the current grid. A caller that puts its own values on the grid, the way
// submit(Job) and run_until(Rat) do, must leave the simulation exactly as
// the Rat entry points leave it.

// Refines the grid, if `value` lies off it, to lcm(grid, value's
// denominator): the refinement submit(Job) and run_until(Rat) make.
void refine_for(Simulator& sim, const Rat& value) {
  const BigIntDivMod split = BigInt::div_mod(sim.grid(), value.den());
  if (!split.remainder.is_zero())
    sim.refine(value.den() / BigInt::gcd(value.den(), split.remainder));
}

// `value` in ticks of a grid it lies on.
BigInt ticks(const Simulator& sim, const Rat& value) {
  return value.num() * (sim.grid() / value.den());
}

struct EntryReplay {
  std::string schedule;
  SimStats stats;
  std::vector<Job> jobs;
  std::vector<JobId> missed;
  std::size_t machines_used = 0;
  BigInt grid;
};

// Replays the instance as replay() does, at scale 1, through the Rat entry
// points or through the tick entry points.
EntryReplay replay_entry(const Instance& instance,
                         const PolicyFactory& make_policy, const Rat& speed,
                         std::size_t lag, bool via_ticks) {
  std::unique_ptr<OnlinePolicy> policy = make_policy(Rat(1));
  GridCheckedPolicy checked(*policy);
  Simulator sim(checked, speed);
  const std::vector<Job>& jobs = instance.jobs();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Rat& target = jobs[j < lag ? 0 : j - lag].release;
    const Job& job = jobs[j];
    if (!via_ticks) {
      sim.run_until(target);
      sim.submit(job);
      continue;
    }
    refine_for(sim, target);
    sim.run_until_ticks(ticks(sim, target));
    const Rat wall = job.processing / speed;
    for (const Rat* value : {&job.release, &job.deadline, &wall})
      refine_for(sim, *value);
    sim.submit_ticks(ticks(sim, job.release), ticks(sim, job.deadline),
                     ticks(sim, wall));
  }
  sim.run_to_completion();
  return {sim.schedule().to_string(), sim.stats(), sim.instance().jobs(),
          sim.missed_jobs(), sim.machines_used(), sim.grid()};
}

TEST(SimulatorTicks, TickEntryPointsReplayLikeTheRatOnes) {
  const std::vector<std::pair<std::string, PolicyFactory>> policies = {
      {"FirstFit",
       [](const Rat&) {
         return std::make_unique<FitPolicy>(FitRule::kFirstFit);
       }},
      {"Edf", [](const Rat&) { return std::make_unique<EdfPolicy>(2); }},
      {"Llf", [](const Rat&) {
         return std::make_unique<LlfPolicy>(2, Rat(1, 2));
       }}};
  for (const auto& [name, make_policy] : policies) {
    for (const Instance& instance : grid_instances(13)) {
      for (const Rat& speed : {Rat(1), Rat(5, 4)}) {
        for (std::size_t lag : {0u, 2u}) {
          SCOPED_TRACE(name + " speed " + speed.to_string() + " lag " +
                       std::to_string(lag));
          const EntryReplay rat =
              replay_entry(instance, make_policy, speed, lag, false);
          const EntryReplay tick =
              replay_entry(instance, make_policy, speed, lag, true);
          EXPECT_EQ(tick.schedule, rat.schedule);
          EXPECT_EQ(tick.stats.releases, rat.stats.releases);
          EXPECT_EQ(tick.stats.completions, rat.stats.completions);
          EXPECT_EQ(tick.stats.misses, rat.stats.misses);
          EXPECT_EQ(tick.stats.dispatches, rat.stats.dispatches);
          EXPECT_EQ(tick.stats.preemptions, rat.stats.preemptions);
          EXPECT_EQ(tick.stats.migrations, rat.stats.migrations);
          EXPECT_TRUE(tick.jobs == rat.jobs);
          EXPECT_TRUE(tick.jobs == instance.jobs());
          EXPECT_EQ(tick.missed, rat.missed);
          EXPECT_EQ(tick.machines_used, rat.machines_used);
          EXPECT_EQ(tick.grid, rat.grid);
          EXPECT_NE(tick.grid, BigInt(1));
        }
      }
    }
  }
}

TEST(SimulatorTicks, ValuesKeptAcrossARefinementReadOnTheNewGrid) {
  for (const Rat& speed : {Rat(1), Rat(5, 4)}) {
    SCOPED_TRACE("speed " + speed.to_string());
    EdfPolicy policy(1);
    Simulator sim(policy, speed);
    // EDF on one machine: b runs first and a misses at its deadline 2.
    const JobId a = sim.submit({Rat(0), Rat(2), Rat(7, 4)});
    const JobId b = sim.submit({Rat(0), Rat(1), Rat(1)});
    const JobId later = sim.submit({Rat(5, 2), Rat(6), Rat(1, 3)});
    sim.run_until(Rat(9, 4));
    ASSERT_TRUE(sim.missed(a));
    ASSERT_TRUE(sim.finished(b));
    const Rat now = sim.now();
    const Rat left = sim.remaining(a);
    const Rat later_left = sim.remaining(later);

    // Ticks taken on one grid: a deadline and a length.
    const BigInt grid_then = sim.grid();
    const BigInt deadline_then = sim.now_ticks() + sim.grid() * 3;  // now + 3
    const BigInt wall_then = sim.grid();                             // 1

    for (std::int64_t factor : {1, 2, 3, 35}) {
      sim.refine(BigInt(factor));
      EXPECT_EQ(sim.now(), now);
      EXPECT_EQ(sim.remaining(a), left);
      EXPECT_EQ(sim.remaining(later), later_left);
      EXPECT_EQ(Rat(sim.deadline_ticks(later), sim.grid()), Rat(6));
      EXPECT_EQ(sim.remaining_ticks(b), BigInt(0));
    }
    EXPECT_EQ(sim.grid(), grid_then * 210);

    // Read on the new grid, the kept values submit the job they meant.
    const BigInt rescale = sim.grid() / grid_then;
    const JobId held = sim.submit_ticks(sim.now_ticks(),
                                        deadline_then * rescale,
                                        wall_then * rescale);
    EXPECT_EQ(sim.job(held).release, now);
    EXPECT_EQ(sim.job(held).deadline, now + Rat(3));
    EXPECT_EQ(sim.job(held).processing, speed);
    sim.run_until_ticks(sim.now_ticks() + sim.grid());
    EXPECT_EQ(sim.now(), now + Rat(1));
    sim.run_to_completion();
    EXPECT_TRUE(sim.finished(held));
    EXPECT_TRUE(sim.finished(later));
    EXPECT_EQ(sim.missed_jobs(), std::vector<JobId>{a});
    EXPECT_EQ(sim.remaining(a), left);
  }
}

TEST(SimulatorTicks, RefinementFactorMustBePositive) {
  OnePerMachinePolicy policy;
  Simulator sim(policy);
  sim.submit(mk(0, 4, 2));
  for (std::int64_t factor : {0, -2}) {
    EXPECT_EQ(error_of([&] { sim.refine(BigInt(factor)); }),
              "Simulator: refinement factor below 1");
  }
  EXPECT_EQ(sim.grid(), BigInt(1));
}

TEST(SimulatorTicks, ErrorsAreTheSameOnBothPaths) {
  OnePerMachinePolicy rat_policy;
  OnePerMachinePolicy tick_policy;
  Simulator rat(rat_policy, Rat(5, 4));
  Simulator tick(tick_policy, Rat(5, 4));
  // On the grid 60 every value below lies on the grid: a job (r, d, p) is
  // (60 r, 60 d, 60 p / speed).
  tick.refine(BigInt(60));
  const auto submit_both = [&](const Job& job) {
    return std::pair{error_of([&] { rat.submit(job); }),
                     error_of([&] {
                       tick.submit_ticks(ticks(tick, job.release),
                                         ticks(tick, job.deadline),
                                         ticks(tick, job.processing /
                                                         tick.speed()));
                     })};
  };
  const std::string malformed = "Simulator: malformed job";
  for (const Job& job : {Job{Rat(1, 3), Rat(2, 3), Rat(0)},
                         Job{Rat(1, 3), Rat(2, 3), Rat(-5, 12)},
                         Job{Rat(1, 3), Rat(2, 3), Rat(5, 6)},
                         Job{Rat(1, 3), Rat(1, 6), Rat(5, 12)}}) {
    const auto [from_rat, from_ticks] = submit_both(job);
    EXPECT_EQ(from_rat, malformed);
    EXPECT_EQ(from_ticks, malformed);
  }
  EXPECT_EQ(rat.job_count(), 0u);
  EXPECT_EQ(tick.job_count(), 0u);
  const auto fits = submit_both({Rat(1, 3), Rat(2, 3), Rat(5, 12)});
  EXPECT_EQ(fits.first, "");
  EXPECT_EQ(fits.second, "");
  rat.run_until(Rat(1, 2));
  tick.run_until_ticks(BigInt(30));
  EXPECT_EQ(tick.now(), rat.now());
  const auto past = submit_both({Rat(1, 3), Rat(3), Rat(1)});
  EXPECT_EQ(past.first, "Simulator: release date in the past");
  EXPECT_EQ(past.second, past.first);
  const std::string backwards = "Simulator: cannot run backwards";
  EXPECT_EQ(error_of([&] { rat.run_until(Rat(5, 12)); }), backwards);
  EXPECT_EQ(error_of([&] { tick.run_until_ticks(BigInt(25)); }), backwards);
  // The refusals left both runs intact.
  EXPECT_EQ(tick.job_count(), 1u);
  EXPECT_EQ(tick.now(), Rat(1, 2));
  EXPECT_EQ(tick.remaining(0), rat.remaining(0));
  rat.run_to_completion();
  tick.run_to_completion();
  EXPECT_EQ(tick.schedule().to_string(), rat.schedule().to_string());
  EXPECT_TRUE(tick.instance().jobs() == rat.instance().jobs());
}

}  // namespace
}  // namespace minmach
