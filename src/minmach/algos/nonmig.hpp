// Non-migratory assign-at-release framework.
//
// Every non-migratory online algorithm in this library commits each job to
// one machine at its release (the natural model: a non-migratory algorithm
// gains nothing from delaying the commitment past a_j = r_j + l_j, and the
// lower-bound game of Section 3 observes commitments through processing).
// Per machine the dispatcher runs preemptive EDF over the assigned active
// jobs, which is optimal for a fixed assignment. Each machine keeps its
// commitments in (deadline ticks, id) order from the moment a job is
// committed; a grid refinement scales every deadline by one factor, so
// the order never goes stale. A dispatch re-decides only the machines a
// release, completion or miss touched since the last one (every other
// machine's EDF choice is unchanged) and runs the front active job of
// each. The admission test is Jackson's rule on the machine's commitments
// (every one of them is available at the release), merged with the new
// job in one ordered pass, so it decides EDF feasibility exactly. The
// dispatcher, the admission test and the machine loads read the
// simulator's grid view (ticks of now, deadlines and remaining wall time),
// so they add and compare integers at any machine speed.
//
// Subclasses only choose the machine. The provided fit rules are the
// opponent suite for the strong lower bound (experiment E1): a lower bound
// quantifies over all algorithms, the game is played against each of these.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "minmach/sim/engine.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {

class NonMigratoryPolicy : public OnlinePolicy {
 public:
  // The three event callbacks mark the machine they touch for the next
  // dispatch.
  void on_release(Simulator& sim, JobId job) final;
  void on_complete(Simulator& sim, JobId job) final;
  void on_miss(Simulator& sim, JobId job) final;
  void dispatch(Simulator& sim) override;

  // Machine the job was committed to (set at its release).
  [[nodiscard]] std::optional<std::size_t> machine_of(JobId job) const;
  [[nodiscard]] std::size_t open_machines() const { return assigned_.size(); }

 protected:
  // Decide the machine for the newly released job. Returning open_machines()
  // (or any index beyond) opens new machines.
  virtual std::size_t choose_machine(Simulator& sim, JobId job) = 0;

  // Machines on which the job, added to the existing commitments, is
  // EDF-feasible from now on (exact test, ascending order), in a pooled
  // buffer: the returned reference is valid until the next call on this
  // policy (any thread).
  [[nodiscard]] const std::vector<std::size_t>& feasible_machines_pooled(
      const Simulator& sim, JobId job) const;
  [[nodiscard]] bool machine_can_take(const Simulator& sim,
                                      std::size_t machine, JobId job) const;

  // Total remaining committed wall time on a machine, in the simulator's
  // ticks (valid until the grid next refines).
  [[nodiscard]] BigInt machine_load(const Simulator& sim,
                                    std::size_t machine) const;

  // The jobs committed to a machine, in (deadline ticks, id) order. Jobs
  // that finished or missed since the machine's last dispatch may still
  // be listed.
  [[nodiscard]] const std::vector<JobId>& jobs_on(std::size_t machine) const {
    return assigned_[machine];
  }

 private:
  void mark_dirty(std::size_t machine);

  std::vector<std::vector<JobId>> assigned_;
  std::vector<std::optional<std::size_t>> machine_by_job_;
  // Machines touched since the last dispatch, each listed once.
  std::vector<std::size_t> dirty_;
  std::vector<bool> is_dirty_;
  // Admission-test scratch, reused across the per-release probe of every
  // open machine (mutable: the probes are logically const queries).
  mutable BigInt finish_scratch_;  // the running prefix finish, in ticks
  mutable std::vector<std::size_t> feasible_scratch_;
};

enum class FitRule {
  kFirstFit,    // lowest-index feasible machine
  kBestFit,     // feasible machine with the largest remaining load
  kWorstFit,    // feasible machine with the smallest remaining load
  kRandomFit,   // uniformly random feasible machine
  kNextFit,     // round-robin cursor over feasible machines
};

[[nodiscard]] const char* fit_rule_name(FitRule rule);

// Opens a new machine iff no existing machine passes the exact EDF
// admission test.
class FitPolicy : public NonMigratoryPolicy {
 public:
  explicit FitPolicy(FitRule rule, std::uint64_t seed = 1);

  [[nodiscard]] std::string name() const override;

 protected:
  std::size_t choose_machine(Simulator& sim, JobId job) override;

 private:
  FitRule rule_;
  Rng rng_;
  std::size_t cursor_ = 0;
};

}  // namespace minmach
