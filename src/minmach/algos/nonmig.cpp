#include "minmach/algos/nonmig.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace minmach {

namespace {

// EDF order on the simulator's grid: earlier deadline first, the lower id
// on a tie.
bool edf_before(const Simulator& sim, JobId a, JobId b) {
  const auto order = sim.deadline_ticks(a) <=> sim.deadline_ticks(b);
  return order < 0 || (order == 0 && a < b);
}

}  // namespace

void NonMigratoryPolicy::on_release(Simulator& sim, JobId job) {
  std::size_t machine = choose_machine(sim, job);
  if (machine >= assigned_.size()) assigned_.resize(machine + 1);
  // Every listed deadline is on the current grid: a job that finished
  // leaves its list at the dispatch of the instant it finished, before the
  // grid can refine again.
  std::vector<JobId>& jobs = assigned_[machine];
  jobs.insert(std::upper_bound(jobs.begin(), jobs.end(), job,
                               [&](JobId a, JobId b) {
                                 return edf_before(sim, a, b);
                               }),
              job);
  if (job >= machine_by_job_.size()) machine_by_job_.resize(job + 1);
  machine_by_job_[job] = machine;
  mark_dirty(machine);
}

void NonMigratoryPolicy::on_complete(Simulator&, JobId job) {
  if (auto machine = machine_of(job)) mark_dirty(*machine);
}

void NonMigratoryPolicy::on_miss(Simulator&, JobId job) {
  if (auto machine = machine_of(job)) mark_dirty(*machine);
}

void NonMigratoryPolicy::mark_dirty(std::size_t machine) {
  if (machine >= is_dirty_.size()) is_dirty_.resize(machine + 1, false);
  if (is_dirty_[machine]) return;
  is_dirty_[machine] = true;
  dirty_.push_back(machine);
}

void NonMigratoryPolicy::dispatch(Simulator& sim) {
  // A machine no event touched keeps its active jobs, and so its EDF
  // choice, which the simulator still runs.
  for (std::size_t m : dirty_) {
    std::vector<JobId>& jobs = assigned_[m];
    std::erase_if(jobs, [&](JobId id) {
      return sim.finished(id) || sim.missed(id);
    });
    sim.set_running(m, jobs.empty() ? kInvalidJob : jobs.front());
    is_dirty_[m] = false;
  }
  dirty_.clear();
}

std::optional<std::size_t> NonMigratoryPolicy::machine_of(JobId job) const {
  if (job >= machine_by_job_.size()) return std::nullopt;
  return machine_by_job_[job];
}

bool NonMigratoryPolicy::machine_can_take(const Simulator& sim,
                                          std::size_t machine,
                                          JobId job) const {
  // Jackson's rule on the simulator's grid. Admission runs only inside
  // on_release, at now = the job's release. Every other job committed here
  // was released earlier, and step 1 of Simulator::deliver_events_at_now
  // has already finished the running jobs with no work left. So every
  // commitment is available at now, and preemptive EDF meets all deadlines
  // iff, in deadline order, now + prefix wall time <= deadline for every
  // prefix. The machine's list is in that order already, so the new job
  // is merged in during the one pass. Remaining ticks are wall time at the
  // machine speed, so the test is integer adds and compares at any speed.
  finish_scratch_ = sim.now_ticks();
  const auto meets_deadline = [&](JobId id) {
    finish_scratch_ += sim.remaining_ticks(id);
    return finish_scratch_ <= sim.deadline_ticks(id);
  };
  bool merged = sim.remaining_ticks(job).is_zero();
  if (machine < assigned_.size()) {
    for (JobId id : assigned_[machine]) {
      if (sim.finished(id) || sim.missed(id) ||
          sim.remaining_ticks(id).is_zero())
        continue;
      if (!merged && edf_before(sim, job, id)) {
        merged = true;
        if (!meets_deadline(job)) return false;
      }
      if (!meets_deadline(id)) return false;
    }
  }
  return merged || meets_deadline(job);
}

const std::vector<std::size_t>& NonMigratoryPolicy::feasible_machines_pooled(
    const Simulator& sim, JobId job) const {
  feasible_scratch_.clear();
  for (std::size_t m = 0; m < assigned_.size(); ++m) {
    if (machine_can_take(sim, m, job)) feasible_scratch_.push_back(m);
  }
  return feasible_scratch_;
}

BigInt NonMigratoryPolicy::machine_load(const Simulator& sim,
                                        std::size_t machine) const {
  BigInt load = 0;
  if (machine < assigned_.size()) {
    for (JobId id : assigned_[machine]) {
      if (!sim.finished(id) && !sim.missed(id))
        load += sim.remaining_ticks(id);
    }
  }
  return load;
}

const char* fit_rule_name(FitRule rule) {
  switch (rule) {
    case FitRule::kFirstFit:
      return "FirstFit";
    case FitRule::kBestFit:
      return "BestFit";
    case FitRule::kWorstFit:
      return "WorstFit";
    case FitRule::kRandomFit:
      return "RandomFit";
    case FitRule::kNextFit:
      return "NextFit";
  }
  return "?";
}

FitPolicy::FitPolicy(FitRule rule, std::uint64_t seed)
    : rule_(rule), rng_(seed) {}

std::size_t FitPolicy::choose_machine(Simulator& sim, JobId job) {
  const std::vector<std::size_t>& feasible = feasible_machines_pooled(sim, job);
  if (feasible.empty()) return open_machines();  // open a fresh machine

  switch (rule_) {
    case FitRule::kFirstFit:
      return feasible.front();
    case FitRule::kBestFit:
    case FitRule::kWorstFit: {
      // One load per feasible machine; on a tie the lowest index wins.
      const bool largest = rule_ == FitRule::kBestFit;
      std::size_t best = feasible.front();
      BigInt best_load = machine_load(sim, best);
      for (std::size_t i = 1; i < feasible.size(); ++i) {
        BigInt load = machine_load(sim, feasible[i]);
        if (largest ? load > best_load : load < best_load) {
          best = feasible[i];
          best_load = std::move(load);
        }
      }
      return best;
    }
    case FitRule::kRandomFit: {
      auto index = static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(feasible.size()) - 1));
      return feasible[index];
    }
    case FitRule::kNextFit: {
      // First feasible machine at or after the cursor, wrapping.
      for (std::size_t m : feasible) {
        if (m >= cursor_) {
          cursor_ = m;
          return m;
        }
      }
      cursor_ = feasible.front();
      return feasible.front();
    }
  }
  throw std::logic_error("FitPolicy: unknown rule");
}

std::string FitPolicy::name() const {
  return std::string("NonMig-") + fit_rule_name(rule_);
}

}  // namespace minmach
