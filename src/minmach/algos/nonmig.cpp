#include "minmach/algos/nonmig.hpp"

#include <algorithm>
#include <stdexcept>

namespace minmach {

void NonMigratoryPolicy::on_release(Simulator& sim, JobId job) {
  std::size_t machine = choose_machine(sim, job);
  if (machine >= assigned_.size()) assigned_.resize(machine + 1);
  assigned_[machine].push_back(job);
  if (job >= machine_by_job_.size()) machine_by_job_.resize(job + 1);
  machine_by_job_[job] = machine;
}

void NonMigratoryPolicy::on_complete(Simulator&, JobId) {}

void NonMigratoryPolicy::on_miss(Simulator&, JobId) {}

void NonMigratoryPolicy::dispatch(Simulator& sim) {
  for (std::size_t m = 0; m < assigned_.size(); ++m) {
    // Drop finished/missed jobs lazily.
    std::erase_if(assigned_[m], [&](JobId id) {
      return sim.finished(id) || sim.missed(id);
    });
    // Earliest deadline among this machine's active jobs.
    JobId best = kInvalidJob;
    for (JobId id : assigned_[m]) {
      if (best == kInvalidJob ||
          sim.job(id).deadline < sim.job(best).deadline ||
          (sim.job(id).deadline == sim.job(best).deadline && id < best))
        best = id;
    }
    sim.set_running(m, best);
  }
}

std::optional<std::size_t> NonMigratoryPolicy::machine_of(JobId job) const {
  if (job >= machine_by_job_.size()) return std::nullopt;
  return machine_by_job_[job];
}

bool NonMigratoryPolicy::machine_can_take(const Simulator& sim,
                                          std::size_t machine,
                                          JobId job) const {
  commit_scratch_.clear();
  if (machine < assigned_.size()) {
    for (JobId id : assigned_[machine]) {
      if (sim.finished(id) || sim.missed(id)) continue;
      commit_scratch_.push_back({sim.job(id).release, sim.job(id).deadline,
                                 sim.remaining(id)});
    }
  }
  commit_scratch_.push_back(
      {sim.job(job).release, sim.job(job).deadline, sim.remaining(job)});
  return edf_feasible_single_machine_inplace(commit_scratch_, sim.now(),
                                             sim.speed());
}

const std::vector<std::size_t>& NonMigratoryPolicy::feasible_machines_pooled(
    const Simulator& sim, JobId job) const {
  feasible_scratch_.clear();
  for (std::size_t m = 0; m < assigned_.size(); ++m) {
    if (machine_can_take(sim, m, job)) feasible_scratch_.push_back(m);
  }
  return feasible_scratch_;
}

Rat NonMigratoryPolicy::machine_load(const Simulator& sim,
                                     std::size_t machine) const {
  Rat load(0);
  if (machine < assigned_.size()) {
    for (JobId id : assigned_[machine]) {
      if (!sim.finished(id) && !sim.missed(id)) load += sim.remaining(id);
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
    case FitRule::kBestFit: {
      std::size_t best = feasible.front();
      for (std::size_t m : feasible)
        if (machine_load(sim, m) > machine_load(sim, best)) best = m;
      return best;
    }
    case FitRule::kWorstFit: {
      std::size_t best = feasible.front();
      for (std::size_t m : feasible)
        if (machine_load(sim, m) < machine_load(sim, best)) best = m;
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
