#include "minmach/sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/obs/trace.hpp"

namespace minmach {

void OnlinePolicy::on_complete(Simulator&, JobId) {}
void OnlinePolicy::on_miss(Simulator&, JobId) {}
std::optional<Rat> OnlinePolicy::next_wakeup(const Simulator&) {
  return std::nullopt;
}

Simulator::Simulator(OnlinePolicy& policy, Rat speed) {
  reset(policy, std::move(speed));
}

void Simulator::reset(OnlinePolicy& policy, Rat speed) {
  if (!speed.is_positive())
    throw std::invalid_argument("Simulator: speed must be positive");
  policy_ = &policy;
  speed_ = std::move(speed);
  now_ = Rat(0);
  instance_.clear();
  deadline_.clear();
  remaining_.clear();
  state_.clear();
  last_machine_.clear();
  missed_list_.clear();
  pending_.clear();
  deadline_heap_.clear();
  due_scratch_.clear();
  open_jobs_ = 0;
  max_deadline_ = Rat(0);
  running_.clear();
  trace_.clear();
  machine_touched_.clear();
  machines_used_ = 0;
  stats_ = SimStats{};
  prev_slice_jobs_.clear();
}

void Simulator::heap_push(std::vector<EventNode>& heap, Rat time, JobId job) {
  heap.push_back({std::move(time), job});
  std::push_heap(heap.begin(), heap.end(), EventAfter{});
}

void Simulator::heap_pop(std::vector<EventNode>& heap) {
  std::pop_heap(heap.begin(), heap.end(), EventAfter{});
  heap.pop_back();
}

JobId Simulator::submit(const Job& job) {
  // Well-formedness relative to the machine speed: the job must fit its
  // window when processed continuously at rate `speed_`.
  if (!job.processing.is_positive() ||
      job.processing / speed_ > job.window_length())
    throw std::invalid_argument("Simulator: malformed job");
  if (job.release < now_)
    throw std::invalid_argument("Simulator: release date in the past");
  JobId id = instance_.add_job(job);
  deadline_.push_back(job.deadline);
  remaining_.push_back(job.processing);
  state_.push_back(JobState::kPending);
  last_machine_.push_back(kNeverRan);
  heap_push(pending_, job.release, id);
  ++open_jobs_;
  max_deadline_ = Rat::max(max_deadline_, job.deadline);
  return id;
}

void Simulator::submit_all(const Instance& instance) {
  for (const auto& job : instance.jobs()) submit(job);
}

std::vector<JobId> Simulator::active_jobs() const {
  std::vector<JobId> out;
  for (JobId id = 0; id < state_.size(); ++id) {
    if (state_[id] == JobState::kActive) out.push_back(id);
  }
  return out;
}

bool Simulator::all_done() const {
  return pending_.empty() && open_jobs_ == 0;
}

void Simulator::prune_deadline_heap() {
  while (!deadline_heap_.empty()) {
    JobId id = deadline_heap_.front().job;
    if (state_[id] == JobState::kActive) break;
    heap_pop(deadline_heap_);
  }
}

void Simulator::set_running(std::size_t machine, JobId job) {
  if (machine >= running_.size()) {
    running_.resize(machine + 1, kInvalidJob);
    machine_touched_.resize(machine + 1, false);
  }
  if (job != kInvalidJob) {
    if (job >= state_.size() || state_[job] != JobState::kActive)
      throw std::logic_error("Simulator: dispatching inactive job");
    // A job must not run on two machines at once.
    for (std::size_t m = 0; m < running_.size(); ++m) {
      if (m != machine && running_[m] == job)
        throw std::logic_error("Simulator: job dispatched on two machines");
    }
  }
  running_[machine] = job;
}

JobId Simulator::running_on(std::size_t machine) const {
  return machine < running_.size() ? running_[machine] : kInvalidJob;
}

void Simulator::deliver_events_at_now() {
  obs::ProfileSpan span("sim_dispatch");
  const bool tracing = obs::trace_enabled();
  // 1. Completions among running jobs.
  for (std::size_t m = 0; m < running_.size(); ++m) {
    JobId job = running_[m];
    if (job != kInvalidJob && remaining_[job].is_zero()) {
      state_[job] = JobState::kFinished;
      --open_jobs_;
      running_[m] = kInvalidJob;
      ++stats_.completions;
      if (tracing)
        obs::trace_event("sim", "complete",
                         {{"t", now_}, {"job", job}, {"machine", m}});
      policy_->on_complete(*this, job);
    }
  }
  // 2. Deadline misses (running or waiting). Due jobs are popped off the
  // deadline heap and handled in job-id order (the order the old full scan
  // used), so traces and policy callbacks are unchanged.
  prune_deadline_heap();
  if (!deadline_heap_.empty() && deadline_heap_.front().time <= now_) {
    due_scratch_.clear();
    while (!deadline_heap_.empty() && deadline_heap_.front().time <= now_) {
      JobId id = deadline_heap_.front().job;
      heap_pop(deadline_heap_);
      if (state_[id] == JobState::kActive) due_scratch_.push_back(id);
    }
    std::sort(due_scratch_.begin(), due_scratch_.end());
    for (JobId id : due_scratch_) {
      state_[id] = JobState::kMissed;
      --open_jobs_;
      missed_list_.push_back(id);
      for (auto& slot : running_)
        if (slot == id) slot = kInvalidJob;
      ++stats_.misses;
      if (tracing)
        obs::trace_event("sim", "miss",
                         {{"t", now_}, {"job", id},
                          {"remaining", remaining_[id]}});
      policy_->on_miss(*this, id);
    }
  }
  // 3. Releases due now.
  while (!pending_.empty() && pending_.front().time <= now_) {
    JobId id = pending_.front().job;
    heap_pop(pending_);
    state_[id] = JobState::kActive;
    heap_push(deadline_heap_, deadline_[id], id);
    ++stats_.releases;
    if (tracing) {
      const Job& job = instance_.job(id);
      obs::trace_event("sim", "release",
                       {{"t", now_}, {"job", id},
                        {"deadline", job.deadline},
                        {"processing", job.processing}});
    }
    policy_->on_release(*this, id);
  }
  // 4. Let the policy (re)decide what runs.
  ++stats_.dispatches;
  if (tracing) {
    std::vector<JobId> before = running_;
    policy_->dispatch(*this);
    for (std::size_t m = 0; m < running_.size(); ++m) {
      JobId job = running_[m];
      if ((m < before.size() ? before[m] : kInvalidJob) == job) continue;
      obs::trace_event(
          "sim", "dispatch",
          {{"t", now_}, {"machine", m},
           {"job", job == kInvalidJob ? std::int64_t{-1}
                                      : static_cast<std::int64_t>(job)}});
    }
  } else {
    policy_->dispatch(*this);
  }
}

Rat Simulator::next_event_time(const Rat& horizon) {
  Rat next = horizon;
  if (!pending_.empty()) next = Rat::min(next, pending_.front().time);
  for (std::size_t m = 0; m < running_.size(); ++m) {
    JobId job = running_[m];
    if (job != kInvalidJob)
      next = Rat::min(next, now_ + remaining_[job] / speed_);
  }
  prune_deadline_heap();
  if (!deadline_heap_.empty())
    next = Rat::min(next, deadline_heap_.front().time);
  if (auto wakeup = policy_->next_wakeup(*this); wakeup && now_ < *wakeup) {
    if (*wakeup <= next && obs::trace_enabled())
      obs::trace_event("sim", "wakeup", {{"t", *wakeup}});
    next = Rat::min(next, *wakeup);
  }
  return Rat::max(next, now_);
}

void Simulator::advance_to(const Rat& t) {
  obs::ProfileSpan profile_span("sim_advance");
  const bool tracing = obs::trace_enabled();
  // A job that was processed in the previous slice, still has work left, but
  // does not run in this slice was preempted; one that resumes on a machine
  // other than the one it last ran on migrated.
  for (JobId job : prev_slice_jobs_) {
    if (state_[job] != JobState::kActive) continue;
    if (std::find(running_.begin(), running_.end(), job) == running_.end()) {
      ++stats_.preemptions;
      if (tracing)
        obs::trace_event("sim", "preempt",
                         {{"t", now_}, {"job", job},
                          {"remaining", remaining_[job]}});
    }
  }
  prev_slice_jobs_.clear();
  const Rat span = t - now_;
  for (std::size_t m = 0; m < running_.size(); ++m) {
    JobId job = running_[m];
    if (job == kInvalidJob) continue;
    if (last_machine_[job] != kNeverRan && last_machine_[job] != m) {
      ++stats_.migrations;
      if (tracing)
        obs::trace_event("sim", "migrate",
                         {{"t", now_}, {"job", job},
                          {"from", last_machine_[job]}, {"to", m}});
    }
    last_machine_[job] = m;
    prev_slice_jobs_.push_back(job);
    trace_.add_slot(m, now_, t, job);
    if (!machine_touched_[m]) {
      machine_touched_[m] = true;
      ++machines_used_;
    }
    remaining_[job] -= span * speed_;
    if (remaining_[job].is_negative())
      throw std::logic_error("Simulator: job overshot its completion");
  }
  now_ = t;
}

void Simulator::run_until(const Rat& t) {
  if (t < now_)
    throw std::invalid_argument("Simulator: cannot run backwards");
  while (true) {
    deliver_events_at_now();
    Rat next = next_event_time(t);
    if (next == now_) {
      if (now_ == t) break;
      throw std::logic_error("Simulator: no progress");
    }
    advance_to(next);
  }
}

void Simulator::run_to_completion() {
  while (!all_done()) {
    // Horizon: far enough to hit the next event; the max deadline (cached
    // at submit time) bounds all remaining activity.
    run_until(Rat::max(now_ + Rat(1), max_deadline_));
  }
}

void Simulator::publish_metrics(const std::string& label) const {
  obs::Registry& registry = obs::Registry::global();
  const std::string prefix = "sim." + label + ".";
  registry.counter(prefix + "releases").add(stats_.releases);
  registry.counter(prefix + "completions").add(stats_.completions);
  registry.counter(prefix + "misses").add(stats_.misses);
  registry.counter(prefix + "dispatches").add(stats_.dispatches);
  registry.counter(prefix + "preemptions").add(stats_.preemptions);
  registry.counter(prefix + "migrations").add(stats_.migrations);
  registry.histogram(prefix + "machines_used")
      .observe(static_cast<std::int64_t>(machines_used_));
}

namespace {

SimRun finish_run(Simulator& sim, OnlinePolicy& policy,
                  const Instance& instance, bool require_no_miss) {
  sim.submit_all(instance);
  sim.run_to_completion();
  sim.publish_metrics(policy.name());
  SimRun run;
  run.schedule = sim.schedule();
  run.machines_used = sim.machines_used();
  run.missed = sim.any_missed();
  if (run.missed && require_no_miss)
    throw std::runtime_error("simulate: policy " + policy.name() +
                             " missed a deadline");
  return run;
}

}  // namespace

SimRun simulate_pooled_or_fresh(OnlinePolicy& policy, const Instance& instance,
                                Rat speed, bool require_no_miss) {
  // One pooled Simulator per thread: reset() keeps every container's
  // storage, so steady-state sweeps reuse the SoA arrays, event heaps, and
  // trace machine lists run after run. The busy flag guards against a
  // policy that re-enters simulate() from a callback (none do today).
  thread_local Simulator pooled;
  thread_local bool busy = false;
  if (busy) {
    Simulator fresh(policy, std::move(speed));
    return finish_run(fresh, policy, instance, require_no_miss);
  }
  busy = true;
  struct BusyGuard {
    bool& flag;
    ~BusyGuard() { flag = false; }
  } guard{busy};
  pooled.reset(policy, std::move(speed));
  return finish_run(pooled, policy, instance, require_no_miss);
}

SimRun simulate(OnlinePolicy& policy, const Instance& instance, Rat speed,
                bool require_no_miss) {
  return simulate_pooled_or_fresh(policy, instance, std::move(speed),
                                  require_no_miss);
}

Schedule Simulator::schedule() const {
  Schedule copy = trace_;
  copy.canonicalize();
  return copy;
}

}  // namespace minmach
