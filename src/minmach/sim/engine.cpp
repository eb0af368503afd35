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
  grid_ = 1;
  now_ = 0;
  until_ = 0;
  now_view_fresh_ = false;
  instance_.clear();
  release_.clear();
  deadline_.clear();
  remaining_.clear();
  state_.clear();
  last_machine_.clear();
  running_machine_.clear();
  missed_list_.clear();
  unfinished_.clear();
  pending_.clear();
  deadline_heap_.clear();
  due_scratch_.clear();
  open_jobs_ = 0;
  max_deadline_ = 0;
  running_.clear();
  trace_points_.clear();
  trace_.clear();
  trace_grids_.clear();
  grid_traced_ = false;
  now_traced_ = false;
  last_slot_.clear();
  machines_used_ = 0;
  stats_ = SimStats{};
  prev_slice_jobs_.clear();
}

const Rat& Simulator::now() const {
  if (!now_view_fresh_) {
    now_view_ = Rat(now_, grid_);
    now_view_fresh_ = true;
  }
  return now_view_;
}

Rat Simulator::remaining(JobId id) const {
  return Rat(remaining_[id], grid_) * speed_;
}

void Simulator::put_on_grid(const BigInt& den) {
  if (den.is_small() && den.small_value() == 1) return;
  BigIntDivMod split = BigInt::div_mod(grid_, den);
  if (split.remainder.is_zero()) return;
  // lcm(D, den) = D * f with f = den / gcd(D, den), and
  // gcd(D, den) = gcd(den, D mod den).
  refine(den / BigInt::gcd(den, split.remainder));
}

void Simulator::refine(BigInt factor) {
  if (factor.is_small() && factor.small_value() == 1) return;
  if (factor.signum() <= 0)
    throw std::invalid_argument("Simulator: refinement factor below 1");
  obs::ProfileSpan span("sim_refine");
  grid_ *= factor;
  now_ *= factor;
  until_ *= factor;
  max_deadline_ *= factor;
  std::erase_if(unfinished_,
                [&](JobId id) { return state_[id] == JobState::kFinished; });
  for (JobId id : unfinished_) {
    if (state_[id] == JobState::kPending) release_[id] *= factor;
    deadline_[id] *= factor;
    remaining_[id] *= factor;
  }
  // Uniform scaling keeps pending_ a heap (every entry is rescaled), but
  // the deadline heap's stale entries kept their old ticks: drop them and
  // rebuild.
  if (std::erase_if(deadline_heap_, [&](JobId id) {
        return state_[id] != JobState::kActive;
      }) != 0)
    std::make_heap(deadline_heap_.begin(), deadline_heap_.end(),
                   LaterTick{&deadline_});
  grid_traced_ = false;
}

BigInt Simulator::ticks_of(const Rat& value) const {
  if (value.den().is_small() && value.den().small_value() == 1)
    return value.num() * grid_;
  return value.num() * (grid_ / value.den());
}

JobId Simulator::submit(const Job& job) {
  obs::ProfileSpan span("sim_submit");
  const Rat wall = job.processing / speed_;
  // Every value goes on the grid before any is converted: a refinement
  // rescales only the ticks already stored.
  put_on_grid(job.release.den());
  put_on_grid(job.deadline.den());
  put_on_grid(wall.den());
  return queue(job, ticks_of(job.release), ticks_of(job.deadline),
               ticks_of(wall));
}

JobId Simulator::submit_ticks(BigInt release, BigInt deadline, BigInt wall) {
  obs::ProfileSpan span("sim_submit");
  Job job{Rat(release, grid_), Rat(deadline, grid_), Rat(wall, grid_) * speed_};
  return queue(std::move(job), std::move(release), std::move(deadline),
               std::move(wall));
}

JobId Simulator::queue(Job job, BigInt release, BigInt deadline,
                       BigInt wall) {
  // Well-formedness relative to the machine speed: the job must fit its
  // window when processed continuously at rate `speed_`.
  if (wall.signum() <= 0 || wall > deadline - release)
    throw std::invalid_argument("Simulator: malformed job");
  if (release < now_)
    throw std::invalid_argument("Simulator: release date in the past");
  JobId id = instance_.add_job(std::move(job));
  if (deadline > max_deadline_) max_deadline_ = deadline;
  release_.push_back(std::move(release));
  deadline_.push_back(std::move(deadline));
  remaining_.push_back(std::move(wall));
  state_.push_back(JobState::kPending);
  last_machine_.push_back(kNeverRan);
  running_machine_.push_back(kNotRunning);
  unfinished_.push_back(id);
  pending_.push_back(id);
  std::push_heap(pending_.begin(), pending_.end(), LaterTick{&release_});
  ++open_jobs_;
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
    JobId id = deadline_heap_.front();
    if (state_[id] == JobState::kActive) break;
    std::pop_heap(deadline_heap_.begin(), deadline_heap_.end(),
                  LaterTick{&deadline_});
    deadline_heap_.pop_back();
  }
}

void Simulator::set_running(std::size_t machine, JobId job) {
  if (machine >= running_.size()) {
    running_.resize(machine + 1, kInvalidJob);
    last_slot_.resize(machine + 1, kNoSlot);
  }
  if (job != kInvalidJob) {
    if (job >= state_.size() || state_[job] != JobState::kActive)
      throw std::logic_error("Simulator: dispatching inactive job");
    // A job must not run on two machines at once.
    const std::size_t current = running_machine_[job];
    if (current != kNotRunning && current != machine)
      throw std::logic_error("Simulator: job dispatched on two machines");
  }
  const JobId displaced = running_[machine];
  if (displaced != kInvalidJob) running_machine_[displaced] = kNotRunning;
  running_[machine] = job;
  if (job != kInvalidJob) running_machine_[job] = machine;
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
      running_machine_[job] = kNotRunning;
      ++stats_.completions;
      if (tracing)
        obs::trace_event("sim", "complete",
                         {{"t", now()}, {"job", job}, {"machine", m}});
      policy_->on_complete(*this, job);
    }
  }
  // 2. Deadline misses (running or waiting). Due jobs are popped off the
  // deadline heap and handled in job-id order (the order the old full scan
  // used), so traces and policy callbacks are unchanged.
  prune_deadline_heap();
  const LaterTick by_deadline{&deadline_};
  if (!deadline_heap_.empty() && deadline_[deadline_heap_.front()] <= now_) {
    due_scratch_.clear();
    while (!deadline_heap_.empty() &&
           deadline_[deadline_heap_.front()] <= now_) {
      JobId id = deadline_heap_.front();
      std::pop_heap(deadline_heap_.begin(), deadline_heap_.end(), by_deadline);
      deadline_heap_.pop_back();
      if (state_[id] == JobState::kActive) due_scratch_.push_back(id);
    }
    std::sort(due_scratch_.begin(), due_scratch_.end());
    for (JobId id : due_scratch_) {
      state_[id] = JobState::kMissed;
      --open_jobs_;
      missed_list_.push_back(id);
      if (running_machine_[id] != kNotRunning) {
        running_[running_machine_[id]] = kInvalidJob;
        running_machine_[id] = kNotRunning;
      }
      ++stats_.misses;
      if (tracing)
        obs::trace_event("sim", "miss",
                         {{"t", now()}, {"job", id},
                          {"remaining", remaining(id)}});
      policy_->on_miss(*this, id);
    }
  }
  // 3. Releases due now.
  const LaterTick by_release{&release_};
  while (!pending_.empty() && release_[pending_.front()] <= now_) {
    JobId id = pending_.front();
    std::pop_heap(pending_.begin(), pending_.end(), by_release);
    pending_.pop_back();
    state_[id] = JobState::kActive;
    deadline_heap_.push_back(id);
    std::push_heap(deadline_heap_.begin(), deadline_heap_.end(), by_deadline);
    ++stats_.releases;
    if (tracing) {
      const Job& job = instance_.job(id);
      obs::trace_event("sim", "release",
                       {{"t", now()}, {"job", id},
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
          {{"t", now()}, {"machine", m},
           {"job", job == kInvalidJob ? std::int64_t{-1}
                                      : static_cast<std::int64_t>(job)}});
    }
  } else {
    policy_->dispatch(*this);
  }
}

BigInt Simulator::next_event_time() {
  obs::ProfileSpan span("sim_next_event");
  // The candidates are located first and read last: the policy's wake-up
  // may refine the grid, which rescales the stored ticks in place.
  const BigInt* soonest = nullptr;  // least remaining wall time running
  for (JobId job : running_) {
    if (job == kInvalidJob) continue;
    if (soonest == nullptr || remaining_[job] < *soonest)
      soonest = &remaining_[job];
  }
  prune_deadline_heap();
  const JobId release = pending_.empty() ? kInvalidJob : pending_.front();
  const JobId due =
      deadline_heap_.empty() ? kInvalidJob : deadline_heap_.front();
  const std::optional<Rat> wakeup = policy_->next_wakeup(*this);
  BigInt wakeup_ticks;
  if (wakeup) wakeup_ticks = on_grid(*wakeup);

  BigInt next = until_;
  if (release != kInvalidJob && release_[release] < next)
    next = release_[release];
  if (soonest != nullptr) {
    BigInt completion = now_ + *soonest;
    if (completion < next) next = std::move(completion);
  }
  if (due != kInvalidJob && deadline_[due] < next) next = deadline_[due];
  if (wakeup && now_ < wakeup_ticks) {
    if (wakeup_ticks <= next && obs::trace_enabled())
      obs::trace_event("sim", "wakeup", {{"t", *wakeup}});
    if (wakeup_ticks < next) next = std::move(wakeup_ticks);
  }
  if (next < now_) next = now_;
  return next;
}

void Simulator::advance_to(const BigInt& t) {
  obs::ProfileSpan profile_span("sim_advance");
  const bool tracing = obs::trace_enabled();
  // A job that was processed in the previous slice, still has work left, but
  // does not run in this slice was preempted; one that resumes on a machine
  // other than the one it last ran on migrated.
  for (JobId job : prev_slice_jobs_) {
    if (state_[job] != JobState::kActive) continue;
    if (running_machine_[job] == kNotRunning) {
      ++stats_.preemptions;
      if (tracing)
        obs::trace_event("sim", "preempt",
                         {{"t", now()}, {"job", job},
                          {"remaining", remaining(job)}});
    }
  }
  prev_slice_jobs_.clear();
  const BigInt span = t - now_;
  std::size_t start = kNoSlot;  // now's index in trace_points_
  for (std::size_t m = 0; m < running_.size(); ++m) {
    JobId job = running_[m];
    if (job == kInvalidJob) continue;
    if (last_machine_[job] != kNeverRan && last_machine_[job] != m) {
      ++stats_.migrations;
      if (tracing)
        obs::trace_event("sim", "migrate",
                         {{"t", now()}, {"job", job},
                          {"from", last_machine_[job]}, {"to", m}});
    }
    last_machine_[job] = m;
    prev_slice_jobs_.push_back(job);
    if (start == kNoSlot) {
      if (!grid_traced_) {
        trace_grids_.push_back(grid_);
        grid_traced_ = true;
      }
      const std::size_t grid = trace_grids_.size() - 1;
      if (!now_traced_) trace_points_.push_back({now_, grid});
      start = trace_points_.size() - 1;
      trace_points_.push_back({t, grid});
    }
    std::size_t& last = last_slot_[m];
    if (last == kNoSlot) ++machines_used_;
    if (last != kNoSlot && trace_[last].job == job &&
        trace_[last].end == start) {
      trace_[last].end = start + 1;
    } else {
      last = trace_.size();
      trace_.push_back({m, job, start, start + 1});
    }
    remaining_[job] -= span;
    if (remaining_[job].is_negative())
      throw std::logic_error("Simulator: job overshot its completion");
  }
  now_ = t;
  now_view_fresh_ = false;
  now_traced_ = start != kNoSlot;
}

void Simulator::run_loop() {
  while (true) {
    deliver_events_at_now();
    BigInt next = next_event_time();
    if (next == now_) {
      if (now_ == until_) break;
      throw std::logic_error("Simulator: no progress");
    }
    advance_to(next);
  }
}

void Simulator::run_until(const Rat& t) {
  run_until_ticks(on_grid(t));
}

void Simulator::run_until_ticks(const BigInt& t) {
  if (t < now_) throw std::invalid_argument("Simulator: cannot run backwards");
  until_ = t;
  run_loop();
}

void Simulator::run_to_completion() {
  while (!all_done()) {
    // Horizon: far enough to hit the next event; the max deadline (cached
    // at submit time) bounds all remaining activity.
    until_ = now_ + grid_;
    if (until_ < max_deadline_) until_ = max_deadline_;
    run_loop();
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
  std::vector<Rat> times;
  times.reserve(trace_points_.size());
  for (const TracePoint& point : trace_points_)
    times.emplace_back(point.ticks, trace_grids_[point.grid]);
  // Each machine's slot count first, so each list is allocated once. The
  // schedule lists machines up to the last one with a slot.
  std::vector<std::size_t> per_machine(last_slot_.size(), 0);
  for (const TickSlot& slot : trace_) ++per_machine[slot.machine];
  std::size_t machines = per_machine.size();
  while (machines != 0 && per_machine[machines - 1] == 0) --machines;
  Schedule out(machines);
  for (std::size_t m = 0; m < machines; ++m)
    out.reserve_slots(m, per_machine[m]);
  for (const TickSlot& slot : trace_)
    out.add_slot(slot.machine, times[slot.start], times[slot.end], slot.job);
  out.canonicalize();
  return out;
}

}  // namespace minmach
