// Event-driven online scheduling simulator.
//
// Time advances only at events: job releases, completions, deadline
// expiries, and policy-requested wake-ups (e.g. LLF laxity crossings,
// MediumFit start times). Times are exact, and the simulator keeps each
// one as a tick: a BigInt numerator over one grid denominator D, the lcm
// of every denominator it has been given (job parameters at submit,
// run_until targets, policy wake-ups). A value off the grid refines it
// once, multiplying D and every live tick by D' / D, so the event loop
// adds and compares integers, with no gcd and no cross-multiplication,
// and adversary constructions that rescale by tiny amounts stay exact.
// Rat is built only at the API boundary: now(), remaining(), schedule(),
// the job records of instance() and trace events.
//
// The grid has a read side and a write side. Policies that want the ticks
// themselves read grid(), now_ticks(), deadline_ticks() and
// remaining_ticks(), as the non-migratory admission test does. A caller
// that computes its own times on the grid, as the Theorem 3 adversary
// does, writes them with submit_ticks() and run_until_ticks() and refines
// the grid with refine() when a value it derives lies off it. submit(Job)
// and run_until(Rat) put their values on the grid and then take the same
// queue and run path.
//
// The policy is called back on releases/completions/misses and then asked to
// dispatch: to state, for each machine it uses, which active job runs until
// the next event. Machines are opened implicitly by using a new index; the
// cost measure machines_used() counts machines that ever processed work.
//
// Adversaries (minmach/adversary) drive the simulator interactively: submit
// a job, run_until(t), inspect remaining processing and the trace, decide
// the next release. This realizes the paper's game between the adversary
// and "any online algorithm".
//
// Memory layout (DESIGN.md §10): per-job state is a structure of arrays
// keyed by the dense JobId -- release, deadline and remaining wall time in
// ticks, and a one-byte lifecycle state in parallel vectors -- so the hot
// event loop walks flat arrays instead of chasing Job records. The release
// and deadline queues are binary heaps of job ids over pooled vectors
// (std::push_heap/pop_heap), and reset() clears every container without
// releasing storage, which lets simulate() keep one pooled Simulator per
// thread: steady-state sweeps run with zero container construction per
// simulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "minmach/core/instance.hpp"
#include "minmach/core/schedule.hpp"
#include "minmach/util/bigint.hpp"

namespace minmach {

class Simulator;
struct SimRun;

// Live event counts for one simulation. Preemptions and migrations are
// counted as they happen (a job set aside with work left; a job resuming on
// a different machine than it last ran on), which matches
// Schedule::preemption_count / migration_count on the canonicalized trace
// for non-degenerate schedules but is defined operationally, not post-hoc.
struct SimStats {
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t misses = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;
};

class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  // A job just became available (its release date is now).
  virtual void on_release(Simulator& sim, JobId job) = 0;
  // A job just received its full processing time.
  virtual void on_complete(Simulator& sim, JobId job);
  // A job's deadline passed with work left; it leaves the system. Policies
  // are expected to avoid this by opening machines -- experiments treat a
  // miss as a hard failure.
  virtual void on_miss(Simulator& sim, JobId job);
  // Set the running job of every machine in use via Simulator::set_running.
  // Called after every batch of events at one time point.
  virtual void dispatch(Simulator& sim) = 0;
  // Earliest future time (> now) at which the policy wants a dispatch even
  // without a job event. Return std::nullopt if none.
  virtual std::optional<Rat> next_wakeup(const Simulator& sim);

  [[nodiscard]] virtual std::string name() const = 0;
};

class Simulator {
 public:
  // speed: every machine processes `speed` units of work per unit of time
  // (Theorem 7's speed augmentation). The policy object must outlive the
  // simulator.
  explicit Simulator(OnlinePolicy& policy, Rat speed = Rat(1));

  // Rewinds to the empty t=0 state for a new run against `policy`. All
  // container storage (SoA arrays, event heaps, trace machines) is kept,
  // so a reset-reuse cycle allocates nothing once warmed up.
  void reset(OnlinePolicy& policy, Rat speed = Rat(1));

  // Queues a job; it is revealed to the policy at job.release, which must
  // be >= now().
  JobId submit(const Job& job);
  void submit_all(const Instance& instance);

  // Advances simulated time to t (>= now), delivering all events.
  void run_until(const Rat& t);
  // Advances until every submitted job is finished or missed.
  void run_to_completion();

  // Built from the ticks on the first call after each advance.
  [[nodiscard]] const Rat& now() const;
  [[nodiscard]] const Rat& speed() const { return speed_; }
  [[nodiscard]] const Instance& instance() const { return instance_; }
  [[nodiscard]] const Job& job(JobId id) const { return instance_.job(id); }
  [[nodiscard]] std::size_t job_count() const { return instance_.size(); }

  // Work still owed to the job (in processing units, not wall time).
  [[nodiscard]] Rat remaining(JobId id) const;
  [[nodiscard]] bool released(JobId id) const {
    return state_[id] != JobState::kPending;
  }
  [[nodiscard]] bool finished(JobId id) const {
    return state_[id] == JobState::kFinished;
  }
  [[nodiscard]] bool missed(JobId id) const {
    return state_[id] == JobState::kMissed;
  }
  [[nodiscard]] const std::vector<JobId>& missed_jobs() const {
    return missed_list_;
  }
  [[nodiscard]] bool any_missed() const { return !missed_list_.empty(); }

  // Released, unfinished, not missed.
  [[nodiscard]] std::vector<JobId> active_jobs() const;
  [[nodiscard]] bool all_done() const;

  // --- dispatch-time interface for policies ---
  // job == kInvalidJob idles the machine. The job must be active.
  void set_running(std::size_t machine, JobId job);
  [[nodiscard]] JobId running_on(std::size_t machine) const;
  [[nodiscard]] std::size_t machine_slots() const { return running_.size(); }

  // Canonicalized copy of the processing trace so far.
  [[nodiscard]] Schedule schedule() const;
  [[nodiscard]] std::size_t machines_used() const { return machines_used_; }

  [[nodiscard]] const SimStats& stats() const { return stats_; }
  // Folds the run's event counts into the metrics registry under
  // "sim.<label>.*" (label is usually the policy name). Counters add and
  // machine counts go to a histogram, so sweep aggregation is commutative.
  void publish_metrics(const std::string& label) const;

  [[nodiscard]] OnlinePolicy& policy() { return *policy_; }

  // --- grid view ---
  // Times in ticks of length 1 / grid(). A submit, run_until or wake-up
  // off the grid refines it and rescales every tick, so read them afresh
  // in each callback rather than keeping them across one. A caller that
  // keeps a tick value across a run or a refinement keeps the grid it was
  // read on with it: each grid is a multiple of every grid before it, so
  // the value reads as ticks * grid() / grid_then.
  [[nodiscard]] const BigInt& grid() const { return grid_; }
  [[nodiscard]] const BigInt& now_ticks() const { return now_; }
  // Defined while the job has not finished.
  [[nodiscard]] const BigInt& deadline_ticks(JobId id) const {
    return deadline_[id];
  }
  // Remaining wall time at the machine speed, remaining(id) / speed();
  // zero once the job has finished.
  [[nodiscard]] const BigInt& remaining_ticks(JobId id) const {
    return remaining_[id];
  }

  // --- grid write side ---
  // submit() with the release, the deadline and the wall time at the
  // machine speed (counted like remaining_ticks()) given in ticks of the
  // current grid; the job's processing is wall * speed(). Refuses what
  // submit() refuses, with the same messages.
  JobId submit_ticks(BigInt release, BigInt deadline, BigInt wall);
  // run_until() with t in ticks of the current grid.
  void run_until_ticks(const BigInt& t);
  // Multiplies the grid, and every live tick, by factor (>= 1).
  void refine(BigInt factor);

 private:
  // Lifecycle of a submitted job. kActive covers released-and-open;
  // kFinished/kMissed imply released, so released() is a != kPending test.
  enum class JobState : std::uint8_t {
    kPending,   // submitted, release event not yet delivered
    kActive,    // released, neither finished nor missed
    kFinished,  // full processing delivered
    kMissed,    // deadline passed with work left
  };

  // Only the pooled-simulator path in simulate() may build an empty
  // Simulator; everyone else must supply a policy up front.
  Simulator() = default;
  friend SimRun simulate_pooled_or_fresh(OnlinePolicy& policy,
                                         const Instance& instance, Rat speed,
                                         bool require_no_miss);

  void deliver_events_at_now();
  [[nodiscard]] BigInt next_event_time();
  void advance_to(const BigInt& t);
  // Delivers events and advances until now reaches until_.
  void run_loop();

  // The one queue path of submit() and submit_ticks(): checks the ticks
  // and records `job` with them.
  JobId queue(Job job, BigInt release, BigInt deadline, BigInt wall);

  // Refines the grid until `den` divides it: grid_ becomes
  // lcm(grid_, den) and every live tick is rescaled by the same factor.
  void put_on_grid(const BigInt& den);
  // A value whose denominator divides the grid, in ticks.
  [[nodiscard]] BigInt ticks_of(const Rat& value) const;
  [[nodiscard]] BigInt on_grid(const Rat& value) {
    put_on_grid(value.den());
    return ticks_of(value);
  }

  OnlinePolicy* policy_ = nullptr;
  Rat speed_ = Rat(1);
  // Every tick below counts units of 1 / grid_.
  BigInt grid_ = 1;
  BigInt now_ = 0;
  BigInt until_ = 0;  // target of the current run_until
  mutable Rat now_view_;
  mutable bool now_view_fresh_ = true;

  Instance instance_;
  // Structure-of-arrays job store, indexed by JobId. A refinement rescales
  // the ticks of unfinished jobs only: release_ is read while the job is
  // pending, deadline_ until it finishes, and remaining_ (wall time at the
  // machine speed) is zero from then on, on any grid.
  std::vector<BigInt> release_;
  std::vector<BigInt> deadline_;
  std::vector<BigInt> remaining_;
  std::vector<JobState> state_;
  std::vector<std::size_t> last_machine_;  // kNeverRan until first run
  // The machine each job is set running on (kNotRunning when none), so
  // that running_[running_machine_[j]] == j: set_running() refuses a job
  // already on another machine in O(1).
  std::vector<std::size_t> running_machine_;
  std::vector<JobId> missed_list_;
  // Submitted jobs whose ticks a refinement rescales: every job not yet
  // finished (compacted at each refinement). Missed jobs stay, so their
  // remaining() stays exact.
  std::vector<JobId> unfinished_;

  // Min-heaps of job ids by (ticks, id) over pooled vectors; storage
  // survives reset(). pending_ holds future releases keyed by release_;
  // deadline_heap_ the released jobs keyed by deadline_, lazily pruned
  // (entries for finished/missed jobs are skipped at peek time, and
  // dropped at a refinement, which leaves their ticks behind) so
  // next_event_time() and the miss scan touch only due jobs instead of
  // rescanning the whole instance.
  struct LaterTick {
    const std::vector<BigInt>* key;
    bool operator()(JobId a, JobId b) const {
      const auto order = (*key)[b] <=> (*key)[a];
      return order < 0 || (order == 0 && b < a);
    }
  };
  std::vector<JobId> pending_;
  std::vector<JobId> deadline_heap_;
  std::vector<JobId> due_scratch_;  // miss batch, reused every delivery
  void prune_deadline_heap();

  // Submitted jobs not yet finished or missed; all_done() is O(1).
  std::size_t open_jobs_ = 0;
  // Max deadline over all submitted jobs; run_to_completion()'s horizon.
  BigInt max_deadline_ = 0;

  std::vector<JobId> running_;
  // Processing trace: the boundaries of every slice in which some machine
  // ran, each in the ticks of the grid it was recorded on (an index into
  // trace_grids_), and per machine slots [start, end) over those points. A
  // job that runs on through an event extends its slot. schedule() builds
  // the Rats.
  struct TracePoint {
    BigInt ticks;
    std::size_t grid;
  };
  struct TickSlot {
    std::size_t machine;
    JobId job;
    std::size_t start;  // indices into trace_points_
    std::size_t end;
  };
  std::vector<TracePoint> trace_points_;
  std::vector<TickSlot> trace_;
  std::vector<BigInt> trace_grids_;
  bool grid_traced_ = false;  // trace_grids_.back() == grid_
  bool now_traced_ = false;   // trace_points_.back() is now
  // Per machine, the index in trace_ of its latest slot (kNoSlot before
  // its first); a machine with a slot counts toward machines_used_.
  std::vector<std::size_t> last_slot_;
  std::size_t machines_used_ = 0;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  SimStats stats_;
  std::vector<JobId> prev_slice_jobs_;  // jobs processed in the last slice
  static constexpr std::size_t kNeverRan = static_cast<std::size_t>(-1);
  static constexpr std::size_t kNotRunning = static_cast<std::size_t>(-1);
};

// Convenience driver: simulate the full instance against the policy and
// return the resulting schedule (canonicalized). Throws std::runtime_error
// if the policy misses a deadline and require_no_miss is true. Runs on a
// per-thread pooled Simulator (see reset()) unless the call re-enters
// simulate() from a policy callback.
struct SimRun {
  Schedule schedule;
  std::size_t machines_used = 0;
  bool missed = false;
};
[[nodiscard]] SimRun simulate(OnlinePolicy& policy, const Instance& instance,
                              Rat speed = Rat(1), bool require_no_miss = true);

}  // namespace minmach
