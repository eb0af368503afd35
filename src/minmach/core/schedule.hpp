// A concrete (possibly migratory) schedule: per machine, a list of slots
// [start, end) x job. Produced by the simulator, the offline flow scheduler,
// and the transforms; consumed by the validator and the experiment drivers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "minmach/core/job.hpp"
#include "minmach/util/rational.hpp"

namespace minmach {

struct Slot {
  Rat start;
  Rat end;
  JobId job = kInvalidJob;

  [[nodiscard]] Rat length() const { return end - start; }
  friend bool operator==(const Slot&, const Slot&) = default;
};

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t machines) : machines_(machines) {}
  // Copies carry the slots but not the spare-storage pool (the pool exists
  // so a cleared-and-refilled schedule, e.g. the pooled simulator's trace,
  // reuses its per-machine slot vectors; a copy starts cold).
  Schedule(const Schedule& other) : machines_(other.machines_) {}
  Schedule& operator=(const Schedule& other) {
    machines_ = other.machines_;
    return *this;
  }
  Schedule(Schedule&&) noexcept = default;
  Schedule& operator=(Schedule&&) noexcept = default;

  [[nodiscard]] std::size_t machine_count() const { return machines_.size(); }
  // Machines that actually process at least one slot. This is the number an
  // online algorithm is charged for.
  [[nodiscard]] std::size_t used_machine_count() const;

  // Appends a slot; grows the machine list as needed. Call canonicalize()
  // before querying once all slots are in.
  void add_slot(std::size_t machine, Rat start, Rat end, JobId job);
  // Makes room for `slots` slots on the machine (growing the machine list
  // as needed), so a producer that knows its counts fills each machine's
  // list without regrowing it.
  void reserve_slots(std::size_t machine, std::size_t slots);

  // Drops all machines and slots, parking each machine's slot vector in a
  // spare pool that add_slot draws from, so a clear-and-refill cycle (the
  // pooled simulator's trace) reuses the per-machine storage.
  void clear() {
    for (std::vector<Slot>& machine : machines_) {
      machine.clear();
      spare_.push_back(std::move(machine));
    }
    machines_.clear();
  }

  [[nodiscard]] const std::vector<Slot>& slots(std::size_t machine) const {
    return machines_[machine];
  }

  // Sorts every machine's slots by start time and merges back-to-back slots
  // of the same job, in place. Throws std::logic_error if two slots on one
  // machine overlap (that is a bug in the producer, not a validation
  // question); the schedule is then left unspecified.
  void canonicalize();

  // Total time the job is processed (wall time across all machines).
  [[nodiscard]] Rat work_of(JobId job) const;
  // Wall time processed strictly before time t.
  [[nodiscard]] Rat work_of_before(JobId job, const Rat& t) const;

  // Machines that process the job at least once, ascending.
  [[nodiscard]] std::vector<std::size_t> machines_of(JobId job) const;

  // Sum over jobs of (number of machines touched - 1); zero iff the
  // schedule is non-migratory.
  [[nodiscard]] std::size_t migration_count() const;
  // Sum over jobs of (number of maximal contiguous processing intervals -
  // 1), where contiguity is in time regardless of machine.
  [[nodiscard]] std::size_t preemption_count() const;

  [[nodiscard]] std::size_t total_slots() const;

  // Rewrites every slot's job id through the map (used when a schedule of a
  // sub-instance is lifted back to the full instance's ids).
  void remap_jobs(const std::vector<JobId>& new_id_of);
  // Appends another schedule's machines after this one's (disjoint pools).
  void append_machines(const Schedule& other);

  [[nodiscard]] std::string to_string() const;

 private:
  // The machine's slot list, growing the machine list as needed.
  std::vector<Slot>& machine_slots(std::size_t machine);

  std::vector<std::vector<Slot>> machines_;
  std::vector<std::vector<Slot>> spare_;  // cleared machines' storage, reused
};

}  // namespace minmach
