#include "minmach/core/schedule.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace minmach {

std::size_t Schedule::used_machine_count() const {
  std::size_t used = 0;
  for (const auto& m : machines_)
    if (!m.empty()) ++used;
  return used;
}

std::vector<Slot>& Schedule::machine_slots(std::size_t machine) {
  while (machine >= machines_.size()) {
    // Reuse a parked slot vector from clear() before allocating a new one.
    if (!spare_.empty()) {
      machines_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    } else {
      machines_.emplace_back();
    }
  }
  return machines_[machine];
}

void Schedule::add_slot(std::size_t machine, Rat start, Rat end, JobId job) {
  if (end <= start) return;  // empty slots are silently dropped
  machine_slots(machine).push_back({std::move(start), std::move(end), job});
}

void Schedule::reserve_slots(std::size_t machine, std::size_t slots) {
  machine_slots(machine).reserve(slots);
}

void Schedule::canonicalize() {
  const auto by_start = [](const Slot& a, const Slot& b) {
    return a.start < b.start;
  };
  for (auto& machine : machines_) {
    // The simulator's trace and the flow layout append in start order, so
    // most machines need no sort. Equal starts throw below either way.
    if (!std::is_sorted(machine.begin(), machine.end(), by_start))
      std::sort(machine.begin(), machine.end(), by_start);
    // machine[0, kept) holds the merged slots so far.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < machine.size(); ++i) {
      Slot& slot = machine[i];
      if (kept != 0) {
        Slot& last = machine[kept - 1];
        if (slot.start < last.end)
          throw std::logic_error("Schedule: overlapping slots on one machine");
        if (last.job == slot.job && last.end == slot.start) {
          last.end = std::move(slot.end);
          continue;
        }
      }
      if (kept != i) machine[kept] = std::move(slot);
      ++kept;
    }
    machine.erase(machine.begin() + static_cast<std::ptrdiff_t>(kept),
                  machine.end());
  }
}

Rat Schedule::work_of(JobId job) const {
  Rat total(0);
  for (const auto& machine : machines_)
    for (const auto& slot : machine)
      if (slot.job == job) total += slot.length();
  return total;
}

Rat Schedule::work_of_before(JobId job, const Rat& t) const {
  Rat total(0);
  for (const auto& machine : machines_) {
    for (const auto& slot : machine) {
      if (slot.job != job) continue;
      Rat hi = Rat::min(slot.end, t);
      if (slot.start < hi) total += hi - slot.start;
    }
  }
  return total;
}

std::vector<std::size_t> Schedule::machines_of(JobId job) const {
  std::vector<std::size_t> out;
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    for (const auto& slot : machines_[m]) {
      if (slot.job == job) {
        out.push_back(m);
        break;
      }
    }
  }
  return out;
}

std::size_t Schedule::migration_count() const {
  std::set<JobId> jobs;
  for (const auto& machine : machines_)
    for (const auto& slot : machine) jobs.insert(slot.job);
  std::size_t count = 0;
  for (JobId job : jobs) count += machines_of(job).size() - 1;
  return count;
}

std::size_t Schedule::preemption_count() const {
  // Collect each job's slots in time order and count the gaps.
  std::map<JobId, std::vector<Slot>> by_job;
  for (const auto& machine : machines_)
    for (const auto& slot : machine) by_job[slot.job].push_back(slot);
  std::size_t count = 0;
  for (auto& [job, slots] : by_job) {
    std::sort(slots.begin(), slots.end(),
              [](const Slot& a, const Slot& b) { return a.start < b.start; });
    for (std::size_t i = 1; i < slots.size(); ++i)
      if (slots[i].start > slots[i - 1].end) ++count;
  }
  return count;
}

void Schedule::remap_jobs(const std::vector<JobId>& new_id_of) {
  for (auto& machine : machines_) {
    for (auto& slot : machine) {
      if (slot.job >= new_id_of.size())
        throw std::out_of_range("Schedule::remap_jobs: id out of range");
      slot.job = new_id_of[slot.job];
    }
  }
}

void Schedule::append_machines(const Schedule& other) {
  for (std::size_t m = 0; m < other.machine_count(); ++m)
    machines_.push_back(other.machines_[m]);
}

std::size_t Schedule::total_slots() const {
  std::size_t count = 0;
  for (const auto& machine : machines_) count += machine.size();
  return count;
}

std::string Schedule::to_string() const {
  std::string out =
      "Schedule(" + std::to_string(machines_.size()) + " machines)\n";
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    out += "  M" + std::to_string(m) + ":";
    for (const auto& slot : machines_[m]) {
      out += " [" + slot.start.to_string() + "," + slot.end.to_string() +
             ")j" + std::to_string(slot.job);
    }
    out += "\n";
  }
  return out;
}

}  // namespace minmach
