#include "minmach/algos/single_machine.hpp"

#include <algorithm>

namespace minmach {

bool edf_feasible_single_machine(std::vector<MachineCommitment> commitments,
                                 const Rat& start, const Rat& speed) {
  return edf_feasible_single_machine_inplace(commitments, start, speed);
}

bool edf_feasible_single_machine_inplace(
    std::vector<MachineCommitment>& commitments, const Rat& start,
    const Rat& speed) {
  for (auto& c : commitments) {
    if (c.available_from < start) c.available_from = start;
    if (c.remaining.is_negative()) return false;
    if (c.available_from + c.remaining / speed > c.deadline &&
        c.remaining.is_positive())
      return false;  // cannot even run alone
  }
  std::erase_if(commitments,
                [](const MachineCommitment& c) { return c.remaining.is_zero(); });
  std::sort(commitments.begin(), commitments.end(),
            [](const MachineCommitment& a, const MachineCommitment& b) {
              return a.available_from < b.available_from;
            });

  // Event-driven EDF: at each step run the released commitment with the
  // earliest deadline until it finishes or the next release. The ready list
  // is pooled per thread; the test never re-enters itself, so one slot
  // suffices.
  Rat now = start;
  std::size_t next_release = 0;
  static thread_local std::vector<std::size_t> ready;
  ready.clear();
  while (true) {
    while (next_release < commitments.size() &&
           commitments[next_release].available_from <= now) {
      ready.push_back(next_release);
      ++next_release;
    }
    if (ready.empty()) {
      if (next_release == commitments.size()) return true;
      now = commitments[next_release].available_from;
      continue;
    }
    // Pick earliest deadline among ready.
    std::size_t best = ready[0];
    std::size_t best_pos = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (commitments[ready[i]].deadline < commitments[best].deadline) {
        best = ready[i];
        best_pos = i;
      }
    }
    MachineCommitment& run = commitments[best];
    Rat finish = now + run.remaining / speed;
    Rat horizon = next_release < commitments.size()
                      ? Rat::min(finish, commitments[next_release].available_from)
                      : finish;
    if (run.deadline < horizon) return false;  // misses even before horizon
    run.remaining -= (horizon - now) * speed;
    now = horizon;
    if (run.remaining.is_zero()) {
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_pos));
    } else if (run.deadline <= now) {
      return false;
    }
  }
}

std::optional<std::vector<Slot>> edf_schedule_single_machine(
    std::vector<LabeledCommitment> commitments, const Rat& start,
    const Rat& speed) {
  for (auto& c : commitments) {
    if (c.available_from < start) c.available_from = start;
    if (c.remaining.is_negative()) return std::nullopt;
  }
  std::erase_if(commitments,
                [](const LabeledCommitment& c) { return c.remaining.is_zero(); });
  std::sort(commitments.begin(), commitments.end(),
            [](const LabeledCommitment& a, const LabeledCommitment& b) {
              return a.available_from < b.available_from;
            });

  std::vector<Slot> slots;
  Rat now = start;
  std::size_t next_release = 0;
  std::vector<std::size_t> ready;
  while (true) {
    while (next_release < commitments.size() &&
           commitments[next_release].available_from <= now) {
      ready.push_back(next_release);
      ++next_release;
    }
    if (ready.empty()) {
      if (next_release == commitments.size()) return slots;
      now = commitments[next_release].available_from;
      continue;
    }
    std::size_t best = ready[0];
    std::size_t best_pos = 0;
    for (std::size_t i = 1; i < ready.size(); ++i) {
      if (commitments[ready[i]].deadline < commitments[best].deadline) {
        best = ready[i];
        best_pos = i;
      }
    }
    LabeledCommitment& run = commitments[best];
    Rat finish = now + run.remaining / speed;
    Rat horizon =
        next_release < commitments.size()
            ? Rat::min(finish, commitments[next_release].available_from)
            : finish;
    if (run.deadline < horizon) return std::nullopt;
    if (horizon > now) slots.push_back({now, horizon, run.job});
    run.remaining -= (horizon - now) * speed;
    now = horizon;
    if (run.remaining.is_zero()) {
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(best_pos));
    } else if (run.deadline <= now) {
      return std::nullopt;
    }
  }
}

}  // namespace minmach
