// Least Laxity First on a budget of m' machines (migratory).
//
// Runs the m' active jobs with the smallest current laxity
// l_j(t) = d_j - t - p_j(t). Between events a waiting job's laxity falls at
// rate 1 while a running job's rises at rate s - 1 on speed-s machines
// (constant at unit speed), so the policy asks the simulator for a wake-up
// at the earliest waiting/running laxity crossing. Ties at a crossing are
// resolved in favor of the waiting job; an optional quantum bounds how
// stale the comparison may get (true LLF degenerates to processor sharing
// at ties, which no discrete schedule can realize -- Phillips et al.
// analyze exactly this event-driven variant).
#pragma once

#include <cstddef>
#include <string>

#include "minmach/sim/engine.hpp"

namespace minmach {

class LlfPolicy : public OnlinePolicy {
 public:
  // quantum == 0 disables periodic re-dispatch (pure event/crossing driven).
  explicit LlfPolicy(std::size_t machine_budget, Rat quantum = Rat(0))
      : machine_budget_(machine_budget), quantum_(std::move(quantum)) {}

  void on_release(Simulator& sim, JobId job) override;
  void dispatch(Simulator& sim) override;
  std::optional<Rat> next_wakeup(const Simulator& sim) override;
  [[nodiscard]] std::string name() const override;

 private:
  [[nodiscard]] static Rat laxity(const Simulator& sim, JobId job);

  std::size_t machine_budget_;
  Rat quantum_;
};

}  // namespace minmach
