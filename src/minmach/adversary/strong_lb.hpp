// The strong lower bound of Section 3 (Theorem 3 / Lemma 2) as an
// interactive game.
//
// For every non-migratory online algorithm A and every k, the adversary
// builds an instance I_k with O(2^k) jobs and a critical time t_0 such that
//   (i)  A has k unfinished critical jobs on k different machines at t_0,
//   (ii) I_k is feasible on THREE migratory machines (certified here a
//        posteriori by the max-flow substrate).
// Hence A uses Omega(log n) machines while the migratory optimum is 3.
//
// The construction is reactive: which job is released next, and with which
// exact parameters, depends on the opponent's observed schedule (which
// machine it committed each job to, and the remaining processing times at
// the critical times). The game keeps every time and length as integer
// ticks of the simulator's time grid (sim/engine.hpp) and refines the grid
// when a value it derives (alpha * scale, beta * scale,
// alpha * beta * scale, eps'/2, p*) lies off it, so its arithmetic is
// integer adds, compares and exact divisions. The refinements it derives
// between two simulator calls (eps'/2 and then a nested base gadget's
// three, which the gadget derives before its first submit) are owed and
// paid as one just before the next call, so the simulator rescales its
// live ticks at most once per call; the grid every value is read on is
// the same lcm either way. Rats are built only for the result's
// critical_time and for trace events; the adversary.den_bits observation
// (the bits of each level's scale in lowest terms) costs one gcd against
// the grid per level.
// This file implements the recursion verbatim:
//   base k = 2: a long job j_1 (p = alpha * scale) plus a stream of short
//     jobs (p = alpha*beta*scale in beta*scale windows) that cannot all
//     share j_1's machine (inequality (1): alpha > 1/2, and
//     floor((2 alpha - 1)/beta) * alpha * beta > 1 - alpha);
//   step k: run I_{k-1}; set eps' = min(eps, remaining work of the k-1
//     critical jobs at t_0); run a copy of I_{k-1} scaled into
//     [t_0, t_0 + eps'/2]; if the two critical-job sets occupy different
//     machine sets, merge them (Case 1); otherwise release one job j* that
//     provably cannot share a machine with any unfinished critical job of
//     the copy (Case 2), forcing machine k.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "minmach/algos/nonmig.hpp"
#include "minmach/algos/reservation.hpp"
#include "minmach/core/instance.hpp"
#include "minmach/util/rational.hpp"

namespace minmach {

struct StrongLbParams {
  // Must satisfy alpha in (1/2, 1), beta in (0, 1/2) and inequality (1):
  // floor((2*alpha - 1)/beta) * alpha * beta > 1 - alpha. The paper's
  // example values:
  Rat alpha = Rat(3, 4);
  Rat beta = Rat(1, 4);
  // Safety cap on short jobs per base gadget (theory: deviation is forced
  // after at most floor((2 alpha - 1)/beta) + 1 shorts).
  int max_short_jobs = 16;
};

// One recursive build(k, start, scale) call of the game, as the contiguous
// job range it released: the jobs of I_k, including every nested level.
// Recorded in post-order (children before their parent; the last slice is
// the whole instance). Each slice is itself a complete strong-lb
// sub-instance -- an affine copy of the other same-level builds -- and
// b01_bound_tier queries OPT on every slice (its strong-lb family).
struct StrongLbLevelSlice {
  int level = 0;           // the k of this build call (2 = base gadget)
  std::size_t job_begin = 0;  // [job_begin, job_end) in release order
  std::size_t job_end = 0;
};

struct StrongLbResult {
  Instance instance;               // everything the adversary released
  std::vector<JobId> critical_jobs;  // k jobs, k distinct machines
  Rat critical_time;
  std::size_t machines_used = 0;   // machines opened by the opponent
  std::size_t jobs = 0;
  bool opponent_missed_deadline = false;
  std::vector<StrongLbLevelSlice> level_slices;  // post-order, see above
};

// The sub-instance a recorded slice released (jobs [job_begin, job_end) of
// result.instance, absolute times preserved).
[[nodiscard]] Instance slice_instance(const StrongLbResult& result,
                                      const StrongLbLevelSlice& slice);

// Plays the k-level game against the policy. Throws std::logic_error if an
// invariant of the construction fails against this opponent (which would
// falsify Lemma 2 for the policy -- it never does for exact-admission
// policies).
[[nodiscard]] StrongLbResult run_strong_lower_bound(
    NonMigratoryPolicy& policy, int levels,
    const StrongLbParams& params = {});

// Generalized entry point: any policy that commits each job to one machine
// and can report that commitment (e.g. the non-preemptive reservation
// policies). machine_of must return the commitment once the job's release
// has been delivered.
using MachineOfFn = std::function<std::optional<std::size_t>(JobId)>;
[[nodiscard]] StrongLbResult run_strong_lower_bound(
    OnlinePolicy& policy, const MachineOfFn& machine_of, int levels,
    const StrongLbParams& params = {});
[[nodiscard]] StrongLbResult run_strong_lower_bound(
    ReservationPolicy& policy, int levels,
    const StrongLbParams& params = {});

}  // namespace minmach
