// Exact migratory feasibility and OPT via max flow (Horn's network):
// source -> job j with capacity p_j; job -> segment [t_k, t_k+1) with
// capacity t_k+1 - t_k whenever the segment lies in I(j); segment -> sink
// with capacity m * (t_k+1 - t_k). The instance is feasible on m migratory
// machines iff the max flow saturates all source edges. This is the
// polynomial-time offline optimum the paper's introduction refers to ([6]),
// and the ground truth every competitive-ratio experiment divides by.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "minmach/core/bounds.hpp"
#include "minmach/core/instance.hpp"
#include "minmach/core/schedule.hpp"

namespace minmach {

// Per-segment processing assignment: allocation[j][k] = wall time job j is
// processed during segment k (segments from Instance::event_points()).
struct FlowAllocation {
  std::vector<Rat> segment_starts;  // size k+1: the event points
  std::vector<std::vector<Rat>> per_job;
};

// Reusable per-instance feasibility oracle. The Horn network depends on the
// machine count only through the segment->sink capacities machines*|segment|,
// so the oracle normalizes the instance (integer grid when denominators
// allow, exact rationals otherwise) and builds the network ONCE; each probe
// retunes the sink capacities. The network is segment-tree-compressed,
// ascending probes warm-start from the previous flow, and the search opens
// at the sweep load lower bound -- so OPT typically costs one network build
// plus roughly one max-flow in total. Verdicts are memoized and feasible(m)
// is monotone in m.
//
// Until its first insert_job/remove_job, the oracle also consults the
// certified bound sandwich (core/bounds.hpp) before probing: when it
// pinches, OPT costs no network at all. An edited oracle never consults it
// again -- a warm probe after a splice costs a few edge visits, while the
// sandwich would be recomputed after every edit. Instead it keeps the
// interval that attained its last sweep load bound and, after the next
// edits, re-sums that interval's load over the live jobs (one O(n) pass)
// before it sweeps again (optimal_machines()). There is one configuration
// and no switch; tests check it against an independent dense Horn network
// (tests/reference_horn.hpp), through probe() where they need the
// network's own verdict.
class FeasibilityOracle {
 public:
  explicit FeasibilityOracle(const Instance& instance);
  ~FeasibilityOracle();
  FeasibilityOracle(FeasibilityOracle&&) noexcept;
  FeasibilityOracle& operator=(FeasibilityOracle&&) noexcept;

  // True iff the instance is feasible on `machines` migratory machines.
  // Memoized; probes the network only for verdicts not implied by
  // monotonicity, the certified load lower bound or (never-edited oracles)
  // the bound sandwich.
  [[nodiscard]] bool feasible(std::int64_t machines);

  // The flow network's own verdict on `machines`: builds the network if
  // needed and runs one max flow, without reading or updating the verdict
  // memo and without the bound sandwich. Counts in probes_executed(). For
  // tests and benches that need the network itself; feasible() is the
  // production query.
  [[nodiscard]] bool probe(std::int64_t machines);

  // ---- dynamic edits (DESIGN.md §15) ----------------------------------
  //
  // The oracle's job set becomes mutable: insert_job admits a new job and
  // returns its stable id, remove_job retires one. Ids for jobs from the
  // constructor instance are their indices there; inserted jobs get the
  // next unused id. An already-built network is spliced in place and the
  // routed flow repaired warm. Every verdict afterwards is exactly the
  // batch oracle's on the live job set, and the monotone memo carries
  // across the edit via the sound shifts: an insert can only grow OPT, and
  // by at most 1 (the new job alone fits one extra machine); a remove can
  // only shrink it, by at most 1 (re-adding the removed job to a schedule
  // needs at most one machine).
  //
  // insert_job throws std::invalid_argument on a malformed job or a
  // malformed-constructed oracle; remove_job on an unknown/retired id. A
  // rejected edit leaves the oracle exactly as it was.
  JobId insert_job(const Job& job);
  void remove_job(JobId id);
  // Jobs currently admitted (constructor jobs plus inserts minus removes).
  [[nodiscard]] std::int64_t live_jobs() const;

  // Exact migratory OPT. A never-edited oracle narrows the memo with the
  // bound sandwich; an edited one first re-checks its last sweep witness
  // against the live jobs, then probes the bracket's floor when that probe
  // only extends the routed flow. If candidates remain, it ascends from
  // load_lower_bound() with warm-started probes (galloping when the bound
  // is loose, then binary-searching the bracket). Returns 0 for the empty
  // instance; throws std::invalid_argument on a malformed one.
  [[nodiscard]] std::int64_t optimal_machines();

  // A certified lower bound on OPT (>= 1 for a non-empty instance): the
  // density bound ceil(total work / span), sharpened by the sweep
  // single-interval load bound (computed lazily on first call). On
  // instances with many event points the sweep
  // subsamples left endpoints (a budgeted, still-certified bound), so this
  // can be slightly below load_bound_single_interval().
  [[nodiscard]] std::int64_t load_lower_bound() const;

  // The certified sandwich lo <= OPT <= hi (computed lazily on first use,
  // recomputed after an edit, and folded into the verdict memo). Empty or
  // malformed instance: {0, 0}.
  [[nodiscard]] BoundSandwich bound_sandwich();

  // Network probes this oracle actually executed, probe() calls included
  // (memo hits and bound-tier short-circuits excluded). Exposed for the
  // bound-tier bench (b01) and the probe-parity tests.
  [[nodiscard]] std::uint64_t probes_executed() const;

 private:
  struct Impl;
  // A live oracle owns its Impl outright, so it may outlive the thread
  // that built it. The deleter parks a dying oracle's Impl as the
  // destroying thread's idle Impl, or deletes it if one is already parked;
  // the next oracle built on that thread adopts the parked Impl. A sweep
  // that constructs one oracle per instance thus recycles the probe
  // network's adjacency/edge/level storage call after call (DESIGN.md
  // §10.3).
  struct ImplDeleter {
    void operator()(Impl* impl) const noexcept;
  };
  static std::unique_ptr<Impl, ImplDeleter> acquire_impl();
  std::unique_ptr<Impl, ImplDeleter> impl_;
};

// True iff the instance admits a feasible preemptive migratory schedule on
// `machines` unit-speed machines. One-shot; for repeated probes of the same
// instance use FeasibilityOracle.
[[nodiscard]] bool feasible_migratory(const Instance& instance,
                                      std::int64_t machines);

// As above, and on success returns the per-segment allocation, read off a
// dense per-segment network. The network runs on the instance's integer
// grid (core/grid.hpp) when it has one and on exact rationals otherwise;
// both give the same allocation.
[[nodiscard]] std::optional<FlowAllocation> solve_migratory(
    const Instance& instance, std::int64_t machines);

// Exact minimum machine count (galloping + binary search through a shared
// FeasibilityOracle). Returns 0 for the empty instance.
[[nodiscard]] std::int64_t optimal_migratory_machines(const Instance& instance);

// Builds a concrete feasible migratory schedule on `machines` machines
// (solve_migratory's allocation, then McNaughton wrap-around within each
// segment, both in the same value domain). Throws std::invalid_argument
// if infeasible. Pass optimal_migratory_machines(..) for an OPT schedule.
[[nodiscard]] Schedule optimal_migratory_schedule(const Instance& instance,
                                                  std::int64_t machines);

}  // namespace minmach
