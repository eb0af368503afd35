// Certified upper bound on the migratory optimum via constructive packing
// (the upper side of the bound tier, DESIGN.md §14).
//
// A greedy fluid packing walks the elementary segments between event points
// left to right; within each segment of length L it grants wall time
// min(L, remaining) to jobs in priority order -- earliest deadline first,
// or least laxity first -- until the m*L capacity is spent. Granting at
// most L per job per segment is exactly McNaughton's wrap-around condition,
// so a successful pass realizes as a concrete migratory schedule, and the
// winning pass is audited as one (pack_upper_bound below). The certificate
// is therefore a feasible schedule, never a heuristic estimate:
// pack_upper_bound's machine count is a true upper bound on OPT for every
// input.
//
// The packing is not exact (greedy fluid EDF/LLF can miss feasible budgets
// the max flow certifies), so the driver gallops the machine budget up from
// `start` until a pass succeeds -- n machines always do: with cap n*L every
// released job runs at full rate through its whole window -- and then
// binary-searches the witness down within a fixed attempt budget. Spirit of
// the rounding schemes in Chen--Megow--Schewior and Im--Moseley--Pruhs--
// Stein (PAPERS.md): a cheap constructive packer whose witness bounds the
// optimum from above.
#pragma once

#include <cstdint>
#include <vector>

#include "minmach/core/bounds.hpp"
#include "minmach/core/instance.hpp"

namespace minmach {

struct PackUbResult {
  // Certified upper bound on OPT: a feasible schedule on this many machines
  // exists (n for the trivial one-job-per-machine certificate, 0 for the
  // empty instance).
  std::int64_t machines = 0;
  PackWitness witness = PackWitness::kSingleton;
  std::uint64_t attempts = 0;  // packing passes executed
  // The witness schedule passed core/validate. False only for the trivial
  // singleton certificate (vacuously feasible, nothing to audit) or a
  // malformed instance.
  bool validated = false;
};

// Certified upper bound on the migratory optimum of `instance`. `start` is
// the first machine budget to try, clamped into [1, n]; pass a certified
// lower bound so a success there pinches the sandwich outright. Each failed
// EDF budget is retried with the least-laxity order (LLF packs tight nested
// windows EDF starves, and vice versa) within the attempt budget
// 2 * ceil(log2 n) + 6.
//
// The winning pass is audited before it certifies anything: it is
// realized as a schedule and run through core/validate.
//
// Returns the trivial n-machine certificate for a malformed instance (which
// no packing can serve) and {0} for an empty one.
[[nodiscard]] PackUbResult pack_upper_bound(const Instance& instance,
                                            std::int64_t start = 1);

// The same bound on int64 job columns (job j is release[j], deadline[j],
// processing[j]) and their event points: every release and deadline,
// sorted and deduplicated. Its passes grant exactly what the Instance
// entry's grant on the instance these columns spell, so it returns what
// that entry returns; only the audit differs. It checks McNaughton's
// realizability conditions on the grants directly: each grant fits its
// segment and its job's window, each job receives exactly its processing
// time, and no segment exceeds machines * length. These are exactly the
// facts core/validate re-derives from the realized schedule, so the
// certificate is equally binding. Precondition: every job is well-formed
// (0 < p_j <= d_j - r_j) and every field fits the 62-bit grid guard
// (core/grid.hpp), as an integer-mode oracle's grid columns do.
[[nodiscard]] PackUbResult pack_upper_bound(
    const std::vector<std::int64_t>& release,
    const std::vector<std::int64_t>& deadline,
    const std::vector<std::int64_t>& processing,
    const std::vector<std::int64_t>& points, std::int64_t start = 1);

}  // namespace minmach
