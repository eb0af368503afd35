// An Instance is an ordered set of jobs (order = index = the online release
// order tie-break used throughout the paper, cf. §5: indices sorted by
// release date, ties by non-increasing deadline).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "minmach/core/job.hpp"
#include "minmach/util/rational.hpp"

namespace minmach {

class Instance {
 public:
  Instance() = default;
  explicit Instance(std::vector<Job> jobs) : jobs_(std::move(jobs)) {}

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }
  [[nodiscard]] const Job& job(JobId id) const { return jobs_[id]; }
  [[nodiscard]] const std::vector<Job>& jobs() const { return jobs_; }

  JobId add_job(Job job);

  // Removes all jobs but keeps the storage, so a pooled simulator can
  // resubmit a fresh instance without reallocating (DESIGN.md §10).
  void clear() { jobs_.clear(); }

  // All jobs well-formed (0 < p <= d - r)?
  [[nodiscard]] bool well_formed() const;

  // Sum of processing times.
  [[nodiscard]] Rat total_work() const;

  // Sorted unique release dates and deadlines; these are the only points at
  // which the optimal load characterization (Theorem 1) needs interval
  // endpoints, and the segment grid of the max-flow feasibility network.
  [[nodiscard]] std::vector<Rat> event_points() const;

  // r_j < r_j' implies d_j <= d_j' for all pairs (paper §6).
  [[nodiscard]] bool is_agreeable() const;

  // Intersecting windows are nested (paper §5).
  [[nodiscard]] bool is_laminar() const;

  // All jobs alpha-loose.
  [[nodiscard]] bool all_loose(const Rat& alpha) const;

  // Delta = max p_j / min p_j (the ratio in the O(log Delta) bounds).
  [[nodiscard]] Rat processing_time_ratio() const;

  // Re-index jobs into the canonical online order: release ascending, ties
  // by deadline descending (the order assumed in §5). Returns the mapping
  // new_index -> old_index.
  std::vector<JobId> sort_canonical();

  // Least common multiple of all parameter denominators. Multiplying all
  // times by this lands the instance on an integer grid (used by the flow
  // substrate's fast path).
  [[nodiscard]] BigInt denominator_lcm() const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Job> jobs_;
};

}  // namespace minmach
