#include "minmach/core/instance.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

namespace minmach {

JobId Instance::add_job(Job job) {
  jobs_.push_back(std::move(job));
  return static_cast<JobId>(jobs_.size() - 1);
}

bool Instance::well_formed() const {
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const Job& j) { return j.well_formed(); });
}

Rat Instance::total_work() const {
  Rat total(0);
  for (const auto& j : jobs_) total += j.processing;
  return total;
}

std::vector<Rat> Instance::event_points() const {
  std::vector<Rat> points;
  points.reserve(2 * jobs_.size());
  for (const auto& j : jobs_) {
    points.push_back(j.release);
    points.push_back(j.deadline);
  }
  // Integer fast path (DESIGN.md §12): when every endpoint is a small
  // integer, sort/dedup int64 keys instead of Rats -- a compare there is
  // one instruction vs. a two-branch small-tier compare -- and rebuild the
  // canonical Rats (integers are canonical as v/1, so the result is
  // bit-identical to sorting the Rats directly).
  std::vector<std::int64_t> keys(points.size());
  if (rat_batch::to_i64(points.data(), points.size(), keys.data(),
                        INT64_MAX)) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    points.resize(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) points[i] = Rat(keys[i]);
    return points;
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  return points;
}

bool Instance::is_agreeable() const {
  for (std::size_t a = 0; a < jobs_.size(); ++a) {
    for (std::size_t b = 0; b < jobs_.size(); ++b) {
      if (jobs_[a].release < jobs_[b].release &&
          jobs_[a].deadline > jobs_[b].deadline)
        return false;
    }
  }
  return true;
}

bool Instance::is_laminar() const {
  for (std::size_t a = 0; a < jobs_.size(); ++a) {
    for (std::size_t b = a + 1; b < jobs_.size(); ++b) {
      Interval cut = intersect(jobs_[a].window(), jobs_[b].window());
      if (cut.empty()) continue;
      bool a_in_b = jobs_[b].release <= jobs_[a].release &&
                    jobs_[a].deadline <= jobs_[b].deadline;
      bool b_in_a = jobs_[a].release <= jobs_[b].release &&
                    jobs_[b].deadline <= jobs_[a].deadline;
      if (!a_in_b && !b_in_a) return false;
    }
  }
  return true;
}

bool Instance::all_loose(const Rat& alpha) const {
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [&](const Job& j) { return j.is_loose(alpha); });
}

Rat Instance::processing_time_ratio() const {
  if (jobs_.empty()) return Rat(1);
  Rat lo = jobs_.front().processing;
  Rat hi = lo;
  for (const auto& j : jobs_) {
    lo = Rat::min(lo, j.processing);
    hi = Rat::max(hi, j.processing);
  }
  return hi / lo;
}

std::vector<JobId> Instance::sort_canonical() {
  std::vector<JobId> order(jobs_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](JobId a, JobId b) {
    if (jobs_[a].release != jobs_[b].release)
      return jobs_[a].release < jobs_[b].release;
    return jobs_[a].deadline > jobs_[b].deadline;
  });
  std::vector<Job> sorted;
  sorted.reserve(jobs_.size());
  for (JobId id : order) sorted.push_back(jobs_[id]);
  jobs_ = std::move(sorted);
  return order;
}

BigInt Instance::denominator_lcm() const {
  BigInt lcm(1);
  for (const auto& j : jobs_) {
    lcm = BigInt::lcm(lcm, j.release.den());
    lcm = BigInt::lcm(lcm, j.deadline.den());
    lcm = BigInt::lcm(lcm, j.processing.den());
  }
  return lcm;
}

std::string Instance::to_string() const {
  std::string out = "Instance(" + std::to_string(jobs_.size()) + " jobs)\n";
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    out += "  j" + std::to_string(i) + ": r=" + jobs_[i].release.to_string() +
           " d=" + jobs_[i].deadline.to_string() +
           " p=" + jobs_[i].processing.to_string() + "\n";
  }
  return out;
}

}  // namespace minmach
