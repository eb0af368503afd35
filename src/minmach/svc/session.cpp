#include "minmach/svc/session.hpp"

#include <stdexcept>

#include "minmach/core/instance.hpp"
#include "minmach/obs/metrics.hpp"

namespace minmach::svc {

// The svc.* counters are semantic event counts (not execution-class): they
// are functions of the ingested stream alone, identical at any thread count
// or cache state, so they may appear in deterministic reports.

Session::Session() : oracle_(Instance{}) {}

void Session::on_release(std::int64_t job, const Job& payload) {
  if (jobs_.count(job) != 0)
    throw std::invalid_argument("Session::on_release: duplicate live job id " +
                                std::to_string(job));
  if (!payload.well_formed())
    throw std::invalid_argument("Session::on_release: malformed job " +
                                std::to_string(job));
  obs::Registry::global().counter("svc.releases").add();
  jobs_.emplace(job, Tracked{true, pending_inserts_.size()});
  pending_inserts_.push_back({job, payload, false});
  ++live_;
}

void Session::on_complete(std::int64_t job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end())
    throw std::invalid_argument("Session::on_complete: unknown job id " +
                                std::to_string(job));
  obs::Registry::global().counter("svc.completes").add();
  if (it->second.pending) {
    // Released and completed between queries: cancel the queued insert, the
    // oracle never sees the job.
    pending_inserts_[it->second.index].cancelled = true;
    ++coalesced_;
    obs::Registry::global().counter("svc.coalesced").add();
  } else {
    pending_removes_.push_back(static_cast<JobId>(it->second.index));
  }
  jobs_.erase(it);
  --live_;
}

void Session::flush() {
  for (JobId id : pending_removes_) oracle_.remove_job(id);
  pending_removes_.clear();
  for (const PendingInsert& pending : pending_inserts_) {
    if (pending.cancelled) continue;
    const JobId id = oracle_.insert_job(pending.payload);
    jobs_[pending.job] = Tracked{false, static_cast<std::size_t>(id)};
  }
  pending_inserts_.clear();
}

std::int64_t Session::query_opt() {
  obs::Registry::global().counter("svc.queries").add();
  flush();
  return oracle_.optimal_machines();
}

}  // namespace minmach::svc
