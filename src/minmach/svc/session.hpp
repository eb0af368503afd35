// A Session is one evolving job set served by a fully-dynamic
// FeasibilityOracle (DESIGN.md §15): jobs arrive via on_release, retire via
// on_complete, and query_opt answers the exact migratory OPT of whatever is
// live right now. Edits are BATCHED -- they queue in the session and only
// reach the oracle when a query needs the answer -- so a release/complete
// pair that lands between two queries coalesces away entirely (the oracle
// never sees the job; counter svc.coalesced), and a burst of edits costs one
// splice pass instead of one per event.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "minmach/core/job.hpp"
#include "minmach/flow/feasibility.hpp"

namespace minmach::svc {

class Session {
 public:
  Session();

  // Admits a job under a caller-chosen external id (the oracle's internal
  // JobIds are private to the session). Throws std::invalid_argument on a
  // duplicate live id or a malformed job.
  void on_release(std::int64_t job, const Job& payload);

  // Retires a live job by external id. A job that is still pending (released
  // since the last flush) is cancelled without ever touching the oracle.
  // Throws std::invalid_argument on an unknown id.
  void on_complete(std::int64_t job);

  // Exact migratory OPT of the live job set (0 when empty). Flushes pending
  // edits first.
  [[nodiscard]] std::int64_t query_opt();

  // Applies the queued edits to the oracle: removes first (freeing slots and
  // network capacity the inserts can recycle), then the surviving inserts.
  void flush();

  [[nodiscard]] std::int64_t live_jobs() const { return live_; }
  [[nodiscard]] std::uint64_t coalesced() const { return coalesced_; }

 private:
  struct PendingInsert {
    std::int64_t job = 0;
    Job payload{};
    bool cancelled = false;
  };
  // Where a live external id currently lives: still queued (index into
  // pending_inserts_) or admitted (the oracle's JobId).
  struct Tracked {
    bool pending = false;
    std::size_t index = 0;
  };

  FeasibilityOracle oracle_;
  std::unordered_map<std::int64_t, Tracked> jobs_;
  std::vector<PendingInsert> pending_inserts_;
  std::vector<JobId> pending_removes_;
  std::int64_t live_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace minmach::svc
