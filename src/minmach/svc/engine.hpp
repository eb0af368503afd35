// SessionEngine: many concurrent Sessions fed from one event stream,
// sharded across the deterministic work-stealing scheduler
// (util/parallel.hpp). Sessions are independent by construction -- an event
// only ever touches its own session -- so a batch is processed by bucketing
// events per session and running each session's bucket in original order on
// whatever worker picks it up. The outcome (every query answer, and
// therefore report_json()) is byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "minmach/svc/session.hpp"

namespace minmach::svc {

// One event in a session stream.
struct Event {
  enum class Kind { kRelease, kComplete, kQuery };
  Kind kind = Kind::kQuery;
  std::uint64_t session = 0;
  std::int64_t job = 0;  // release / complete
  Job payload{};         // release only
};

struct EngineOptions {
  // Worker count for ingest(); <= 0 means all hardware threads.
  std::int64_t threads = -1;
};

class SessionEngine {
 public:
  explicit SessionEngine(const EngineOptions& options = {});

  // Applies a batch of events. Sessions are created on first touch (ids
  // should be dense from 0 -- the engine's tables are indexed by id). One
  // session's events apply in batch order on a single worker; per-event
  // wall time records into the hist.event_ns latency histogram when
  // profiling is on. Event errors (duplicate release, unknown complete,
  // malformed job) propagate as std::invalid_argument -- the first in batch
  // order, regardless of thread count.
  void ingest(const std::vector<Event>& batch);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] std::uint64_t events_ingested() const { return events_; }

  // Every answer session `id`'s queries produced so far, in stream order.
  [[nodiscard]] const std::vector<std::int64_t>& answers(
      std::uint64_t id) const;

  // Deterministic JSON of all sessions' query answers (schema
  // svc-report-v1). Byte-identical for a fixed stream at any thread count
  // -- the replay determinism check diffs these bytes directly.
  [[nodiscard]] std::string report_json() const;

 private:
  EngineOptions options_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::vector<std::int64_t>> answers_;
  std::uint64_t events_ = 0;
};

}  // namespace minmach::svc
