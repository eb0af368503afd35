#include "minmach/svc/engine.hpp"

#include <sstream>
#include <stdexcept>

#include "minmach/obs/histogram.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/util/parallel.hpp"

namespace minmach::svc {

SessionEngine::SessionEngine(const EngineOptions& options)
    : options_(options) {}

void SessionEngine::ingest(const std::vector<Event>& batch) {
  if (batch.empty()) return;
  std::uint64_t max_session = 0;
  for (const Event& event : batch)
    max_session = std::max(max_session, event.session);
  if (sessions_.size() <= max_session) {
    sessions_.resize(max_session + 1);
    answers_.resize(max_session + 1);
  }
  // Bucket event indices per session; batch order within a bucket is the
  // session's event order.
  std::vector<std::vector<std::uint32_t>> buckets(sessions_.size());
  for (std::uint32_t i = 0; i < batch.size(); ++i)
    buckets[batch[i].session].push_back(i);
  std::vector<std::uint64_t> touched;
  for (std::uint64_t s = 0; s < buckets.size(); ++s) {
    if (buckets[s].empty()) continue;
    touched.push_back(s);
    if (!sessions_[s]) sessions_[s] = std::make_unique<Session>();
  }

  const std::size_t threads =
      util::resolve_threads(options_.threads, touched.size());
  // parallel_map's determinism contract carries the engine's: each task
  // touches only its own session + answer slot, and the first exception in
  // TASK order is rethrown, so errors too are thread-count invariant.
  util::parallel_map(touched.size(), threads, [&](std::size_t t) {
    const std::uint64_t s = touched[t];
    Session& session = *sessions_[s];
    for (std::uint32_t index : buckets[s]) {
      const Event& event = batch[index];
      obs::ScopedLatency latency("hist.event_ns");
      switch (event.kind) {
        case Event::Kind::kRelease:
          session.on_release(event.job, event.payload);
          break;
        case Event::Kind::kComplete:
          session.on_complete(event.job);
          break;
        case Event::Kind::kQuery:
          answers_[s].push_back(session.query_opt());
          break;
      }
    }
    return 0;
  });
  events_ += batch.size();
}

const std::vector<std::int64_t>& SessionEngine::answers(
    std::uint64_t id) const {
  if (id >= answers_.size())
    throw std::out_of_range("SessionEngine::answers: unknown session " +
                            std::to_string(id));
  return answers_[id];
}

std::string SessionEngine::report_json() const {
  std::ostringstream os;
  obs::JsonWriter json(os);
  json.begin_object();
  json.key("schema").value("svc-report-v1");
  json.key("sessions").value(static_cast<std::uint64_t>(sessions_.size()));
  json.key("events").value(events_);
  json.key("answers").begin_array();
  for (const std::vector<std::int64_t>& per_session : answers_) {
    json.begin_array();
    for (std::int64_t answer : per_session) json.value(answer);
    json.end_array();
  }
  json.end_array();
  json.end_object();
  os << "\n";
  return os.str();
}

}  // namespace minmach::svc
