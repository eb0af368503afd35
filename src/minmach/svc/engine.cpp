#include "minmach/svc/engine.hpp"

#include <sstream>
#include <stdexcept>

#include "minmach/obs/histogram.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/store/corpus.hpp"
#include "minmach/util/parallel.hpp"

namespace minmach::svc {

SessionEngine::SessionEngine(const EngineOptions& options)
    : options_(options) {}

std::uint64_t SessionEngine::seed_from_corpus(const store::Corpus& corpus) {
  const std::uint64_t first = sessions_.size();
  std::vector<Event> batch;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const store::InstanceView view = corpus.view(i);
    const std::uint64_t sid = first + i;
    if (view.int64_grid()) {
      // Scaled integer coordinates straight off the mapping: the session's
      // oracle stays on the all-integer fast path and, by affine
      // invariance, answers the original instance's OPT.
      const std::int64_t* r = view.release();
      const std::int64_t* d = view.deadline();
      const std::int64_t* p = view.processing();
      for (std::size_t j = 0; j < view.size(); ++j)
        batch.push_back({Event::Kind::kRelease, sid,
                         static_cast<std::int64_t>(j),
                         Job{Rat(r[j]), Rat(d[j]), Rat(p[j])}});
      obs::Registry::global().counter("store.corpus_zero_copy").add();
    } else {
      // One materialize per instance: kBigText views parse their whole text
      // blob per job() call, so per-job reconstruction would be quadratic.
      const Instance inst = view.materialize();
      for (std::size_t j = 0; j < view.size(); ++j)
        batch.push_back({Event::Kind::kRelease, sid,
                         static_cast<std::int64_t>(j), inst.jobs()[j]});
    }
  }
  // Materialize the session slots even when the corpus is empty of jobs, so
  // ids from `first` are valid either way.
  if (sessions_.size() < first + corpus.size()) {
    sessions_.resize(first + corpus.size());
    answers_.resize(first + corpus.size());
  }
  ingest(batch);
  return first;
}

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
