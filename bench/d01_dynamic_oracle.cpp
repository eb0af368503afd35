// D1 -- dynamic oracle + session engine: the fully-dynamic
// FeasibilityOracle (DESIGN.md section 15, insert_job/remove_job with warm
// flow repair) behind the svc session engine, versus rebuilding the batch
// oracle from scratch on every event.
//
// Three phases:
//
//   insert-heavy A/B : per session, a deterministic ~85% release / 15%
//       complete stream with an OPT query after EVERY event. The dynamic
//       side answers through one svc::Session (splice + warm repair); the
//       baseline constructs a fresh Instance + batch FeasibilityOracle per
//       query -- the rebuild-per-event comparator. Five alternating
//       dynamic/rebuild repetitions; every answer of every repetition is
//       compared exactly, and a >= 5x median end-to-end wall speedup is
//       enforced at full size (recorded, not enforced, at smoke sizes --
//       tiny-input wall ratios measure constants, not the splice path).
//   throughput       : a mixed release/complete/query stream over
//       --sessions sessions (default 1024 -- the "1k+ live sessions"
//       regime) x --events events each, ingested in one batch through the
//       SessionEngine sharded across the work-stealing scheduler.
//       Profiling is armed around the ingest so the hist.event_ns latency
//       histogram yields p50/p99 per-event OPT latency; sustained
//       events/sec comes from the ingest wall. Queries here follow several
//       edits, so the oracle's sweeps and witness re-checks are counted.
//   determinism      : the same stream replayed at 1 thread and at 4
//       threads must produce byte-identical report JSON, and the JSONL
//       round-trip (to_jsonl -> parse_jsonl -> replay) must reproduce it.
//
// Writes --out (BENCH_dynamic.json): per-repetition and median walls and
// speedups, events/sec, latency percentiles, the dyn.* splice counter
// deltas and the throughput phase's oracle.* bound counter deltas.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.hpp"
#include "minmach/core/instance.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/obs/histogram.hpp"
#include "minmach/obs/json.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/svc/engine.hpp"
#include "minmach/svc/replay.hpp"
#include "minmach/svc/session.hpp"
#include "minmach/util/rng.hpp"

namespace {

using namespace minmach;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// A random well-formed integer-grid job: the streams stay on the oracle's
// small-integer fast path, like most replayed production traces would.
Job random_job(Rng& rng) {
  const std::int64_t release = rng.uniform_int(0, 96);
  const std::int64_t length = rng.uniform_int(1, 24);
  const std::int64_t processing = rng.uniform_int(1, length);
  return Job{Rat(release), Rat(release + length), Rat(processing)};
}

// Deterministic per-session event stream: ~release_pct% releases, the rest
// completes of a random live job (forced to release when none is live).
// Queries are NOT included -- each phase decides its own query placement.
std::vector<svc::Event> session_stream(std::uint64_t session,
                                       std::int64_t events, int release_pct,
                                       std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + session + 1);
  std::vector<svc::Event> out;
  out.reserve(static_cast<std::size_t>(events));
  std::vector<std::int64_t> live;
  std::int64_t next_job = 0;
  for (std::int64_t i = 0; i < events; ++i) {
    svc::Event event;
    event.session = session;
    if (live.empty() ||
        rng.uniform_int(0, 99) < static_cast<std::int64_t>(release_pct)) {
      event.kind = svc::Event::Kind::kRelease;
      event.job = next_job++;
      event.payload = random_job(rng);
      live.push_back(event.job);
    } else {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      event.kind = svc::Event::Kind::kComplete;
      event.job = live[pick];
      live[pick] = live.back();
      live.pop_back();
    }
    out.push_back(std::move(event));
  }
  return out;
}

std::uint64_t counter_delta(const char* name, std::uint64_t before) {
  return obs::Registry::global().counter(name).value() - before;
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

}  // namespace

int main(int argc, char** argv) try {
  Cli cli(argc, argv);
  const std::int64_t sessions = bench::positive_count_flag(cli, "sessions", 1024);
  const std::int64_t events = bench::positive_count_flag(cli, "events", 32);
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed", 11));
  const std::int64_t threads = bench::threads_flag(cli);
  const std::string out_path = cli.get_string("out", "BENCH_dynamic.json");
  bench::Run ctx(cli,
                 "D1: dynamic oracle -- warm splice repair vs rebuild-per-event",
                 "insert_job/remove_job splice the Horn network and repair "
                 "the routed flow warm; answers equal the batch oracle's on "
                 "every edit");
  cli.check_unknown();
  ctx.config("sessions", sessions);
  ctx.config("events", events);
  ctx.config("seed", static_cast<std::int64_t>(seed));

  // --- phase A: insert-heavy A/B, dynamic vs rebuild-per-event -----------
  // Fewer sessions x more events than the throughput phase: the splice
  // path's advantage grows with live-set size, which rebuild-per-event pays
  // for from scratch on every query.
  const std::int64_t sessions_ab = std::max<std::int64_t>(1, sessions / 64);
  const std::int64_t events_ab = events * 8;
  std::vector<std::vector<svc::Event>> streams;
  streams.reserve(static_cast<std::size_t>(sessions_ab));
  for (std::int64_t s = 0; s < sessions_ab; ++s)
    streams.push_back(session_stream(static_cast<std::uint64_t>(s), events_ab,
                                     /*release_pct=*/85, seed));

  obs::Registry& registry = obs::Registry::global();
  obs::drain_hot_tallies();
  const std::uint64_t inserts0 = registry.counter("dyn.inserts").value();
  const std::uint64_t removes0 = registry.counter("dyn.removes").value();
  const std::uint64_t patched0 = registry.counter("dyn.edges_patched").value();
  const std::uint64_t avoided0 =
      registry.counter("dyn.rebuilds_avoided").value();
  const std::uint64_t rebuilds0 = registry.counter("dyn.rebuilds").value();

  using Answers = std::vector<std::vector<std::int64_t>>;
  const auto run_dynamic = [&] {
    Answers answers(static_cast<std::size_t>(sessions_ab));
    for (std::int64_t s = 0; s < sessions_ab; ++s) {
      svc::Session session;
      for (const svc::Event& event : streams[static_cast<std::size_t>(s)]) {
        if (event.kind == svc::Event::Kind::kRelease)
          session.on_release(event.job, event.payload);
        else
          session.on_complete(event.job);
        answers[static_cast<std::size_t>(s)].push_back(session.query_opt());
      }
    }
    return answers;
  };
  const auto run_rebuild = [&] {
    Answers answers(static_cast<std::size_t>(sessions_ab));
    for (std::int64_t s = 0; s < sessions_ab; ++s) {
      std::vector<std::pair<std::int64_t, Job>> live;
      for (const svc::Event& event : streams[static_cast<std::size_t>(s)]) {
        if (event.kind == svc::Event::Kind::kRelease) {
          live.emplace_back(event.job, event.payload);
        } else {
          for (std::size_t i = 0; i < live.size(); ++i) {
            if (live[i].first != event.job) continue;
            live[i] = live.back();
            live.pop_back();
            break;
          }
        }
        std::vector<Job> jobs;
        jobs.reserve(live.size());
        for (const auto& [id, job] : live) jobs.push_back(job);
        FeasibilityOracle oracle{Instance(std::move(jobs))};
        answers[static_cast<std::size_t>(s)].push_back(
            oracle.optimal_machines());
      }
    }
    return answers;
  };

  // kRepetitions alternating dynamic/rebuild runs. The bar is decided on
  // the median of their ratios, so one slow stretch of the host cannot
  // fail it, and every repetition's answers are compared. The dyn.*
  // counters are the first dynamic run's (every run makes the same edits).
  constexpr int kRepetitions = 5;
  std::vector<double> dynamic_walls, rebuild_walls, ratios;
  std::uint64_t dyn_inserts = 0, dyn_removes = 0, dyn_patched = 0,
                dyn_avoided = 0, dyn_rebuilds = 0;
  bool answers_ok = true;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const Clock::time_point dynamic_start = Clock::now();
    const Answers dynamic_answers = run_dynamic();
    dynamic_walls.push_back(ms_since(dynamic_start));
    if (rep == 0) {
      obs::drain_hot_tallies();
      dyn_inserts = counter_delta("dyn.inserts", inserts0);
      dyn_removes = counter_delta("dyn.removes", removes0);
      dyn_patched = counter_delta("dyn.edges_patched", patched0);
      dyn_avoided = counter_delta("dyn.rebuilds_avoided", avoided0);
      dyn_rebuilds = counter_delta("dyn.rebuilds", rebuilds0);
    }
    const Clock::time_point rebuild_start = Clock::now();
    const Answers rebuild_answers = run_rebuild();
    rebuild_walls.push_back(ms_since(rebuild_start));
    answers_ok = answers_ok && dynamic_answers == rebuild_answers;
    bench::require(answers_ok,
                   "insert-heavy A/B: dynamic answers diverge from "
                   "rebuild-per-event");
    ratios.push_back(rebuild_walls.back() /
                     std::max(1e-9, dynamic_walls.back()));
  }
  const double dynamic_ms = median(dynamic_walls);
  const double rebuild_ms = median(rebuild_walls);
  const double speedup = median(ratios);
  Table ab_table({"mode", "sessions", "events/session",
                  "median wall ms (" + std::to_string(kRepetitions) +
                      " runs)"});
  ab_table.add_row({"dynamic (splice+repair)", std::to_string(sessions_ab),
                    std::to_string(events_ab), Table::fmt(dynamic_ms, 2)});
  ab_table.add_row({"rebuild-per-event", std::to_string(sessions_ab),
                    std::to_string(events_ab), Table::fmt(rebuild_ms, 2)});
  ab_table.print(std::cout);
  ctx.table("insert-heavy A/B (85% release, query after every event)",
            ab_table);
  // Tiny smoke streams measure constants, not the splice path; the 5x bar
  // binds only at full size.
  const bool full_size = sessions_ab >= 8 && events_ab >= 256;
  ctx.check(full_size
                ? "insert-heavy: median dynamic >= 5x over rebuild-per-event"
                : "insert-heavy: median dynamic speedup (recorded, smoke size)",
            Table::fmt(speedup, 2), full_size ? ">= 5" : "> 0",
            full_size ? speedup >= 5.0 : speedup > 0.0);

  // --- phase B: engine throughput at --sessions live sessions ------------
  // 60% release / 25% complete keeps live sets growing; every ~7th event
  // per session is a query (cheaper streams would measure splicing alone,
  // not per-event OPT latency).
  std::vector<svc::Event> mixed;
  mixed.reserve(static_cast<std::size_t>(sessions * events));
  for (std::int64_t s = 0; s < sessions; ++s) {
    std::vector<svc::Event> stream = session_stream(
        static_cast<std::uint64_t>(s), events, /*release_pct=*/70, seed ^ 1);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      mixed.push_back(stream[i]);
      if ((i + static_cast<std::size_t>(s)) % 7 == 6) {
        svc::Event query;
        query.kind = svc::Event::Kind::kQuery;
        query.session = static_cast<std::uint64_t>(s);
        mixed.push_back(query);
      }
    }
  }

  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling(true);
  obs::LatencyRegistry::global().histogram("hist.event_ns").reset();
  svc::EngineOptions engine_options;
  engine_options.threads = threads;
  svc::SessionEngine engine(engine_options);
  const std::uint64_t sweeps0 = registry.counter("oracle.sweep_bounds").value();
  const std::uint64_t witnesses0 =
      registry.counter("oracle.witness_bounds").value();
  const Clock::time_point ingest_start = Clock::now();
  engine.ingest(mixed);
  const double ingest_ms = ms_since(ingest_start);
  const std::uint64_t sweep_bounds =
      counter_delta("oracle.sweep_bounds", sweeps0);
  const std::uint64_t witness_bounds =
      counter_delta("oracle.witness_bounds", witnesses0);
  obs::set_profiling(was_profiling);
  const obs::LatencySummary latency =
      obs::LatencyRegistry::global().histogram("hist.event_ns").summary();
  const double events_per_sec =
      static_cast<double>(mixed.size()) / std::max(1e-9, ingest_ms / 1e3);

  Table throughput_table(
      {"sessions", "events", "wall ms", "events/s", "p50 ns", "p99 ns"});
  throughput_table.add_row(
      {std::to_string(engine.session_count()), std::to_string(mixed.size()),
       Table::fmt(ingest_ms, 2), Table::fmt(events_per_sec, 0),
       std::to_string(latency.p50), std::to_string(latency.p99)});
  throughput_table.print(std::cout);
  ctx.table("engine throughput (mixed stream, per-event latency histogram)",
            throughput_table);
  ctx.check("throughput: latency histogram saw every event",
            std::to_string(latency.count), std::to_string(mixed.size()),
            latency.count == mixed.size());

  // --- phase C: edit-replay determinism ----------------------------------
  // The same stream, 1 thread vs 4 threads: the engine's bucketing keeps
  // per-session order, so the reports must match byte for byte. The JSONL
  // round-trip must reproduce the stream (and therefore the report).
  std::vector<svc::Event> replay_stream;
  const std::int64_t replay_sessions = std::min<std::int64_t>(sessions, 64);
  for (std::int64_t s = 0; s < replay_sessions; ++s) {
    std::vector<svc::Event> stream = session_stream(
        static_cast<std::uint64_t>(s), events, /*release_pct=*/70, seed ^ 2);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      replay_stream.push_back(stream[i]);
      if (i % 5 == 4) {
        svc::Event query;
        query.kind = svc::Event::Kind::kQuery;
        query.session = static_cast<std::uint64_t>(s);
        replay_stream.push_back(query);
      }
    }
  }
  svc::EngineOptions one_thread;
  one_thread.threads = 1;
  svc::EngineOptions four_threads;
  four_threads.threads = 4;
  const std::string report_1t = svc::replay_events(replay_stream, one_thread);
  const std::string report_4t = svc::replay_events(replay_stream, four_threads);
  const bool replay_ok = report_1t == report_4t;
  bench::require(replay_ok,
                 "edit replay: report JSON differs between 1 and 4 threads");
  const std::string jsonl = svc::to_jsonl(replay_stream);
  const std::vector<svc::Event> reparsed = svc::parse_jsonl(jsonl);
  bench::require(svc::to_jsonl(reparsed) == jsonl,
                 "edit replay: JSONL round-trip not an identity");
  const bool roundtrip_ok =
      svc::replay_events(reparsed, four_threads) == report_1t;
  bench::require(roundtrip_ok,
                 "edit replay: JSONL-round-tripped stream changes the report");
  ctx.check("edit replay: byte-identical report at 1 and 4 threads",
            std::to_string(replay_stream.size()) + " events", "equal", true);

  // Machine-readable record (wall times included, so this file is NOT
  // byte-deterministic -- unlike --report).
  std::ofstream os(out_path);
  bench::require(static_cast<bool>(os), "cannot open " + out_path);
  obs::JsonWriter json(os);
  json.begin_object();
  bench::write_bench_stamp(json);
  json.key("experiment").value("d01_dynamic_oracle");
  json.key("seed").value(static_cast<std::int64_t>(seed));
  json.key("insert_heavy").begin_object();
  json.key("sessions").value(sessions_ab);
  json.key("events_per_session").value(events_ab);
  json.key("wall_dynamic_ms").value(dynamic_ms);
  json.key("wall_rebuild_ms").value(rebuild_ms);
  json.key("speedup").value(speedup);
  json.key("repetitions").begin_array();
  for (std::size_t rep = 0; rep < ratios.size(); ++rep) {
    json.begin_object();
    json.key("wall_dynamic_ms").value(dynamic_walls[rep]);
    json.key("wall_rebuild_ms").value(rebuild_walls[rep]);
    json.key("speedup").value(ratios[rep]);
    json.end_object();
  }
  json.end_array();
  json.key("threshold_enforced").value(full_size);
  json.key("answers_ok").value(answers_ok);
  json.key("dyn").begin_object();
  json.key("inserts").value(dyn_inserts);
  json.key("removes").value(dyn_removes);
  json.key("edges_patched").value(dyn_patched);
  json.key("rebuilds_avoided").value(dyn_avoided);
  json.key("rebuilds").value(dyn_rebuilds);
  json.end_object();
  json.end_object();
  json.key("throughput").begin_object();
  json.key("sessions").value(static_cast<std::uint64_t>(engine.session_count()));
  json.key("events").value(static_cast<std::uint64_t>(mixed.size()));
  json.key("wall_ms").value(ingest_ms);
  json.key("events_per_sec").value(events_per_sec);
  json.key("event_ns_p50").value(latency.p50);
  json.key("event_ns_p99").value(latency.p99);
  json.key("event_ns_max").value(latency.max);
  json.key("oracle").begin_object();
  json.key("sweep_bounds").value(sweep_bounds);
  json.key("witness_bounds").value(witness_bounds);
  json.end_object();
  json.end_object();
  json.key("replay").begin_object();
  json.key("sessions").value(replay_sessions);
  json.key("events").value(static_cast<std::uint64_t>(replay_stream.size()));
  json.key("deterministic").value(replay_ok);
  json.key("jsonl_roundtrip").value(roundtrip_ok);
  json.end_object();
  json.end_object();
  os << "\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
} catch (const minmach::CliError& error) {
  return minmach::bench::usage_error(error);
}
