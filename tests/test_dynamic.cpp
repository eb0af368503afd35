// Differential tests for the fully-dynamic FeasibilityOracle (DESIGN.md
// section 15) and the svc session layer: every edit sequence, over every
// instance family, must agree with an independent dense Horn network on the
// live job set (reference_horn.hpp) -- OPT and verdicts -- and it must
// never execute more probes per query than the same search from a cold
// memo.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "minmach/core/instance.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/svc/engine.hpp"
#include "minmach/svc/replay.hpp"
#include "minmach/svc/session.hpp"
#include "minmach/util/rng.hpp"
#include "reference_horn.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

// Scales all times by 1/(two ~2^21 primes) so the denominator LCM blows
// past the integer-grid guard and the oracle runs in exact-rational mode.
Instance force_rational_mode(const Instance& in) {
  return affine(in, Rat(0), Rat(1, BigInt(2097143) * BigInt(2097169)));
}

// Mirrors the dynamic oracle with plain bookkeeping: the set of live jobs,
// rebuilt into a fresh Instance per check.
struct Mirror {
  std::vector<std::pair<JobId, Job>> live;

  void insert(JobId id, const Job& job) { live.emplace_back(id, job); }
  void remove(JobId id) {
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (live[i].first != id) continue;
      live[i] = live.back();
      live.pop_back();
      return;
    }
    FAIL() << "mirror: removing unknown id " << id;
  }
  [[nodiscard]] Instance instance() const {
    std::vector<Job> jobs;
    jobs.reserve(live.size());
    for (const auto& [id, job] : live) jobs.push_back(job);
    return Instance(std::move(jobs));
  }
};

Mirror mirror_of(const Instance& base) {
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  return mirror;
}

// One job of the general-family pool the differential streams insert.
Job pool_job(Rng& rng) { return gen_general(rng, {1, 60, 16, 4}).job(0); }

// Runs a seeded random edit sequence against `oracle`, comparing OPT (and
// spot verdicts around it) with the reference network after every flush.
// A flush is a uniform count in [flush.first, flush.second] of mixed
// inserts (drawn by `draw`) and removes, the way a session batches its
// edits before a query. `mirror` must already reflect the oracle's live
// set.
void differential_edits(FeasibilityOracle& oracle, Mirror& mirror,
                        std::uint64_t seed, int queries,
                        std::pair<int, int> flush = {1, 1},
                        Job (*draw)(Rng&) = pool_job) {
  Rng rng(seed);
  for (int q = 0; q < queries; ++q) {
    const std::int64_t edits = flush.first == flush.second
                                   ? flush.first
                                   : rng.uniform_int(flush.first, flush.second);
    for (std::int64_t e = 0; e < edits; ++e) {
      if (mirror.live.empty() || rng.bernoulli(0.6)) {
        const Job job = draw(rng);
        mirror.insert(oracle.insert_job(job), job);
      } else {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(mirror.live.size()) - 1));
        const JobId id = mirror.live[pick].first;
        oracle.remove_job(id);
        mirror.remove(id);
      }
    }
    const std::int64_t expected =
        reference::horn_optimal_machines(mirror.instance());
    ASSERT_EQ(oracle.optimal_machines(), expected)
        << "query " << q << ", " << mirror.live.size() << " live jobs";
    ASSERT_EQ(oracle.live_jobs(),
              static_cast<std::int64_t>(mirror.live.size()));
    if (expected > 0) {
      ASSERT_TRUE(oracle.feasible(expected));
      ASSERT_FALSE(oracle.feasible(expected - 1));
    }
  }
}

TEST(DynamicOracle, DifferentialAllFamilies) {
  GenConfig config{10, 60, 16, 2};
  std::uint64_t seed = 41;
  std::vector<Instance> bases;
  {
    Rng rng(seed);
    bases.push_back(gen_general(rng, config));
    bases.push_back(gen_agreeable(rng, config));
    bases.push_back(gen_laminar(rng, config));
    bases.push_back(gen_loose(rng, config, Rat(1, 2)));
    bases.push_back(gen_tight(rng, config, Rat(3, 4)));
    bases.push_back(gen_unit(rng, config));
  }
  for (const Instance& base : bases) {
    FeasibilityOracle oracle(base);
    Mirror mirror = mirror_of(base);
    differential_edits(oracle, mirror, ++seed, 24);
  }
}

TEST(DynamicOracle, DifferentialRationalGrid) {
  Rng rng(17);
  const Instance base = force_rational_mode(gen_general(rng, {8, 40, 12, 2}));
  FeasibilityOracle oracle(base);
  // Rational-mode edits: the spliced jobs get the same huge-denominator
  // scaling, so the oracle stays in exact-rational mode throughout.
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  const Rat scale(1, BigInt(2097143) * BigInt(2097169));
  for (int e = 0; e < 16; ++e) {
    if (mirror.live.empty() || rng.bernoulli(0.6)) {
      const Instance one = gen_general(rng, {1, 60, 16, 4});
      const Job scaled{one.job(0).release * scale, one.job(0).deadline * scale,
                       one.job(0).processing * scale};
      const JobId id = oracle.insert_job(scaled);
      mirror.insert(id, scaled);
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      oracle.remove_job(mirror.live[pick].first);
      mirror.remove(mirror.live[pick].first);
    }
    ASSERT_EQ(oracle.optimal_machines(),
              reference::horn_optimal_machines(mirror.instance()));
  }
}

TEST(DynamicOracle, GridFallbackMidStream) {
  // Starts on the small-integer grid, then an insert that cannot land on
  // it (denominator 3 against grid scale 1) demotes the oracle to exact
  // rationals -- once, permanently -- without changing any answer.
  FeasibilityOracle oracle(Instance({mk(0, 10, 4), mk(2, 6, 3)}));
  ASSERT_EQ(oracle.optimal_machines(), 1);
  const Job odd{Rat(1, 3), Rat(7, 3), Rat(2)};
  const JobId id = oracle.insert_job(odd);
  Mirror mirror;
  mirror.insert(0, mk(0, 10, 4));
  mirror.insert(1, mk(2, 6, 3));
  mirror.insert(id, odd);
  ASSERT_EQ(oracle.optimal_machines(),
            reference::horn_optimal_machines(mirror.instance()));
  // Edits keep working after the fallback.
  differential_edits(oracle, mirror, 93, 12);
}

TEST(DynamicOracle, CompressionCounterexampleStaysExact) {
  // The PR 3 compression counterexample: one long job plus two unit jobs
  // in its first half; OPT = 3. Built entirely through inserts.
  FeasibilityOracle oracle{Instance{}};
  const JobId long_job = oracle.insert_job(mk(0, 2, 2));
  const JobId unit_a = oracle.insert_job(mk(0, 1, 1));
  const JobId unit_b = oracle.insert_job(mk(0, 1, 1));
  EXPECT_EQ(oracle.optimal_machines(), 3);
  oracle.remove_job(unit_b);
  EXPECT_EQ(oracle.optimal_machines(), 2);
  oracle.remove_job(unit_a);
  EXPECT_EQ(oracle.optimal_machines(), 1);
  oracle.remove_job(long_job);
  EXPECT_EQ(oracle.optimal_machines(), 0);
  EXPECT_EQ(oracle.live_jobs(), 0);
}

TEST(DynamicOracle, MemoShiftsTrackOptAcrossEdits) {
  // k copies of the same tight unit job force OPT = k exactly, so every
  // insert bumps OPT by 1 and every remove drops it by 1 -- the extreme
  // case of the +-1 memo shifts.
  FeasibilityOracle oracle{Instance{}};
  std::vector<JobId> ids;
  for (int k = 1; k <= 6; ++k) {
    ids.push_back(oracle.insert_job(mk(0, 1, 1)));
    ASSERT_EQ(oracle.optimal_machines(), k);
  }
  while (!ids.empty()) {
    oracle.remove_job(ids.back());
    ids.pop_back();
    ASSERT_EQ(oracle.optimal_machines(),
              static_cast<std::int64_t>(ids.size()));
  }
  // Drained to empty: behaves as constructed-empty, and accepts new jobs.
  ASSERT_EQ(oracle.optimal_machines(), 0);
  (void)oracle.insert_job(mk(5, 9, 4));
  ASSERT_EQ(oracle.optimal_machines(), 1);
}

TEST(DynamicOracle, SlotReuseAndDeadEdgeCompaction) {
  // Enough retired edges to trip the dead > live + 64 compaction rebuild,
  // then fresh inserts recycling the freed slots. Answers must track the
  // reference network through both.
  Rng rng(71);
  const Instance base = gen_general(rng, {60, 120, 30, 2});
  FeasibilityOracle oracle(base);
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  ASSERT_EQ(oracle.optimal_machines(),
            reference::horn_optimal_machines(mirror.instance()));
  // Retire most of the set, a few at a time, querying as we go.
  while (mirror.live.size() > 5) {
    for (int burst = 0; burst < 4 && mirror.live.size() > 5; ++burst) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      oracle.remove_job(mirror.live[pick].first);
      mirror.remove(mirror.live[pick].first);
    }
    ASSERT_EQ(oracle.optimal_machines(),
              reference::horn_optimal_machines(mirror.instance()));
  }
  // Refill: recycled slots must behave like fresh ones.
  differential_edits(oracle, mirror, 73, 20);
}

TEST(DynamicOracle, EditErrors) {
  FeasibilityOracle oracle{Instance{}};
  EXPECT_THROW((void)oracle.insert_job(mk(3, 3, 1)), std::invalid_argument);
  EXPECT_THROW(oracle.remove_job(0), std::invalid_argument);
  const JobId id = oracle.insert_job(mk(0, 2, 1));
  oracle.remove_job(id);
  EXPECT_THROW(oracle.remove_job(id), std::invalid_argument);  // retired
  EXPECT_THROW(oracle.remove_job(99), std::invalid_argument);  // never issued
}

TEST(DynamicOracle, ProbeParityWithBatch) {
  // Audit: the dynamic oracle's memo shifts keep the post-edit bracket so
  // tight that a query never needs MORE executed probes than the same
  // tier-free search from a cold memo: a fresh oracle built by inserting
  // the live set (an edited oracle never consults the bound sandwich).
  Rng rng(83);
  const Instance base = gen_general(rng, {10, 60, 16, 2});
  FeasibilityOracle oracle(base);
  Mirror mirror;
  for (JobId id = 0; id < base.size(); ++id) mirror.insert(id, base.job(id));
  (void)oracle.optimal_machines();  // settle the initial memo
  std::uint64_t dynamic_probes = 0, cold_probes = 0;
  for (int e = 0; e < 20; ++e) {
    if (mirror.live.empty() || rng.bernoulli(0.6)) {
      const Instance one = gen_general(rng, {1, 60, 16, 4});
      const JobId id = oracle.insert_job(one.job(0));
      mirror.insert(id, one.job(0));
    } else {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(mirror.live.size()) - 1));
      oracle.remove_job(mirror.live[pick].first);
      mirror.remove(mirror.live[pick].first);
    }
    const std::uint64_t before = oracle.probes_executed();
    const Instance live = mirror.instance();
    FeasibilityOracle cold{Instance{}};
    for (const Job& job : live.jobs()) (void)cold.insert_job(job);
    ASSERT_EQ(oracle.optimal_machines(), cold.optimal_machines());
    const std::uint64_t dyn_q = oracle.probes_executed() - before;
    ASSERT_LE(dyn_q, std::max<std::uint64_t>(cold.probes_executed(), 1))
        << "edit " << e;
    dynamic_probes += dyn_q;
    cold_probes += cold.probes_executed();
  }
  EXPECT_LE(dynamic_probes, cold_probes);
}

std::uint64_t tally(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// d01's job shape on the integer grid: release in [0, 96], window [1, 24].
Job grid_job(Rng& rng) {
  const std::int64_t release = rng.uniform_int(0, 96);
  const std::int64_t window = rng.uniform_int(1, 24);
  return mk(release, release + window, rng.uniform_int(1, window));
}

TEST(DynamicOracle, BatchedFlushesMatchReference) {
  // Each query follows a flush of 2-5 edits, so the memo bracket is several
  // candidates wide and the oracle settles it from the last sweep's witness
  // interval before sweeping again (DESIGN.md §15). One stream stays on the
  // integer grid; the other falls back to exact rationals mid-way, which
  // must drop the witness (its values are the old grid's).
  constexpr int kQueries = 20;
  for (const bool fallback : {false, true}) {
    SCOPED_TRACE(fallback ? "rational fallback" : "integer grid");
    const std::uint64_t seed = fallback ? 131 : 127;
    Rng rng(seed);
    std::vector<Job> seed_jobs;
    for (int j = 0; j < 24; ++j) seed_jobs.push_back(grid_job(rng));
    const Instance base(std::move(seed_jobs));
    FeasibilityOracle oracle(base);
    Mirror mirror = mirror_of(base);
    const std::uint64_t sweeps0 = tally("oracle.sweep_bounds");
    const std::uint64_t witnesses0 = tally("oracle.witness_bounds");
    differential_edits(oracle, mirror, seed + 1, kQueries, {2, 5}, grid_job);
    if (fallback) {
      Job job = grid_job(rng);  // shifted off the grid
      job.release += Rat(1, 3);
      job.deadline += Rat(1, 3);
      mirror.insert(oracle.insert_job(job), job);
      const std::uint64_t witnesses = tally("oracle.witness_bounds");
      ASSERT_EQ(oracle.optimal_machines(),
                reference::horn_optimal_machines(mirror.instance()));
      EXPECT_EQ(tally("oracle.witness_bounds"), witnesses)
          << "the fallback kept the integer grid's witness";
    }
    differential_edits(oracle, mirror, seed + 2, kQueries, {2, 5}, grid_job);
    // Most queries were settled without a sweep, by the witness re-check
    // and at most a warm probe at the floor.
    EXPECT_LT(tally("oracle.sweep_bounds") - sweeps0,
              static_cast<std::uint64_t>(2 * kQueries));
    EXPECT_GT(tally("oracle.witness_bounds") - witnesses0, 0u);
  }

  // An oracle that adopts a parked Impl starts without a witness. `holder`
  // empties this thread's idle slot, so `first` is the Impl that gets
  // parked and `second` the oracle that adopts it.
  FeasibilityOracle holder{Instance{}};
  Rng rng(137);
  {
    FeasibilityOracle first{Instance{}};
    for (int j = 0; j < 12; ++j) (void)first.insert_job(grid_job(rng));
    (void)first.optimal_machines();
  }
  FeasibilityOracle second{Instance{}};
  for (int j = 0; j < 12; ++j) (void)second.insert_job(grid_job(rng));
  const std::uint64_t witnesses = tally("oracle.witness_bounds");
  (void)second.optimal_machines();
  EXPECT_EQ(tally("oracle.witness_bounds"), witnesses)
      << "a recycled Impl kept another oracle's witness";
}

TEST(DynamicOracle, RejectedRemoveLeavesOracleUnchanged) {
  // A remove_job that throws must not count as a remove or move a
  // never-edited oracle off the segment-tree layout: its next probe builds
  // exactly the network a fresh oracle builds. probe(OPT) forces the build,
  // which the bound sandwich might otherwise skip.
  Rng rng(77);
  const Instance base = gen_general(rng, {25, 80, 20, 2});
  const std::int64_t opt = reference::horn_optimal_machines(base);
  struct Tallies {
    std::uint64_t removes, rebuilds, tree_edges;
  };
  const auto build_tallies = [&](bool reject_first) {
    obs::Registry& registry = obs::Registry::global();
    const auto read = [&] {
      return Tallies{registry.counter("dyn.removes").value(),
                     registry.counter("dyn.rebuilds").value(),
                     registry.counter("oracle.tree_edges").value()};
    };
    const Tallies before = read();
    FeasibilityOracle oracle(base);
    if (reject_first) {
      EXPECT_THROW(oracle.remove_job(999), std::invalid_argument);
    }
    EXPECT_TRUE(oracle.probe(opt));
    EXPECT_EQ(oracle.optimal_machines(), opt);
    EXPECT_EQ(oracle.live_jobs(), static_cast<std::int64_t>(base.size()));
    const Tallies after = read();
    return Tallies{after.removes - before.removes,
                   after.rebuilds - before.rebuilds,
                   after.tree_edges - before.tree_edges};
  };
  const Tallies fresh = build_tallies(false);
  const Tallies rejected = build_tallies(true);
  EXPECT_GT(fresh.tree_edges, 0u);
  EXPECT_EQ(rejected.removes, fresh.removes);
  EXPECT_EQ(rejected.rebuilds, fresh.rebuilds);
  EXPECT_EQ(rejected.tree_edges, fresh.tree_edges);
}

// ---- svc: session + engine + replay -----------------------------------

TEST(SvcSession, CoalescesEditsBetweenQueries) {
  svc::Session session;
  EXPECT_EQ(session.query_opt(), 0);
  session.on_release(1, mk(0, 4, 2));
  session.on_release(2, mk(0, 2, 2));
  // Job 2 completes before any query: the oracle never sees it.
  session.on_complete(2);
  EXPECT_EQ(session.query_opt(), 1);
  EXPECT_EQ(session.coalesced(), 1u);
  EXPECT_EQ(session.live_jobs(), 1);
  session.on_complete(1);
  EXPECT_EQ(session.query_opt(), 0);
  EXPECT_EQ(session.coalesced(), 1u);  // admitted job: a real remove
}

TEST(SvcSession, Errors) {
  svc::Session session;
  session.on_release(7, mk(0, 4, 2));
  EXPECT_THROW(session.on_release(7, mk(0, 4, 2)), std::invalid_argument);
  EXPECT_THROW(session.on_complete(8), std::invalid_argument);
  EXPECT_THROW(session.on_release(9, mk(4, 4, 1)), std::invalid_argument);
  session.on_complete(7);
  EXPECT_THROW(session.on_complete(7), std::invalid_argument);
  // External ids are reusable once completed.
  session.on_release(7, mk(1, 5, 2));
  EXPECT_EQ(session.query_opt(), 1);
}

// Oracles and sessions are movable, so one may outlive the thread that
// built it. Each is built on its own worker thread, moved out, and used
// after the join; the sanitize preset flags any Impl the thread's exit
// freed underneath them.
TEST(SvcSession, OracleAndSessionOutliveTheBuildingThread) {
  Rng rng(5);
  GenConfig config;
  config.n = 20;
  const Instance instance = gen_general(rng, config);
  const std::int64_t expected = reference::horn_optimal_machines(instance);

  std::optional<FeasibilityOracle> oracle;
  std::thread([&] {
    FeasibilityOracle built(instance);
    oracle.emplace(std::move(built));
  }).join();
  EXPECT_EQ(oracle->optimal_machines(), expected);

  std::optional<svc::Session> session;
  std::thread([&] {
    svc::Session built;
    for (std::size_t j = 0; j < instance.size(); ++j)
      built.on_release(static_cast<std::int64_t>(j), instance.jobs()[j]);
    EXPECT_EQ(built.query_opt(), expected);
    session.emplace(std::move(built));
  }).join();
  session->on_complete(0);
  std::vector<Job> rest(instance.jobs().begin() + 1, instance.jobs().end());
  EXPECT_EQ(session->query_opt(),
            reference::horn_optimal_machines(Instance(std::move(rest))));
}

// A thread_local that owns an oracle and was constructed before the
// thread's first oracle is destroyed after the thread's idle slot: the
// oracle's Impl must then be deleted, not parked in the dead slot. The
// sanitize preset flags a use-after-free or a leak here.
TEST(SvcSession, OracleOwnedByAThreadLocalDiesAfterTheIdleSlot) {
  Rng rng(7);
  GenConfig config;
  config.n = 20;
  const Instance instance = gen_general(rng, config);
  std::int64_t opt = -1;
  std::thread([&] {
    thread_local std::optional<FeasibilityOracle> owned;
    owned.emplace(instance);
    opt = owned->optimal_machines();
  }).join();
  EXPECT_EQ(opt, reference::horn_optimal_machines(instance));
}

std::vector<svc::Event> mixed_stream(std::uint64_t sessions, int events,
                                     std::uint64_t seed) {
  std::vector<svc::Event> out;
  Rng rng(seed);
  std::vector<std::vector<std::int64_t>> live(sessions);
  std::vector<std::int64_t> next(sessions, 0);
  for (int e = 0; e < events; ++e) {
    for (std::uint64_t s = 0; s < sessions; ++s) {
      svc::Event event;
      event.session = s;
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (live[s].empty() || roll < 55) {
        event.kind = svc::Event::Kind::kRelease;
        event.job = next[s]++;
        const std::int64_t r = rng.uniform_int(0, 40);
        const std::int64_t len = rng.uniform_int(1, 10);
        event.payload = mk(r, r + len, rng.uniform_int(1, len));
        live[s].push_back(event.job);
      } else if (roll < 75) {
        const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live[s].size()) - 1));
        event.kind = svc::Event::Kind::kComplete;
        event.job = live[s][pick];
        live[s][pick] = live[s].back();
        live[s].pop_back();
      } else {
        event.kind = svc::Event::Kind::kQuery;
      }
      out.push_back(std::move(event));
    }
  }
  return out;
}

TEST(SvcEngine, ByteIdenticalReportAcrossThreadCounts) {
  const std::vector<svc::Event> stream = mixed_stream(9, 30, 131);
  svc::EngineOptions one;
  one.threads = 1;
  svc::EngineOptions four;
  four.threads = 4;
  const std::string report_1t = svc::replay_events(stream, one);
  const std::string report_4t = svc::replay_events(stream, four);
  EXPECT_EQ(report_1t, report_4t);
  // And the answers are the reference network's: replay one session by
  // hand.
  svc::SessionEngine engine(one);
  engine.ingest(stream);
  Mirror mirror;
  std::vector<std::int64_t> expected;
  for (const svc::Event& event : stream) {
    if (event.session != 3) continue;
    if (event.kind == svc::Event::Kind::kRelease) {
      mirror.insert(static_cast<JobId>(event.job), event.payload);
    } else if (event.kind == svc::Event::Kind::kComplete) {
      mirror.remove(static_cast<JobId>(event.job));
    } else {
      expected.push_back(reference::horn_optimal_machines(mirror.instance()));
    }
  }
  EXPECT_EQ(engine.answers(3), expected);
}

TEST(SvcEngine, IncrementalBatchesMatchOneShot) {
  const std::vector<svc::Event> stream = mixed_stream(5, 24, 137);
  svc::SessionEngine one_shot;
  one_shot.ingest(stream);
  svc::SessionEngine incremental;
  std::vector<svc::Event> chunk;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    chunk.push_back(stream[i]);
    if (chunk.size() == 17 || i + 1 == stream.size()) {
      incremental.ingest(chunk);
      chunk.clear();
    }
  }
  EXPECT_EQ(one_shot.report_json(), incremental.report_json());
}

TEST(SvcReplay, JsonlRoundTrip) {
  const std::vector<svc::Event> stream = mixed_stream(4, 16, 139);
  const std::string jsonl = svc::to_jsonl(stream);
  const std::vector<svc::Event> reparsed = svc::parse_jsonl(jsonl);
  ASSERT_EQ(reparsed.size(), stream.size());
  EXPECT_EQ(svc::to_jsonl(reparsed), jsonl);
  EXPECT_EQ(svc::replay_events(stream), svc::replay_events(reparsed));
}

TEST(SvcReplay, RationalTimesSurviveTheRoundTrip) {
  svc::Event release;
  release.kind = svc::Event::Kind::kRelease;
  release.session = 0;
  release.job = 1;
  release.payload = Job{Rat(1, 3), Rat(7, 2), Rat(5, 6)};
  svc::Event query;
  query.kind = svc::Event::Kind::kQuery;
  const std::vector<svc::Event> stream = {release, query};
  const std::vector<svc::Event> reparsed =
      svc::parse_jsonl(svc::to_jsonl(stream));
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[0].payload.release, Rat(1, 3));
  EXPECT_EQ(reparsed[0].payload.deadline, Rat(7, 2));
  EXPECT_EQ(reparsed[0].payload.processing, Rat(5, 6));
}

TEST(SvcReplay, ParseErrors) {
  EXPECT_THROW((void)svc::parse_jsonl("{not json}"), std::invalid_argument);
  EXPECT_THROW((void)svc::parse_jsonl("[1,2]"), std::invalid_argument);
  EXPECT_THROW((void)svc::parse_jsonl(R"({"e":"warp","s":0})"),
               std::invalid_argument);
  EXPECT_THROW((void)svc::parse_jsonl(R"({"e":"release","s":0,"j":1})"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)svc::parse_jsonl(R"({"e":"release","s":0,"j":1,"r":"x","d":"2","p":"1"})"),
      std::invalid_argument);
  // Blank lines are fine; the line number in the message is 1-based.
  EXPECT_NO_THROW((void)svc::parse_jsonl("\n\n{\"e\":\"query\",\"s\":0}\n"));
}

}  // namespace
}  // namespace minmach
