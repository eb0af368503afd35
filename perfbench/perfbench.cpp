// perfbench: the repository's end-to-end benchmark. One process runs one
// workload of the paper pipeline as a closed loop with one client on one
// thread -- op i+1 starts when op i returns -- in the library's default
// (production) configuration: it passes no OracleOptions and flips no
// process-wide knob.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spawn-ns T]
//
// Workloads (README.md maps each to the layers it loads or bypasses):
//   strong_lb       one depth-8 Theorem 3 game against a FitPolicy
//   ratio_sweep     OPT, OPT schedule, online schedule and validate on one
//                   fresh n = 40 instance
//   session_stream  three edits plus one query_opt on a live svc::Session
//   theorem1        Theorem 1 exhaustive bound, OPT and single-interval
//                   bound on one fresh n = 6 instance
//
// The op list is a pure function of (workload, seed, seconds): the
// workload's nominal rate times S, rounded up to whole balanced cycles --
// never a time budget -- so two runs with one seed time the same ops and
// print the same counts and answer digest. Input generation and answer
// checks run outside the op timer. Timing metrics come from the ops that
// ran while the shared machine was fastest (select_fast). The last stdout
// line is the result JSON: --trace 0 prints the end-to-end metrics,
// --trace 1 the per-layer ones, with every other block of ops run under the
// span profiler.
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "minmach/adversary/strong_lb.hpp"
#include "minmach/algos/nonmig.hpp"
#include "minmach/core/contribution.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/feasibility.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/sim/engine.hpp"
#include "minmach/svc/session.hpp"
#include "minmach/util/rng.hpp"

namespace {

using namespace minmach;

// CLOCK_MONOTONIC, the clock run.py stamps the spawn time with.
std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return splitmix(a ^ splitmix(b));
}

// FNV-1a; the input and answer digests the determinism self-check compares.
class Digest {
 public:
  void add_u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) byte((v >> shift) & 0xffU);
  }
  void add_str(const std::string& s) {
    for (unsigned char c : s) byte(c);
    add_u64(s.size());
  }
  void add_rat(const Rat& r) { add_str(r.to_string()); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// ---- per-layer timers ----------------------------------------------------

enum Layer : std::size_t {
  kGame,
  kOnline,
  kOpt,
  kSchedule,
  kValidate,
  kEdit,
  kQuery,
  kExhaustive,
  kLoadBound,
  kLayerCount
};

// Metric stems of the timed public calls. Each call also runs inside a
// ProfileSpan of the same name, under which the library's own spans nest.
constexpr std::array<const char*, kLayerCount> kLayerStem = {
    "adversary.game", "sim.online",      "flow.opt",
    "flow.schedule",  "core.validate",   "svc.edit",
    "svc.query",      "core.exhaustive", "core.load_bound"};

bool is_layer_stem(const std::string& name) {
  return std::find(kLayerStem.begin(), kLayerStem.end(), name) !=
         kLayerStem.end();
}

class LayerClock {
 public:
  template <typename F>
  decltype(auto) time(Layer layer, F&& call) {
    Scope scope(*this, layer);
    return call();
  }
  [[nodiscard]] std::int64_t ns(Layer layer) const { return ns_[layer]; }

 private:
  struct Scope {
    Scope(LayerClock& c, Layer l)
        : clock(c), layer(l), span(kLayerStem[l]), start(mono_ns()) {}
    ~Scope() { clock.ns_[layer] += mono_ns() - start; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    LayerClock& clock;
    Layer layer;
    obs::ProfileSpan span;
    std::int64_t start;
  };
  std::array<std::int64_t, kLayerCount> ns_{};
};

// ---- exact counts --------------------------------------------------------

enum Count : std::size_t {
  kBigintSlowOps,
  kBigintPromotions,
  kRatSlowOps,
  kRatFastOps,
  kBigintSpills,
  kHeapAllocs,
  kArenaBytes,
  kDenBitsSamples,
  kDenBitsSum,
  kDispatches,
  kPreemptions,
  kProbes,
  kWarmProbes,
  kBuilds,
  kEdgeVisits,
  kAugmentingPaths,
  kDynEdgesPatched,
  kDynLeafSplits,
  kDynRebuilds,
  kBoundsComputed,
  kBoundsPinched,
  kPackAttempts,
  kSvcCompletes,
  kSvcCoalesced,
  kCountCount
};

using Counts = std::array<std::uint64_t, kCountCount>;

constexpr std::array<FitRule, 5> kRules = {
    FitRule::kFirstFit, FitRule::kBestFit, FitRule::kWorstFit,
    FitRule::kNextFit, FitRule::kRandomFit};

// Reads the registry counters the library already keeps, plus the calling
// thread's undrained hot tallies, so a before/after pair around one op is
// its exact delta whether or not anything drained in between.
class CountReader {
 public:
  CountReader() {
    obs::Registry& r = obs::Registry::global();
    for (const char* name : {"bigint.slow_ops", "bigint.promotions",
                             "rat.slow_ops", "rat.fast_ops",
                             "mem.bigint_spill", "mem.heap_allocs",
                             "mem.arena_bytes"})
      tally_.push_back(&r.counter(name));
    den_bits_ = &r.histogram("adversary.den_bits");
    for (FitRule rule : kRules) {
      const std::string prefix = "sim." + FitPolicy(rule).name() + ".";
      dispatches_.push_back(&r.counter(prefix + "dispatches"));
      preemptions_.push_back(&r.counter(prefix + "preemptions"));
    }
    const std::pair<Count, const char*> plain[] = {
        {kProbes, "oracle.probes"},
        {kWarmProbes, "oracle.warm_probes"},
        {kBuilds, "oracle.builds"},
        {kEdgeVisits, "flow.edge_visits"},
        {kAugmentingPaths, "flow.augmenting_paths"},
        {kDynEdgesPatched, "dyn.edges_patched"},
        {kDynLeafSplits, "dyn.leaf_splits"},
        {kDynRebuilds, "dyn.rebuilds"},
        {kBoundsComputed, "bounds.computed"},
        {kBoundsPinched, "bounds.pinched"},
        {kPackAttempts, "bounds.pack_attempts"},
        {kSvcCompletes, "svc.completes"},
        {kSvcCoalesced, "svc.coalesced"}};
    for (const auto& [slot, name] : plain)
      plain_.emplace_back(slot, &r.counter(name));
  }

  [[nodiscard]] Counts read() const {
    Counts c{};
    const obs::HotTallies& t = obs::hot_tallies();
    const std::uint64_t undrained[] = {
        t.bigint_slow_ops, t.bigint_promotions, t.rat_slow_ops,
        t.rat_fast_ops,    t.bigint_spill,      t.heap_allocs,
        t.arena_bytes};
    for (std::size_t k = 0; k < tally_.size(); ++k)
      c[kBigintSlowOps + k] = tally_[k]->value() + undrained[k];
    const obs::HistogramData den = den_bits_->data();
    c[kDenBitsSamples] = den.count;
    c[kDenBitsSum] = static_cast<std::uint64_t>(den.sum);
    for (const obs::Counter* counter : dispatches_)
      c[kDispatches] += counter->value();
    for (const obs::Counter* counter : preemptions_)
      c[kPreemptions] += counter->value();
    for (const auto& [slot, counter] : plain_) c[slot] = counter->value();
    return c;
  }

  [[nodiscard]] std::int64_t den_bits_max() const {
    return den_bits_->data().max;
  }

 private:
  std::vector<const obs::Counter*> tally_;
  const obs::Histogram* den_bits_ = nullptr;
  std::vector<const obs::Counter*> dispatches_;
  std::vector<const obs::Counter*> preemptions_;
  std::vector<std::pair<Count, const obs::Counter*>> plain_;
};

// ---- workloads -------------------------------------------------------------
//
// Each workload provides:
//   kCycle     ops per balanced unit; op i is of kind i % kCycle, and
//              blocks hold whole cycles, so every block times the same mix
//              of op kinds;
//   kWindowOps ops per window of the fast-op selection (select_fast): 0.1
//              to 0.7 s of ops, enough for a steady median, short against
//              the seconds a contended stretch lasts;
//   kMinOps    floor on the op count, so that every percentile it reports
//              has at least ten samples beyond it among the selected ops;
//   kRate      ops per second over all ops on a 4-vCPU x86-64 VM under its
//              usual co-tenant load, which sizes the op list from
//              --seconds;
//   kWarmOps   warm-up ops per set-up repetition;
//   kServing   whether the run reports the serving tail svc.op_p99_ms;
//   setup(stream), prepare(stream, i), digest_input(d), execute(clock),
//   check(d) and finish(). Only execute() is timed.

constexpr int kLevels = 8;

struct AlphaBeta {
  std::int64_t alpha_num, alpha_den, beta_num, beta_den;
};
// (alpha, beta) pairs satisfying inequality (1) of the paper.
constexpr std::array<AlphaBeta, 4> kAlphaBeta = {
    {{3, 4, 1, 4}, {3, 4, 1, 5}, {4, 5, 1, 5}, {5, 6, 1, 6}}};

class StrongLbWorkload {
 public:
  static constexpr std::size_t kCycle = kRules.size() * kAlphaBeta.size();
  static constexpr std::size_t kWindowOps = 1;  // a game takes 0.1-0.3 s
  static constexpr std::size_t kMinOps = 200;
  static constexpr double kRate = 6.6;
  static constexpr std::size_t kWarmOps = 1;
  static constexpr bool kServing = false;

  explicit StrongLbWorkload(std::uint64_t seed) : seed_(seed) {
    Rng rng(mix(seed, 0x5eed));
    rng.shuffle(pair_order_);
  }

  void setup(std::uint64_t /*stream*/) {}

  // The op list cycles the five fit rules fastest, then the seed-ordered
  // (alpha, beta) pairs; RandomFit draws a per-op seed. Set-up (stream
  // != 0) takes the pairs in their fixed order, so the set-up work does not
  // depend on the seed.
  void prepare(std::uint64_t stream, std::size_t i) {
    const std::size_t k = (i / kRules.size()) % kAlphaBeta.size();
    rule_ = i % kRules.size();
    pair_ = stream == 0 ? pair_order_[k] : k;
    policy_seed_ = mix(mix(seed_, stream), i);
    result_.reset();
  }

  void digest_input(Digest& d) const {
    d.add_u64(rule_);
    d.add_u64(pair_);
    d.add_u64(policy_seed_);
  }

  void execute(LayerClock& clock) {
    FitPolicy policy(kRules[rule_], policy_seed_);
    const AlphaBeta& ab = kAlphaBeta[pair_];
    StrongLbParams params;
    params.alpha = Rat(ab.alpha_num, ab.alpha_den);
    params.beta = Rat(ab.beta_num, ab.beta_den);
    result_ = clock.time(
        kGame, [&] { return run_strong_lower_bound(policy, kLevels, params); });
  }

  // Per game: at least kLevels machines forced and no missed deadline.
  bool check(Digest& d) {
    d.add_u64(result_->machines_used);
    d.add_u64(result_->jobs);
    d.add_rat(result_->critical_time);
    return !result_->opponent_missed_deadline &&
           result_->machines_used >= static_cast<std::size_t>(kLevels);
  }

  // Replays the first cycle -- the first game of every (rule, alpha, beta)
  // -- and certifies each instance feasible on three migratory machines
  // (Theorem 3 (ii)). It runs after the peak-RSS reading, so the
  // certifying oracle's memory stays out of peak_rss_mb.
  bool finish() {
    LayerClock clock;
    try {
      for (std::size_t i = 0; i < kCycle; ++i) {
        prepare(0, i);
        execute(clock);
        if (!feasible_migratory(result_->instance, 3)) return false;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: certification failed: %s\n", e.what());
      return false;
    }
    return true;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::size_t> pair_order_ = {0, 1, 2, 3};
  std::size_t rule_ = 0;
  std::size_t pair_ = 0;
  std::uint64_t policy_seed_ = 0;
  std::optional<StrongLbResult> result_;
};

class RatioSweepWorkload {
 public:
  static constexpr std::size_t kFamilies = 5;
  static constexpr std::size_t kCycle = kFamilies * kRules.size();
  static constexpr std::size_t kWindowOps = 200;
  static constexpr std::size_t kMinOps = 200;
  static constexpr double kRate = 650.0;
  static constexpr std::size_t kWarmOps = kCycle;
  static constexpr bool kServing = false;

  explicit RatioSweepWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(std::uint64_t /*stream*/) {}

  // One distinct instance per op: n = 40 on the 1/4 grid, families
  // general, agreeable, laminar, tight (alpha = 1/2), unit in rotation.
  void prepare(std::uint64_t stream, std::size_t i) {
    Rng rng(mix(mix(seed_, stream), i));
    op_ = i;
    family_ = i % kFamilies;
    rule_ = (i / kFamilies) % kRules.size();
    GenConfig config;
    config.n = 40;
    config.denominator = 4;
    switch (family_) {
      case 0: instance_ = gen_general(rng, config); break;
      case 1: instance_ = gen_agreeable(rng, config); break;
      case 2: instance_ = gen_laminar(rng, config); break;
      case 3: instance_ = gen_tight(rng, config, Rat(1, 2)); break;
      default: instance_ = gen_unit(rng, config); break;
    }
    policy_seed_ = rng.next_u64();
    opt_ = 0;
    online_machines_ = 0;
    opt_valid_ = online_valid_ = false;
  }

  void digest_input(Digest& d) const {
    d.add_u64(family_);
    d.add_u64(rule_);
    for (const Job& job : instance_.jobs()) {
      d.add_rat(job.release);
      d.add_rat(job.deadline);
      d.add_rat(job.processing);
    }
  }

  // The four steps of examples/realtime_admission.cpp and e04-e13.
  void execute(LayerClock& clock) {
    opt_ = clock.time(kOpt, [&] {
      FeasibilityOracle oracle(instance_);
      return oracle.optimal_machines();
    });
    const Schedule opt_schedule = clock.time(
        kSchedule, [&] { return optimal_migratory_schedule(instance_, opt_); });
    FitPolicy policy(kRules[rule_], policy_seed_);
    const SimRun online =
        clock.time(kOnline, [&] { return simulate(policy, instance_); });
    online_machines_ = static_cast<std::int64_t>(online.machines_used);
    opt_valid_ = clock.time(
        kValidate, [&] { return validate(instance_, opt_schedule).ok; });
    ValidateOptions non_migratory;
    non_migratory.require_non_migratory = true;
    online_valid_ = clock.time(kValidate, [&] {
      return validate(instance_, online.schedule, non_migratory).ok;
    });
  }

  // Both schedules validate and online >= OPT; every kBoundEvery-th op
  // (which still visits every family) also checks OPT >= the
  // single-interval bound, whose O(n^2) Rat sweep would otherwise take as
  // long as the op itself.
  bool check(Digest& d) {
    d.add_u64(static_cast<std::uint64_t>(opt_));
    d.add_u64(static_cast<std::uint64_t>(online_machines_));
    bool ok = opt_valid_ && online_valid_ && online_machines_ >= opt_;
    if (op_ % kBoundEvery == 0) {
      const std::int64_t single =
          load_bound_single_interval(instance_).machines;
      d.add_u64(static_cast<std::uint64_t>(single));
      ok = ok && opt_ >= single;
    }
    return ok;
  }

  bool finish() const { return true; }

 private:
  static constexpr std::size_t kBoundEvery = 4;  // coprime to kFamilies

  std::uint64_t seed_;
  std::size_t op_ = 0;
  std::size_t family_ = 0;
  std::size_t rule_ = 0;
  Instance instance_;
  std::uint64_t policy_seed_ = 0;
  std::int64_t opt_ = 0;
  std::int64_t online_machines_ = 0;
  bool opt_valid_ = false;
  bool online_valid_ = false;
};

class SessionStreamWorkload {
 public:
  static constexpr std::size_t kSessions = 64;
  static constexpr std::int64_t kSeedJobs = 48;
  static constexpr std::int64_t kMaxLive = 72;
  static constexpr std::size_t kEdits = 3;
  static constexpr std::size_t kCheckEvery = 64;
  static constexpr std::size_t kCycle = kSessions;
  static constexpr std::size_t kWindowOps = 2048;
  // p99 over at least 1000 selected ops of the untraced half of a --trace 1
  // run.
  static constexpr std::size_t kMinOps = 4000;
  static constexpr double kRate = 8000.0;
  static constexpr std::size_t kWarmOps = 4 * kSessions;
  static constexpr bool kServing = true;

  explicit SessionStreamWorkload(std::uint64_t seed) : seed_(seed) {}

  // Fresh sessions, each seeded with kSeedJobs integer-grid jobs and
  // queried once. Per-session state is an RNG and the live int64 triples.
  void setup(std::uint64_t stream) {
    sessions_.clear();
    sessions_.reserve(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
      sessions_.push_back(
          State{svc::Session{}, Rng(mix(mix(seed_, stream), s)), {}, 0});
      State& st = sessions_.back();
      for (std::int64_t k = 0; k < kSeedJobs; ++k) {
        const LiveJob job = draw_job(st);
        st.session.on_release(job.id, to_job(job));
        st.live.push_back(job);
      }
      (void)st.session.query_opt();
    }
    queries_ = 0;
  }

  // Sessions are served round-robin. Each edit releases with probability
  // (kMaxLive - live) / kSeedJobs, else completes a random live job, so
  // the live set hovers around kSeedJobs and stays in
  // [kMaxLive - kSeedJobs, kMaxLive] = [24, 72].
  void prepare(std::uint64_t /*stream*/, std::size_t i) {
    session_ = i % kSessions;
    State& st = sessions_[session_];
    for (Edit& edit : edits_) {
      const auto live = static_cast<std::int64_t>(st.live.size());
      edit.release = st.rng.uniform_int(0, kSeedJobs - 1) < kMaxLive - live;
      if (edit.release) {
        edit.job = draw_job(st);
        st.live.push_back(edit.job);
      } else {
        const auto pick =
            static_cast<std::size_t>(st.rng.uniform_int(0, live - 1));
        edit.job = st.live[pick];
        st.live[pick] = st.live.back();
        st.live.pop_back();
      }
    }
    answer_ = 0;
  }

  void digest_input(Digest& d) const {
    d.add_u64(session_);
    for (const Edit& edit : edits_) {
      d.add_u64(edit.release ? 1 : 0);
      d.add_u64(static_cast<std::uint64_t>(edit.job.id));
      d.add_u64(static_cast<std::uint64_t>(edit.job.release));
      d.add_u64(static_cast<std::uint64_t>(edit.job.deadline));
      d.add_u64(static_cast<std::uint64_t>(edit.job.processing));
    }
  }

  void execute(LayerClock& clock) {
    svc::Session& session = sessions_[session_].session;
    for (const Edit& edit : edits_) {
      clock.time(kEdit, [&] {
        if (edit.release)
          session.on_release(edit.job.id, to_job(edit.job));
        else
          session.on_complete(edit.job.id);
      });
    }
    answer_ = clock.time(kQuery, [&] { return session.query_opt(); });
  }

  // Every answer lies in [1, live]; every kCheckEvery-th equals a fresh
  // batch FeasibilityOracle on the live set.
  bool check(Digest& d) {
    d.add_u64(static_cast<std::uint64_t>(answer_));
    const std::vector<LiveJob>& live = sessions_[session_].live;
    if (answer_ < 1 || answer_ > static_cast<std::int64_t>(live.size()))
      return false;
    if (++queries_ % kCheckEvery != 0) return true;
    std::vector<Job> jobs;
    jobs.reserve(live.size());
    for (const LiveJob& job : live) jobs.push_back(to_job(job));
    FeasibilityOracle batch{Instance(std::move(jobs))};
    return batch.optimal_machines() == answer_;
  }

  bool finish() const { return true; }

 private:
  struct LiveJob {
    std::int64_t id = 0;
    std::int64_t release = 0;
    std::int64_t deadline = 0;
    std::int64_t processing = 0;
  };
  struct Edit {
    bool release = false;
    LiveJob job;
  };
  struct State {
    svc::Session session;
    Rng rng;
    std::vector<LiveJob> live;
    std::int64_t next_id = 0;
  };

  // d01's job shape: release in [0, 96], window [1, 24], p in [1, window].
  static LiveJob draw_job(State& st) {
    LiveJob job;
    job.id = st.next_id++;
    job.release = st.rng.uniform_int(0, 96);
    const std::int64_t window = st.rng.uniform_int(1, 24);
    job.deadline = job.release + window;
    job.processing = st.rng.uniform_int(1, window);
    return job;
  }

  static Job to_job(const LiveJob& job) {
    return Job{Rat(job.release), Rat(job.deadline), Rat(job.processing)};
  }

  std::uint64_t seed_;
  std::vector<State> sessions_;
  std::size_t session_ = 0;
  std::array<Edit, kEdits> edits_{};
  std::int64_t answer_ = 0;
  std::size_t queries_ = 0;
};

class Theorem1Workload {
 public:
  static constexpr std::size_t kCycle = 4;  // general, agreeable, laminar, unit
  // Op times are heavy-tailed (p90 about 5x p50), so the window is longer.
  static constexpr std::size_t kWindowOps = 256;
  static constexpr std::size_t kMinOps = 200;
  static constexpr double kRate = 300.0;
  static constexpr std::size_t kWarmOps = 10 * kCycle;
  static constexpr bool kServing = false;

  explicit Theorem1Workload(std::uint64_t seed) : seed_(seed) {}

  void setup(std::uint64_t /*stream*/) {}

  // One distinct e02-shaped instance per op.
  void prepare(std::uint64_t stream, std::size_t i) {
    Rng rng(mix(mix(seed_, stream), i));
    family_ = i % kCycle;
    GenConfig config;
    config.n = 6;
    config.horizon = 12;
    config.max_window = 8;
    config.denominator = 2;
    switch (family_) {
      case 0: instance_ = gen_general(rng, config); break;
      case 1: instance_ = gen_agreeable(rng, config); break;
      case 2: instance_ = gen_laminar(rng, config); break;
      default: instance_ = gen_unit(rng, config); break;
    }
    exhaustive_.reset();
    opt_ = 0;
    single_ = 0;
  }

  void digest_input(Digest& d) const {
    d.add_u64(family_);
    for (const Job& job : instance_.jobs()) {
      d.add_rat(job.release);
      d.add_rat(job.deadline);
      d.add_rat(job.processing);
    }
  }

  void execute(LayerClock& clock) {
    exhaustive_ = clock.time(
        kExhaustive, [&] { return load_bound_exhaustive(instance_, 20); });
    opt_ = clock.time(kOpt,
                      [&] { return optimal_migratory_machines(instance_); });
    single_ = clock.time(kLoadBound, [&] {
                return load_bound_single_interval(instance_);
              }).machines;
  }

  // Theorem 1: the exhaustive bound equals OPT; the single-interval bound
  // stays below it.
  bool check(Digest& d) {
    d.add_u64(static_cast<std::uint64_t>(opt_));
    d.add_u64(static_cast<std::uint64_t>(single_));
    return exhaustive_.has_value() && exhaustive_->machines == opt_ &&
           single_ <= opt_;
  }

  bool finish() const { return true; }

 private:
  std::uint64_t seed_;
  std::size_t family_ = 0;
  Instance instance_;
  std::optional<LoadBound> exhaustive_;
  std::int64_t opt_ = 0;
  std::int64_t single_ = 0;
};

// ---- harness -------------------------------------------------------------

constexpr std::uint64_t kSetupReps = 4;
constexpr std::size_t kMaxBlocks = 40;
// Share of each op kind the timing metrics keep (select_fast).
constexpr double kKeepShare = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t spawn_ns = 0;
};

struct Plan {
  std::size_t ops = 0;
  std::size_t blocks = 0;
  std::size_t block_ops = 0;
};

Plan make_plan(std::size_t cycle, double rate, std::size_t min_ops,
               double seconds) {
  const double target = std::max(static_cast<double>(min_ops), seconds * rate);
  const auto cycles = static_cast<std::size_t>(
      std::ceil(target / static_cast<double>(cycle)));
  Plan plan;
  plan.blocks = std::min(kMaxBlocks, cycles);
  plan.block_ops = (cycles + plan.blocks - 1) / plan.blocks * cycle;
  plan.ops = plan.blocks * plan.block_ops;
  return plan;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (per-mille), in ms. Throws when fewer than ten
// samples lie beyond it: such a percentile is never reported.
double percentile_ms(std::vector<std::int64_t> ns, std::size_t per_mille) {
  const std::size_t n = ns.size();
  const std::size_t rank = (n * per_mille + 999) / 1000;
  if (rank == 0 || n - rank < 10)
    throw std::logic_error("percentile with fewer than ten samples beyond it");
  std::nth_element(ns.begin(),
                   ns.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   ns.end());
  return static_cast<double>(ns[rank - 1]) * 1e-6;
}

// Peak resident set of this process image (VmHWM). Unlike getrusage's
// ru_maxrss it does not inherit the launcher's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// Library spans reported one by one in traced runs.
constexpr std::array<const char*, 18> kLibrarySpans = {
    "sim_dispatch",  "sim_advance", "opt_search",  "oracle_norm",
    "oracle_build",  "sweep_bound", "bound_lo",    "sweep_kernel",
    "bound_ub_pack", "pack_audit",  "probe",       "flow_repair",
    "max_flow",      "bfs",         "dfs",         "dyn_insert",
    "dyn_remove",    "solve_allocation"};

// Self time per span name over a traced window, split into the benchmark's
// own wrapper spans (roots named after a layer stem) and library spans;
// covered_ns is the time spent inside outermost library spans.
struct Attribution {
  std::map<std::string, std::int64_t> wrapper_self_ns;
  std::map<std::string, std::int64_t> library_self_ns;
  std::int64_t covered_ns = 0;
};

Attribution attribute(const obs::Snapshot& window) {
  const std::vector<obs::ProfileSpanRow> rows =
      obs::profile_attribution(window);
  std::map<std::string, std::int64_t> children_ns;
  for (const obs::ProfileSpanRow& row : rows) {
    const std::size_t cut = row.path.rfind('/');
    if (cut != std::string::npos)
      children_ns[row.path.substr(0, cut)] += row.total_ns;
  }
  Attribution out;
  for (const obs::ProfileSpanRow& row : rows) {
    const std::size_t cut = row.path.rfind('/');
    const bool root = cut == std::string::npos;
    const std::string name = root ? row.path : row.path.substr(cut + 1);
    const std::string parent = root ? std::string() : row.path.substr(0, cut);
    const std::int64_t self = row.total_ns - children_ns[row.path];
    if (root && is_layer_stem(name)) {
      out.wrapper_self_ns[name] += self;
      continue;
    }
    out.library_self_ns[name] += self;
    if (root || is_layer_stem(parent)) out.covered_ns += row.total_ns;
  }
  return out;
}

std::int64_t total_ns(const std::vector<std::int64_t>& op_ns,
                      const std::vector<std::size_t>& ops) {
  std::int64_t ns = 0;
  for (std::size_t i : ops) ns += op_ns[i];
  return ns;
}

double rate(std::size_t ops, std::int64_t ns) {
  return static_cast<double>(ops) / (static_cast<double>(ns) * 1e-9);
}

// The given ops that ran while the machine was fastest. On a shared host,
// co-tenant contention for caches and memory slows a process 1.3-1.8x for
// stretches of one to twenty seconds, at times most of a run (measured on
// the 4-vCPU x86-64 VM the rates were calibrated on). The ops are cut into
// windows of window_ops consecutive ops. A window's key is the median over
// its ops of op time over the median time of that op's kind, so it follows
// the machine's speed rather than the cost of the window's inputs. Each
// kind then keeps the same share of its ops, those in the fastest windows,
// so the kept ops have the run's mix of kinds. The share is kKeepShare, or
// more where min_ops ops are needed for a percentile.
struct Selected {
  std::vector<std::int64_t> op_ns;
  double ops_per_s = 0.0;
};

Selected select_fast(const std::vector<std::int64_t>& op_ns,
                     const std::vector<std::size_t>& ops, std::size_t cycle,
                     std::size_t window_ops, std::size_t min_ops) {
  std::vector<std::vector<double>> kind_ns(cycle);
  for (std::size_t i : ops)
    kind_ns[i % cycle].push_back(static_cast<double>(op_ns[i]));
  std::vector<double> kind_median(cycle);
  for (std::size_t k = 0; k < cycle; ++k)
    kind_median[k] = std::max(1.0, median(kind_ns[k]));

  std::vector<double> key(ops.size());
  for (std::size_t w = 0; w < ops.size(); w += window_ops) {
    const std::size_t end = std::min(ops.size(), w + window_ops);
    std::vector<double> ratios;
    for (std::size_t j = w; j < end; ++j)
      ratios.push_back(static_cast<double>(op_ns[ops[j]]) /
                       kind_median[ops[j] % cycle]);
    const double window_key = median(ratios);
    std::fill(key.begin() + static_cast<std::ptrdiff_t>(w),
              key.begin() + static_cast<std::ptrdiff_t>(end), window_key);
  }

  const double share = std::min(
      1.0, std::max(kKeepShare, static_cast<double>(min_ops) /
                                    static_cast<double>(ops.size())));
  std::vector<std::vector<std::size_t>> by_kind(cycle);
  for (std::size_t j = 0; j < ops.size(); ++j)
    by_kind[ops[j] % cycle].push_back(j);
  Selected out;
  std::int64_t kept_ns = 0;
  for (std::vector<std::size_t>& slots : by_kind) {
    std::stable_sort(slots.begin(), slots.end(),
                     [&](std::size_t a, std::size_t b) {
                       return key[a] < key[b];
                     });
    const auto keep = static_cast<std::size_t>(
        std::ceil(share * static_cast<double>(slots.size())));
    for (std::size_t t = 0; t < keep; ++t) {
      out.op_ns.push_back(op_ns[ops[slots[t]]]);
      kept_ns += out.op_ns.back();
    }
  }
  out.ops_per_s = rate(out.op_ns.size(), kept_ns);
  return out;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    const double value = std::isfinite(metrics[k].value) ? metrics[k].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                k == 0 ? "" : ", ", metrics[k].name.c_str(), value,
                metrics[k].unit);
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

template <typename W>
int run(const Options& opts, std::int64_t main_ns) {
  W workload(opts.seed);
  const CountReader reader;

  // Set-up: fresh inputs plus a fixed amount of warm-up work. It runs
  // kSetupReps times before the measured phase, the last leaving the state
  // the phase runs on, and kSetupReps times after it, so that the median
  // setup_s reports samples the machine at both ends of the run.
  LayerClock warm_clock;
  Digest warm_digest;
  bool setup_ok = true;
  std::vector<double> rep_s;
  const auto set_up = [&](std::uint64_t first_stream) {
    for (std::uint64_t stream = first_stream;
         stream < first_stream + kSetupReps; ++stream) {
      const std::int64_t start = mono_ns();
      workload.setup(stream);
      for (std::size_t j = 0; j < W::kWarmOps; ++j) {
        workload.prepare(stream, j);
        workload.execute(warm_clock);
        setup_ok = workload.check(warm_digest) && setup_ok;
      }
      rep_s.push_back(static_cast<double>(mono_ns() - start) * 1e-9);
    }
  };
  set_up(1);

  // Measured phase. Under --trace 1 odd blocks run with the span profiler
  // on (around execute() only); per-layer timers and latencies come from
  // the even, untraced blocks.
  const Plan plan = make_plan(W::kCycle, W::kRate, W::kMinOps, opts.seconds);
  const auto traced_block = [&](std::size_t block) {
    return opts.trace && block % 2 == 1;
  };
  std::vector<std::int64_t> op_ns(plan.ops);
  LayerClock clock;
  LayerClock traced_clock;
  Digest inputs;
  Digest answers;
  Counts totals{};
  std::size_t failed = 0;
  obs::Registry& registry = obs::Registry::global();
  const obs::Snapshot before = registry.snapshot();
  for (std::size_t i = 0; i < plan.ops; ++i) {
    const bool traced = traced_block(i / plan.block_ops);
    workload.prepare(0, i);
    workload.digest_input(inputs);
    const Counts c0 = reader.read();
    obs::set_profiling(traced);
    bool ran = true;
    const std::int64_t start = mono_ns();
    try {
      workload.execute(traced ? traced_clock : clock);
    } catch (const std::exception& e) {
      ran = false;
      std::fprintf(stderr, "perfbench: op %zu failed: %s\n", i, e.what());
    }
    op_ns[i] = mono_ns() - start;
    obs::set_profiling(false);
    const Counts c1 = reader.read();
    for (std::size_t k = 0; k < kCountCount; ++k) totals[k] += c1[k] - c0[k];
    if (!(ran && workload.check(answers))) ++failed;
  }
  const double rss_mb = peak_rss_mb();
  const Attribution spans = attribute(registry.snapshot().diff(before));
  const bool finish_ok = workload.finish();
  set_up(1 + kSetupReps);
  const double launch_s =
      opts.spawn_ns > 0 ? static_cast<double>(main_ns - opts.spawn_ns) * 1e-9
                        : 0.0;
  const double setup_s = launch_s + median(rep_s);
  const bool correct = failed == 0 && setup_ok && finish_ok;

  std::vector<std::size_t> untraced;
  std::vector<std::size_t> traced;
  for (std::size_t i = 0; i < plan.ops; ++i)
    (traced_block(i / plan.block_ops) ? traced : untraced).push_back(i);
  // Enough kept ops for ten samples beyond every percentile reported: p50
  // untraced; p90, and p99 when serving, traced.
  const std::size_t min_kept = !opts.trace ? 20 : W::kServing ? 1000 : 100;
  const Selected plain =
      select_fast(op_ns, untraced, W::kCycle, W::kWindowOps, min_kept);
  std::fprintf(stderr,
               "perfbench: kept %zu of %zu untraced ops, %.4g ops/s; "
               "all of them %.4g ops/s\n",
               plain.op_ns.size(), untraced.size(), plain.ops_per_s,
               rate(untraced.size(), total_ns(op_ns, untraced)));

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d ops=%zu "
              "blocks=%zu input_digest=%016llx answer_digest=%016llx\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0, plan.ops, plan.blocks,
              static_cast<unsigned long long>(inputs.value()),
              static_cast<unsigned long long>(answers.value()));

  std::vector<Metric> metrics;
  if (!opts.trace) {
    metrics = {
        {"ops_per_s", plain.ops_per_s, "1/s"},
        {"op_p50_ms", percentile_ms(plain.op_ns, 500), "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"ok_frac",
         static_cast<double>(plan.ops - failed) / static_cast<double>(plan.ops),
         "fraction"},
    };
    print_result(correct, plan.ops, failed, metrics);
    return correct ? 0 : 1;
  }

  const auto per_op = [&](Count k) {
    return static_cast<double>(totals[k]) / static_cast<double>(plan.ops);
  };
  const auto frac = [&](Count num, Count den) {
    return ratio(static_cast<double>(totals[num]),
                 static_cast<double>(totals[den]));
  };
  const auto layer_us = [&](Layer layer) {
    return static_cast<double>(clock.ns(layer)) * 1e-3 /
           static_cast<double>(untraced.size());
  };
  metrics = {
      {"util.bigint_slow_ops", per_op(kBigintSlowOps), "count"},
      {"util.bigint_promotions", per_op(kBigintPromotions), "count"},
      {"util.rat_slow_ops", per_op(kRatSlowOps), "count"},
      {"util.rat_fast_ops", per_op(kRatFastOps), "count"},
      {"util.bigint_spills", per_op(kBigintSpills), "count"},
      {"util.heap_allocs", per_op(kHeapAllocs), "count"},
      {"util.arena_bytes", per_op(kArenaBytes), "bytes"},
      {"adversary.den_bits_mean", frac(kDenBitsSum, kDenBitsSamples), "bits"},
      {"adversary.den_bits_max",
       totals[kDenBitsSamples] == 0
           ? 0.0
           : static_cast<double>(reader.den_bits_max()),
       "bits"},
      {"adversary.game_us", layer_us(kGame), "us"},
      {"sim.online_us", layer_us(kOnline), "us"},
      {"sim.dispatches", per_op(kDispatches), "count"},
      {"sim.preemptions", per_op(kPreemptions), "count"},
      {"flow.opt_us", layer_us(kOpt), "us"},
      {"flow.schedule_us", layer_us(kSchedule), "us"},
      {"flow.probes", per_op(kProbes), "count"},
      {"flow.builds", per_op(kBuilds), "count"},
      {"flow.warm_probe_frac", frac(kWarmProbes, kProbes), "fraction"},
      {"flow.edge_visits", per_op(kEdgeVisits), "count"},
      {"flow.augmenting_paths", per_op(kAugmentingPaths), "count"},
      {"flow.dyn_edges_patched", per_op(kDynEdgesPatched), "count"},
      {"flow.dyn_leaf_splits", per_op(kDynLeafSplits), "count"},
      {"flow.dyn_rebuilds", per_op(kDynRebuilds), "count"},
      {"core.bounds_pinched_frac", frac(kBoundsPinched, kBoundsComputed),
       "fraction"},
      {"core.pack_attempts", per_op(kPackAttempts), "count"},
      {"svc.query_us", layer_us(kQuery), "us"},
      {"svc.edit_us", layer_us(kEdit), "us"},
      {"svc.coalesced_frac", frac(kSvcCoalesced, kSvcCompletes), "fraction"},
      {"op_p90_ms", percentile_ms(plain.op_ns, 900), "ms"},
      {"svc.op_p99_ms", W::kServing ? percentile_ms(plain.op_ns, 990) : 0.0,
       "ms"},
      {"core.exhaustive_us", layer_us(kExhaustive), "us"},
      {"core.load_bound_us", layer_us(kLoadBound), "us"},
      {"core.validate_us", layer_us(kValidate), "us"},
  };
  const auto traced_wall = static_cast<double>(total_ns(op_ns, traced));
  const auto traced_ops = static_cast<double>(traced.size());
  const auto self_ns = [](const std::map<std::string, std::int64_t>& table,
                          const char* name) {
    const auto it = table.find(name);
    return it == table.end() ? 0.0 : static_cast<double>(it->second);
  };
  for (const char* stem : kLayerStem) {
    metrics.push_back({std::string("trace.") + stem + ".self_us",
                       ratio(self_ns(spans.wrapper_self_ns, stem) * 1e-3,
                             traced_ops),
                       "us"});
  }
  for (const char* name : kLibrarySpans) {
    metrics.push_back({std::string("trace.") + name + ".self_share",
                       ratio(self_ns(spans.library_self_ns, name), traced_wall),
                       "fraction"});
  }
  metrics.push_back(
      {"trace.unattributed_share",
       ratio(traced_wall - static_cast<double>(spans.covered_ns), traced_wall),
       "fraction"});
  const double traced_rate =
      select_fast(op_ns, traced, W::kCycle, W::kWindowOps, min_kept)
          .ops_per_s;
  metrics.push_back({"trace.overhead",
                     1.0 - ratio(traced_rate, plain.ops_per_s), "fraction"});
  print_result(correct, plan.ops, failed, metrics);
  return correct ? 0 : 1;
}

Options parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument " + key);
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else {
      if (i + 1 >= argc) throw std::invalid_argument(key + " needs a value");
      value = argv[++i];
    }
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
      if (!(opts.seconds > 0 && opts.seconds <= 3600))
        throw std::invalid_argument("--seconds must be in (0, 3600]");
    } else if (key == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      opts.trace = value == "1";
    } else if (key == "--spawn-ns") {
      opts.spawn_ns = std::stoll(value);
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (opts.workload.empty())
    throw std::invalid_argument("--workload is required");
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = mono_ns();
  try {
    const Options opts = parse(argc, argv);
    if (opts.workload == "strong_lb")
      return run<StrongLbWorkload>(opts, main_ns);
    if (opts.workload == "ratio_sweep")
      return run<RatioSweepWorkload>(opts, main_ns);
    if (opts.workload == "session_stream")
      return run<SessionStreamWorkload>(opts, main_ns);
    if (opts.workload == "theorem1")
      return run<Theorem1Workload>(opts, main_ns);
    throw std::invalid_argument("unknown workload " + opts.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
