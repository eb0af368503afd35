#include "minmach/adversary/strong_lb.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"
#include "minmach/obs/trace.hpp"
#include "minmach/sim/engine.hpp"

namespace minmach {

namespace {

// A time or a length in ticks, with the grid it was read on. The
// simulator's grid only refines, each grid a multiple of every grid before
// it, so a held value reads on the current grid as ticks * D_now / D_then;
// reading it rescales it in place.
class HeldTicks {
 public:
  HeldTicks(BigInt ticks, const BigInt& grid)
      : ticks_(std::move(ticks)), grid_(grid) {}

  [[nodiscard]] const BigInt& on(const BigInt& grid) {
    if (grid_ != grid) {
      ticks_ *= grid / grid_;
      grid_ = grid;
    }
    return ticks_;
  }

 private:
  BigInt ticks_;
  BigInt grid_;
};

// The game keeps every time and length in ticks of its grid and writes
// them with submit_ticks()/run_until_ticks(). A value it derives as a
// fraction of another refines the game's grid just enough to hold it, so
// the grid stays the lcm of every value's denominator. The game owes the
// simulator those refinements and pays them as one, just before its next
// simulator call: back-to-back fractions (eps'/2 and then a base gadget's
// three, say) cost the live ticks one rescale. While nothing is owed the
// game's grid is the simulator's, so a refinement a policy's wake-up
// makes during a run reads through. It plays at speed 1, where remaining
// work equals remaining wall time.
class StrongLbGame {
 public:
  StrongLbGame(OnlinePolicy& policy, MachineOfFn machine_of,
               const StrongLbParams& params)
      : machine_of_fn_(std::move(machine_of)), params_(params), sim_(policy) {
    // With alpha = a/b and beta = c/e (positive denominators):
    const BigInt& a = params_.alpha.num();
    const BigInt& b = params_.alpha.den();
    const BigInt& c = params_.beta.num();
    const BigInt& e = params_.beta.den();
    if (!(b < a * 2 && a < b))
      throw std::invalid_argument("strong_lb: alpha must be in (1/2, 1)");
    if (!(c.signum() > 0 && c * 2 < e))
      throw std::invalid_argument("strong_lb: beta must be in (0, 1/2)");
    // Inequality (1): floor((2 alpha - 1) / beta) * alpha * beta > 1 - alpha,
    // that is floor((2a - b) e / (b c)) * a c > (b - a) e.
    const BigInt windows = (a * 2 - b) * e / (b * c);
    if (!(windows * a * c > (b - a) * e))
      throw std::invalid_argument("strong_lb: (alpha, beta) violate Eq. (1)");
  }

  struct Level {
    std::vector<JobId> critical;  // on distinct machines, unfinished at t0
    HeldTicks t0;
    HeldTicks eps;  // offline idle margin after t0 (Lemma 2 (ii))
  };

  // Builds I_k released into [start, start + scale), both in ticks of the
  // current grid; sim time must be `start` on entry and is `result.t0` on
  // exit. Records the contiguous job range this call (including nested
  // levels and Case 2's j*) released, so consumers can extract every
  // level's sub-instance (StrongLbLevelSlice).
  Level build(int k, BigInt start, BigInt scale) {
    obs::ProfileSpan span("adversary_level");
    const std::size_t job_begin = sim_.instance().size();
    Level out = build_inner(k, std::move(start), std::move(scale));
    slices_.push_back({k, job_begin, sim_.instance().size()});
    return out;
  }

  Level build_inner(int k, BigInt start, BigInt scale) {
    if (k < 2) throw std::invalid_argument("strong_lb: k >= 2 required");
    // Histograms (not gauges): commutative merges keep parallel sweeps
    // byte-deterministic. den_bits tracks how fast the rescaling blows up
    // the rationals' denominators per recursion level: the bit length of
    // the canonical denominator of scale / D. Each metric is registered at
    // its first use, so a run's report lists only the metrics it moved.
    static obs::Histogram& level_depth =
        obs::Registry::global().histogram("adversary.level_depth");
    static obs::Histogram& den_bits =
        obs::Registry::global().histogram("adversary.den_bits");
    level_depth.observe(k);
    den_bits.observe(static_cast<std::int64_t>(
        (grid() / BigInt::gcd(scale, grid())).bit_length()));
    if (k == 2) return base(std::move(start), std::move(scale));

    Level prev = build(k - 1, std::move(start), std::move(scale));

    // eps' = min(eps, remaining work of each critical job at t0), observed
    // from the opponent's actual schedule (Equation (2)).
    BigInt least = at(prev.eps);
    for (JobId id : prev.critical) {
      const BigInt& left = remaining(id);
      check(!left.is_zero(), "critical job finished before its critical time");
      if (left < least) least = left;
    }
    HeldTicks eps_prime = hold(std::move(least));
    HeldTicks half = hold(fraction_of(at(eps_prime), 1, 2));  // eps'/2

    // Scaled copy of I_{k-1} inside [t0, t0 + eps'/2].
    Level sub = build(k - 1, at(prev.t0), at(half));

    machines_of(prev.critical, prev_machines_);
    machines_of(sub.critical, sub_machines_);

    if (sub_machines_ != prev_machines_) {
      // Case 1: some critical job of the copy sits on a fresh machine.
      for (JobId id : sub.critical) {
        if (!on_prev_machine(machine_of(id))) {
          static obs::Counter& case1 =
              obs::Registry::global().counter("adversary.case1");
          case1.add();
          if (obs::trace_enabled())
            obs::trace_event("adversary", "level",
                             {{"k", k}, {"case", 1}, {"t0", rat(sub.t0)},
                              {"eps", rat(sub.eps)},
                              {"critical", prev.critical.size() + 1}});
          Level out{prev.critical, std::move(sub.t0), std::move(sub.eps)};
          out.critical.push_back(id);
          check_distinct(out.critical);
          return out;
        }
      }
      fail("machine sets differ but no fresh machine found");
    }

    // Case 2: same machine set. Release j* that cannot share a machine
    // with any unfinished critical job of the copy, in the window
    // [t'_0, t_0 + eps') of length W; t'_0 is now.
    HeldTicks window = hold(at(prev.t0) + at(eps_prime) - now());  // W
    BigInt min_rem;
    bool first = true;
    for (JobId id : sub.critical) {
      const BigInt& left = remaining(id);
      check(!left.is_zero(), "copy's critical job finished before t'_0");
      if (first || left < min_rem) min_rem = left;
      first = false;
    }
    // p* in ( max(W - min_rem, W - eps'/2), W ): lower bounds forbid
    // sharing and finishing by t''_0; upper bound keeps positive laxity.
    const BigInt lower = at(window) - std::min(min_rem, at(half));
    check(lower < at(window), "empty parameter interval for j*");
    const BigInt processing = fraction_of(lower + at(window), 1, 2);
    HeldTicks laxity = hold(at(window) - processing);

    const JobId star_id =
        submit(now(), at(prev.t0) + at(eps_prime), processing);
    run_until(at(prev.t0) + at(half));  // t''_0

    check(!on_prev_machine(machine_of(star_id)),
          "opponent placed j* on a critical machine despite infeasibility");
    check(!remaining(star_id).is_zero(), "j* finished before t''_0");
    for (JobId id : prev.critical)
      check(!remaining(id).is_zero(), "old critical job finished early");

    static obs::Counter& case2 =
        obs::Registry::global().counter("adversary.case2");
    case2.add();
    if (obs::trace_enabled())
      obs::trace_event("adversary", "level",
                       {{"k", k}, {"case", 2}, {"t0", Rat(now(), grid())},
                        {"eps", rat(laxity)},
                        {"critical", prev.critical.size() + 1}});
    // The laxity of j* is the idle margin on machine 1.
    Level out{prev.critical, hold(now()), std::move(laxity)};
    out.critical.push_back(star_id);
    check_distinct(out.critical);
    return out;
  }

  // Base gadget I_2 in [start, start + scale).
  Level base(BigInt start_ticks, BigInt scale_ticks) {
    static obs::Counter& base_gadgets =
        obs::Registry::global().counter("adversary.base_gadgets");
    base_gadgets.add();
    HeldTicks start = hold(std::move(start_ticks));
    HeldTicks scale = hold(std::move(scale_ticks));

    // Short jobs: beta * scale windows, alpha of each one processing.
    // They and j_1's alpha * scale are derived before the first submit,
    // so the three share one refinement.
    HeldTicks short_len = hold(
        fraction_of(at(scale), params_.beta.num(), params_.beta.den()));
    HeldTicks short_p = hold(fraction_of(
        at(short_len), params_.alpha.num(), params_.alpha.den()));
    // j_1 = (start, start + scale, alpha * scale), latest start a_1.
    const BigInt long_p = fraction_of(at(scale), params_.alpha.num(),
                                      params_.alpha.den());
    BigInt j1_deadline = at(start) + at(scale);
    HeldTicks a1 = hold(j1_deadline - long_p);  // r + (1-alpha) * scale
    const JobId j1_id = submit(at(start), std::move(j1_deadline), long_p);
    run_until(at(a1));

    for (int i = 0; i < params_.max_short_jobs; ++i) {
      run_until(at(a1) + at(short_len) * i);
      const JobId short_id =
          submit(now(), now() + at(short_len), at(short_p));
      // Policies commit at release; deliver the release event.
      run_until(now());
      if (machine_of(short_id) != machine_of(j1_id)) {
        // j_2 found; critical time t_0 = a_{j2}.
        run_until(now() + at(short_len) - at(short_p));
        check(!remaining(j1_id).is_zero(), "j1 finished before t0");
        check(!remaining(short_id).is_zero(), "j2 finished before t0");
        // Offline: j2 idles [t0, t0 + (1-alpha)*beta*scale), j1 can absorb
        // up to its laxity (1-alpha)*scale; the former is smaller.
        Level out{{j1_id, short_id},
                  hold(now()),
                  hold(at(short_len) - at(short_p))};
        check_distinct(out.critical);
        return out;
      }
    }
    fail(
        "opponent kept every short job on j1's machine (infeasible by "
        "Eq. (1))");
  }

  // value * num / den in ticks, for value in ticks and 0 < num/den < 1.
  // When the result lies off the grid, the game's grid refines by
  // f = den / gcd((value * num) mod den, den), the least factor that puts
  // it on the grid; that makes the grid lcm(D, the result's canonical
  // denominator), as a submit of the result as a Rat would. The simulator
  // is paid f with the rest of the debt at the game's next call.
  [[nodiscard]] BigInt fraction_of(const BigInt& value, const BigInt& num,
                                   const BigInt& den) {
    BigInt product = value * num;
    BigIntDivMod split = BigInt::div_mod(product, den);
    if (split.remainder.is_zero()) return std::move(split.quotient);
    const BigInt factor = den / BigInt::gcd(split.remainder, den);
    if (!owing_) {
      owed_ = 1;
      owed_grid_ = sim_.grid();
      owing_ = true;
    }
    owed_ *= factor;
    owed_grid_ *= factor;
    return product * factor / den;
  }

  // The game's grid: the simulator's, refined by what the game owes it.
  [[nodiscard]] const BigInt& grid() const {
    return owing_ ? owed_grid_ : sim_.grid();
  }

  // The simulator calls. Each pays the debt first, so a tick the game
  // passes or reads is on both grids at once.
  void pay() {
    if (!owing_) return;
    sim_.refine(owed_);
    owing_ = false;
  }
  JobId submit(BigInt release, BigInt deadline, BigInt wall) {
    pay();
    return sim_.submit_ticks(std::move(release), std::move(deadline),
                             std::move(wall));
  }
  void run_until(const BigInt& t) {
    pay();
    sim_.run_until_ticks(t);
  }
  [[nodiscard]] const BigInt& now() {
    pay();
    return sim_.now_ticks();
  }
  [[nodiscard]] const BigInt& remaining(JobId id) {
    pay();
    return sim_.remaining_ticks(id);
  }

  [[nodiscard]] HeldTicks hold(BigInt ticks) const {
    return {std::move(ticks), grid()};
  }
  [[nodiscard]] const BigInt& at(HeldTicks& value) const {
    return value.on(grid());
  }
  [[nodiscard]] Rat rat(HeldTicks& value) const { return {at(value), grid()}; }

  std::size_t machine_of(JobId id) const {
    auto m = machine_of_fn_(id);
    if (!m)
      throw std::logic_error("strong_lb: job has no committed machine");
    return *m;
  }

  // The machines of the jobs, ascending and without repeats, in `out`.
  void machines_of(const std::vector<JobId>& ids,
                   std::vector<std::size_t>& out) const {
    out.clear();
    for (JobId id : ids) out.push_back(machine_of(id));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  [[nodiscard]] bool on_prev_machine(std::size_t machine) const {
    return std::binary_search(prev_machines_.begin(), prev_machines_.end(),
                              machine);
  }

  void check_distinct(const std::vector<JobId>& ids) {
    machines_of(ids, distinct_machines_);
    check(distinct_machines_.size() == ids.size(),
          "critical jobs share a machine");
  }

  [[noreturn]] static void fail(const std::string& message) {
    throw std::logic_error("strong_lb invariant violated: " + message);
  }
  static void check(bool condition, const char* message) {
    if (!condition) fail(message);
  }

  MachineOfFn machine_of_fn_;
  StrongLbParams params_;
  Simulator sim_;
  // The refinement the game owes the simulator, and its grid with it; both
  // are read only while owing_.
  bool owing_ = false;
  BigInt owed_;
  BigInt owed_grid_;
  // One level's machine sets of the earlier and the copy's critical jobs,
  // and check_distinct's, reused across levels (no level recurses while
  // it reads them).
  std::vector<std::size_t> prev_machines_;
  std::vector<std::size_t> sub_machines_;
  std::vector<std::size_t> distinct_machines_;
  std::vector<StrongLbLevelSlice> slices_;
};

}  // namespace

StrongLbResult run_strong_lower_bound(OnlinePolicy& policy,
                                      const MachineOfFn& machine_of,
                                      int levels,
                                      const StrongLbParams& params) {
  if (levels < 2)
    throw std::invalid_argument("run_strong_lower_bound: levels >= 2");
  StrongLbGame game(policy, machine_of, params);
  // [0, 1) on the initial grid D = 1.
  StrongLbGame::Level top = game.build(levels, BigInt(0), BigInt(1));

  StrongLbResult result;
  result.critical_jobs = top.critical;
  result.critical_time = game.rat(top.t0);

  // Let the opponent finish everything it can; then collect the record.
  game.pay();
  game.sim_.run_to_completion();
  game.sim_.publish_metrics(policy.name());
  result.instance = game.sim_.instance();
  result.machines_used = game.sim_.machines_used();
  result.jobs = game.sim_.instance().size();
  result.opponent_missed_deadline = game.sim_.any_missed();
  result.level_slices = std::move(game.slices_);
  return result;
}

Instance slice_instance(const StrongLbResult& result,
                        const StrongLbLevelSlice& slice) {
  const std::vector<Job>& jobs = result.instance.jobs();
  auto begin = jobs.begin() + static_cast<std::ptrdiff_t>(slice.job_begin);
  auto end = jobs.begin() + static_cast<std::ptrdiff_t>(slice.job_end);
  return Instance(std::vector<Job>(begin, end));
}

StrongLbResult run_strong_lower_bound(NonMigratoryPolicy& policy, int levels,
                                      const StrongLbParams& params) {
  return run_strong_lower_bound(
      policy, [&policy](JobId id) { return policy.machine_of(id); }, levels,
      params);
}

StrongLbResult run_strong_lower_bound(ReservationPolicy& policy, int levels,
                                      const StrongLbParams& params) {
  return run_strong_lower_bound(
      policy, [&policy](JobId id) { return policy.machine_of(id); }, levels,
      params);
}

}  // namespace minmach
