#include "minmach/adversary/strong_lb.hpp"

#include <algorithm>
#include <set>
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

// The game keeps every time and length in ticks of the simulator's grid
// and writes them with submit_ticks()/run_until_ticks(). A value it
// derives as a fraction of another refines the grid just enough to hold
// it, so the grid stays the lcm of every value's denominator. It plays at
// speed 1, where remaining work equals remaining wall time.
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
    // the canonical denominator of scale / D.
    obs::Registry& registry = obs::Registry::global();
    registry.histogram("adversary.level_depth").observe(k);
    registry.histogram("adversary.den_bits")
        .observe(static_cast<std::int64_t>(
            (sim_.grid() / BigInt::gcd(scale, sim_.grid())).bit_length()));
    if (k == 2) return base(std::move(start), std::move(scale));

    Level prev = build(k - 1, std::move(start), std::move(scale));

    // eps' = min(eps, remaining work of each critical job at t0), observed
    // from the opponent's actual schedule (Equation (2)).
    BigInt least = at(prev.eps);
    for (JobId id : prev.critical) {
      const BigInt& left = sim_.remaining_ticks(id);
      check(!left.is_zero(), "critical job finished before its critical time");
      if (left < least) least = left;
    }
    HeldTicks eps_prime = hold(std::move(least));
    HeldTicks half = hold(fraction_of(at(eps_prime), 1, 2));  // eps'/2

    // Scaled copy of I_{k-1} inside [t0, t0 + eps'/2].
    Level sub = build(k - 1, at(prev.t0), at(half));

    std::set<std::size_t> prev_machines = machines_of(prev.critical);
    std::set<std::size_t> sub_machines = machines_of(sub.critical);

    if (sub_machines != prev_machines) {
      // Case 1: some critical job of the copy sits on a fresh machine.
      for (JobId id : sub.critical) {
        std::size_t m = machine_of(id);
        if (!prev_machines.contains(m)) {
          obs::Registry::global().counter("adversary.case1").add();
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
    HeldTicks window =
        hold(at(prev.t0) + at(eps_prime) - sim_.now_ticks());  // W
    BigInt min_rem;
    bool first = true;
    for (JobId id : sub.critical) {
      const BigInt& left = sim_.remaining_ticks(id);
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

    const JobId star_id = sim_.submit_ticks(
        sim_.now_ticks(), at(prev.t0) + at(eps_prime), processing);
    sim_.run_until_ticks(at(prev.t0) + at(half));  // t''_0

    check(!prev_machines.contains(machine_of(star_id)),
          "opponent placed j* on a critical machine despite infeasibility");
    check(!sim_.remaining_ticks(star_id).is_zero(),
          "j* finished before t''_0");
    for (JobId id : prev.critical)
      check(!sim_.remaining_ticks(id).is_zero(),
            "old critical job finished early");

    obs::Registry::global().counter("adversary.case2").add();
    if (obs::trace_enabled())
      obs::trace_event("adversary", "level",
                       {{"k", k}, {"case", 2},
                        {"t0", Rat(sim_.now_ticks(), sim_.grid())},
                        {"eps", rat(laxity)},
                        {"critical", prev.critical.size() + 1}});
    // The laxity of j* is the idle margin on machine 1.
    Level out{prev.critical, hold(sim_.now_ticks()), std::move(laxity)};
    out.critical.push_back(star_id);
    check_distinct(out.critical);
    return out;
  }

  // Base gadget I_2 in [start, start + scale).
  Level base(BigInt start_ticks, BigInt scale_ticks) {
    obs::Registry::global().counter("adversary.base_gadgets").add();
    HeldTicks start = hold(std::move(start_ticks));
    HeldTicks scale = hold(std::move(scale_ticks));

    // j_1 = (start, start + scale, alpha * scale), latest start a_1.
    const BigInt long_p = fraction_of(at(scale), params_.alpha.num(),
                                      params_.alpha.den());
    BigInt j1_deadline = at(start) + at(scale);
    HeldTicks a1 = hold(j1_deadline - long_p);  // r + (1-alpha) * scale
    const JobId j1_id =
        sim_.submit_ticks(at(start), std::move(j1_deadline), long_p);
    sim_.run_until_ticks(at(a1));

    // Short jobs: beta * scale windows, alpha of each one processing.
    HeldTicks short_len = hold(
        fraction_of(at(scale), params_.beta.num(), params_.beta.den()));
    HeldTicks short_p = hold(fraction_of(
        at(short_len), params_.alpha.num(), params_.alpha.den()));
    for (int i = 0; i < params_.max_short_jobs; ++i) {
      sim_.run_until_ticks(at(a1) + at(short_len) * i);
      const JobId short_id =
          sim_.submit_ticks(sim_.now_ticks(),
                            sim_.now_ticks() + at(short_len), at(short_p));
      // Policies commit at release; deliver the release event.
      sim_.run_until_ticks(sim_.now_ticks());
      if (machine_of(short_id) != machine_of(j1_id)) {
        // j_2 found; critical time t_0 = a_{j2}.
        sim_.run_until_ticks(sim_.now_ticks() + at(short_len) - at(short_p));
        check(!sim_.remaining_ticks(j1_id).is_zero(), "j1 finished before t0");
        check(!sim_.remaining_ticks(short_id).is_zero(),
              "j2 finished before t0");
        // Offline: j2 idles [t0, t0 + (1-alpha)*beta*scale), j1 can absorb
        // up to its laxity (1-alpha)*scale; the former is smaller.
        Level out{{j1_id, short_id},
                  hold(sim_.now_ticks()),
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
  // When the result lies off the grid, the grid refines by
  // f = den / gcd((value * num) mod den, den), the least factor that puts
  // it on the grid; that makes the grid lcm(D, the result's canonical
  // denominator), as a submit of the result as a Rat would.
  [[nodiscard]] BigInt fraction_of(const BigInt& value, const BigInt& num,
                                   const BigInt& den) {
    BigInt product = value * num;
    BigIntDivMod split = BigInt::div_mod(product, den);
    if (split.remainder.is_zero()) return std::move(split.quotient);
    const BigInt factor = den / BigInt::gcd(split.remainder, den);
    sim_.refine(factor);
    return product * factor / den;
  }

  [[nodiscard]] HeldTicks hold(BigInt ticks) const {
    return {std::move(ticks), sim_.grid()};
  }
  [[nodiscard]] const BigInt& at(HeldTicks& value) const {
    return value.on(sim_.grid());
  }
  [[nodiscard]] Rat rat(HeldTicks& value) const {
    return {at(value), sim_.grid()};
  }

  std::size_t machine_of(JobId id) const {
    auto m = machine_of_fn_(id);
    if (!m)
      throw std::logic_error("strong_lb: job has no committed machine");
    return *m;
  }

  std::set<std::size_t> machines_of(const std::vector<JobId>& ids) const {
    std::set<std::size_t> out;
    for (JobId id : ids) out.insert(machine_of(id));
    return out;
  }

  void check_distinct(const std::vector<JobId>& ids) const {
    check(machines_of(ids).size() == ids.size(),
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
