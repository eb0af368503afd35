#include "minmach/algos/pack_ub.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "minmach/core/schedule.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/obs/metrics.hpp"
#include "minmach/obs/profile.hpp"

namespace minmach {

namespace {

// One fluid grant: job receives `amount` wall time inside segment k
// (amount <= segment length, so McNaughton realizes it on one machine
// without self-overlap).
struct Chunk {
  std::size_t job;
  std::size_t segment;
  Rat amount;
};

// int64 twin of Chunk for the column entry: grants stay raw integers
// through every pass and through the audit of the winning one.
struct IChunk {
  std::size_t job;
  std::size_t segment;
  std::int64_t amount;
};

struct PackAttempt {
  bool feasible = false;
  // max over segments of ceil(granted / length): the machines the realized
  // schedule actually uses (<= the budget the pass ran under).
  std::int64_t machines_used = 0;
  std::vector<Chunk> chunks;    // exact-Rat passes
  std::vector<IChunk> ichunks;  // int64 passes (exactly one vector is used)
};

// One greedy fluid pass at machine budget m. Priority: deadline ascending
// (EDF) or `deadline - remaining` ascending (LLF -- the laxity
// d - t - remaining at segment start t, with the common -t dropped since it
// does not affect the order), ties by job index so passes are deterministic.
PackAttempt try_pack(const Instance& instance, const std::vector<Rat>& points,
                     std::int64_t budget, bool llf) {
  PackAttempt out;
  const std::size_t n = instance.size();
  std::vector<Rat> remaining(n);
  for (std::size_t j = 0; j < n; ++j)
    remaining[j] = instance.job(j).processing;

  std::vector<std::size_t> by_release(n);
  std::iota(by_release.begin(), by_release.end(), 0);
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t x, std::size_t y) {
              const Rat& rx = instance.job(x).release;
              const Rat& ry = instance.job(y).release;
              return rx < ry || (rx == ry && x < y);
            });

  std::vector<std::size_t> active;   // released, unfinished, deadline ahead
  std::vector<std::size_t> order;    // active re-prioritized per segment
  std::vector<Rat> llf_key(llf ? n : 0);
  active.reserve(n);
  order.reserve(n);
  std::size_t next_release = 0;
  const Rat budget_rat(budget);

  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    const Rat& a = points[k];
    const Rat& b = points[k + 1];
    while (next_release < n &&
           !(a < instance.job(by_release[next_release]).release)) {
      active.push_back(by_release[next_release]);
      ++next_release;
    }
    if (active.empty()) continue;

    const Rat length = b - a;
    Rat cap = budget_rat * length;
    order.assign(active.begin(), active.end());
    if (llf) {
      for (std::size_t j : order)
        llf_key[j] = instance.job(j).deadline - remaining[j];
      std::sort(order.begin(), order.end(),
                [&](std::size_t x, std::size_t y) {
                  return llf_key[x] < llf_key[y] ||
                         (llf_key[x] == llf_key[y] && x < y);
                });
    } else {
      std::sort(order.begin(), order.end(),
                [&](std::size_t x, std::size_t y) {
                  const Rat& dx = instance.job(x).deadline;
                  const Rat& dy = instance.job(y).deadline;
                  return dx < dy || (dx == dy && x < y);
                });
    }

    Rat granted(0);
    for (std::size_t j : order) {
      if (!cap.is_positive()) break;
      Rat take = Rat::min(length, remaining[j]);
      take = Rat::min(take, cap);
      if (!take.is_positive()) continue;
      out.chunks.push_back({j, k, take});
      remaining[j] -= take;
      cap -= take;
      granted += take;
    }
    if (granted.is_positive()) {
      out.machines_used =
          std::max(out.machines_used, (granted / length).ceil().to_int64());
    }

    // Retire finished jobs; a job whose window ends here with work left
    // sinks the whole pass.
    std::size_t keep = 0;
    for (std::size_t j : active) {
      if (!remaining[j].is_positive()) continue;
      if (!(b < instance.job(j).deadline)) return out;  // missed deadline
      active[keep++] = j;
    }
    active.resize(keep);
  }
  out.feasible = active.empty();
  return out;
}

// int64 twin of try_pack: same priorities, same tie-breaks, same grant
// rule, with the per-segment cap held in __int128 so budget * length cannot
// overflow. Two structural savings over the Rat pass: the EDF priority
// (deadline, idx) is static, so the active list is KEPT in EDF order --
// newly released jobs merge in and the retirement filter preserves order --
// and no per-segment sort runs at all in EDF mode (LLF keys change with
// `remaining`, so LLF still re-sorts a scratch copy). Grants are recorded
// as raw IChunks and audited as such (audit_chunks_i64).
PackAttempt try_pack_i64(const std::vector<std::int64_t>& release,
                         const std::vector<std::int64_t>& deadline,
                         const std::vector<std::int64_t>& processing,
                         const std::vector<std::int64_t>& points,
                         std::int64_t budget, bool llf) {
  PackAttempt out;
  const std::size_t n = release.size();
  std::vector<std::int64_t> remaining = processing;

  std::vector<std::size_t> by_release(n);
  std::iota(by_release.begin(), by_release.end(), 0);
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t x, std::size_t y) {
              return release[x] < release[y] ||
                     (release[x] == release[y] && x < y);
            });
  auto edf_before = [&](std::size_t x, std::size_t y) {
    return deadline[x] < deadline[y] || (deadline[x] == deadline[y] && x < y);
  };

  std::vector<std::size_t> active;    // EDF-ordered: released, unfinished
  std::vector<std::size_t> incoming;  // releases gathered this segment
  std::vector<std::size_t> order;     // LLF scratch
  std::vector<std::int64_t> llf_key(llf ? n : 0);
  active.reserve(n);
  incoming.reserve(n);
  order.reserve(llf ? n : 0);
  std::size_t next_release = 0;

  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    const std::int64_t a = points[k];
    const std::int64_t b = points[k + 1];
    incoming.clear();
    while (next_release < n && release[by_release[next_release]] <= a) {
      incoming.push_back(by_release[next_release]);
      ++next_release;
    }
    if (!incoming.empty()) {
      std::sort(incoming.begin(), incoming.end(), edf_before);
      const std::size_t old_size = active.size();
      active.insert(active.end(), incoming.begin(), incoming.end());
      std::inplace_merge(active.begin(),
                         active.begin() + static_cast<std::ptrdiff_t>(old_size),
                         active.end(), edf_before);
    }
    if (active.empty()) continue;

    const std::int64_t length = b - a;
    __int128 cap = static_cast<__int128>(budget) * length;
    const std::vector<std::size_t>* priority = &active;
    if (llf) {
      for (std::size_t j : active) llf_key[j] = deadline[j] - remaining[j];
      order.assign(active.begin(), active.end());
      std::sort(order.begin(), order.end(),
                [&](std::size_t x, std::size_t y) {
                  return llf_key[x] < llf_key[y] ||
                         (llf_key[x] == llf_key[y] && x < y);
                });
      priority = &order;
    }

    __int128 granted = 0;
    for (std::size_t j : *priority) {
      if (cap <= 0) break;
      std::int64_t take = std::min(length, remaining[j]);
      if (cap < take) take = static_cast<std::int64_t>(cap);
      if (take <= 0) continue;
      out.ichunks.push_back({j, k, take});
      remaining[j] -= take;
      cap -= take;
      granted += take;
    }
    if (granted > 0) {
      out.machines_used = std::max<std::int64_t>(
          out.machines_used,
          static_cast<std::int64_t>((granted + length - 1) / length));
    }

    // Retire finished jobs; a job whose window ends here with work left
    // sinks the whole pass. The filter is stable, so EDF order survives.
    std::size_t keep = 0;
    for (std::size_t j : active) {
      if (remaining[j] <= 0) continue;
      if (b >= deadline[j]) return out;  // missed deadline
      active[keep++] = j;
    }
    active.resize(keep);
  }
  out.feasible = active.empty();
  return out;
}

// Direct certificate audit of an int64 fluid attempt: verifies the
// McNaughton realizability conditions on the chunks themselves. When they
// hold, the wrap-around rule realizes the chunks as a feasible schedule on
// machines_used machines, and validate() on that schedule would re-derive
// exactly these facts -- so the audit is equivalent to realize+validate,
// minus the Rat schedule construction.
bool audit_chunks_i64(const std::vector<std::int64_t>& release,
                      const std::vector<std::int64_t>& deadline,
                      const std::vector<std::int64_t>& processing,
                      const std::vector<std::int64_t>& points,
                      const PackAttempt& attempt) {
  if (attempt.machines_used < 1) return false;
  std::vector<__int128> granted(release.size(), 0);
  std::size_t i = 0;
  while (i < attempt.ichunks.size()) {
    const std::size_t k = attempt.ichunks[i].segment;
    if (k + 1 >= points.size()) return false;
    const std::int64_t length = points[k + 1] - points[k];
    __int128 segment_total = 0;
    for (; i < attempt.ichunks.size() && attempt.ichunks[i].segment == k;
         ++i) {
      const IChunk& chunk = attempt.ichunks[i];
      if (chunk.job >= release.size()) return false;
      if (chunk.amount <= 0 || chunk.amount > length) return false;
      if (points[k] < release[chunk.job] ||
          points[k + 1] > deadline[chunk.job])
        return false;
      granted[chunk.job] += chunk.amount;
      segment_total += chunk.amount;
    }
    if (segment_total > static_cast<__int128>(attempt.machines_used) * length)
      return false;
  }
  for (std::size_t j = 0; j < release.size(); ++j)
    if (granted[j] != processing[j]) return false;
  return true;
}

// Realizes a successful fluid pass as a concrete schedule: McNaughton's
// wrap-around rule within each segment (each chunk is at most the segment
// length, so a chunk split at a machine boundary never overlaps itself).
Schedule realize(const std::vector<Rat>& points, const PackAttempt& attempt) {
  Schedule schedule(static_cast<std::size_t>(attempt.machines_used));
  std::size_t chunk = 0;
  while (chunk < attempt.chunks.size()) {
    const std::size_t k = attempt.chunks[chunk].segment;
    const Rat& seg_start = points[k];
    const Rat& seg_end = points[k + 1];
    std::size_t machine = 0;
    Rat cursor = seg_start;
    // chunks are appended in segment order, so each segment is one run.
    for (; chunk < attempt.chunks.size() && attempt.chunks[chunk].segment == k;
         ++chunk) {
      Rat left = attempt.chunks[chunk].amount;
      while (left.is_positive()) {
        Rat available = seg_end - cursor;
        if (!available.is_positive()) {
          ++machine;
          cursor = seg_start;
          available = seg_end - seg_start;
        }
        const Rat piece = Rat::min(left, available);
        schedule.add_slot(machine, cursor, cursor + piece,
                          static_cast<JobId>(attempt.chunks[chunk].job));
        cursor += piece;
        left -= piece;
      }
    }
  }
  schedule.canonicalize();
  return schedule;
}

// The budget search both entries share: `pass(m, llf)` runs one packing
// pass at budget m, and the winning pass certifies only if `audit`
// accepts it.
template <typename Pass, typename Audit>
PackUbResult pack_search(std::int64_t n, std::int64_t start, Pass pass,
                         Audit audit) {
  PackUbResult out;
  out.machines = n;  // one job per machine: always feasible when well-formed
  int budget = 2 * std::bit_width(static_cast<std::uint64_t>(n)) + 6;

  std::int64_t best = n;
  PackWitness best_witness = PackWitness::kSingleton;
  PackAttempt best_attempt;
  auto attempt = [&](std::int64_t m, bool llf) {
    ++out.attempts;
    --budget;
    PackAttempt result = pass(m, llf);
    if (result.feasible && result.machines_used < best) {
      best = std::max<std::int64_t>(1, result.machines_used);
      best_witness = llf ? PackWitness::kLlf : PackWitness::kEdf;
      best_attempt = std::move(result);
    }
    return result.feasible;
  };

  // Gallop the budget up from `start` (EDF, with one LLF retry at the
  // opening budget) until a pass succeeds; n always does.
  start = std::clamp<std::int64_t>(start, 1, n);
  std::int64_t m = start;
  bool success = false;
  while (budget > 0) {
    if (attempt(m, /*llf=*/false)) {
      success = true;
      break;
    }
    if (m == start && budget > 0 && attempt(m, /*llf=*/true)) {
      success = true;
      break;
    }
    if (m >= n) break;
    m = std::min(n, 2 * m);
  }

  // Binary-refine the witness toward `start` within the remaining budget.
  if (success) {
    std::int64_t floor = start;
    while (budget > 0 && floor < best) {
      const std::int64_t mid = floor + (best - floor) / 2;
      if (mid >= best) break;
      bool ok = attempt(mid, /*llf=*/false);
      if (!ok && budget > 0) ok = attempt(mid, /*llf=*/true);
      if (!ok) floor = mid + 1;
      // on success `best` (and the witness) were updated inside attempt().
    }
  }

  if (best_witness != PackWitness::kSingleton) {
    // An audit rejection (impossible by construction, kept as defense in
    // depth) falls back to the trivial certificate instead of lying.
    obs::ProfileSpan audit_span("pack_audit");
    if (audit(best_attempt)) {
      out.machines = best;
      out.witness = best_witness;
      out.validated = true;
    }
  }
  obs::Registry::global().counter("bounds.pack_attempts").add(out.attempts);
  return out;
}

}  // namespace

PackUbResult pack_upper_bound(const Instance& instance, std::int64_t start) {
  PackUbResult out;
  if (instance.empty()) return out;
  out.machines = static_cast<std::int64_t>(instance.size());
  if (!instance.well_formed()) return out;
  obs::ProfileSpan span("bound_ub_pack");
  const std::vector<Rat> points = instance.event_points();
  return pack_search(
      out.machines, start,
      [&](std::int64_t m, bool llf) {
        return try_pack(instance, points, m, llf);
      },
      [&](const PackAttempt& attempt) {
        return validate(instance, realize(points, attempt)).ok;
      });
}

PackUbResult pack_upper_bound(const std::vector<std::int64_t>& release,
                              const std::vector<std::int64_t>& deadline,
                              const std::vector<std::int64_t>& processing,
                              const std::vector<std::int64_t>& points,
                              std::int64_t start) {
  if (release.empty()) return PackUbResult{};
  obs::ProfileSpan span("bound_ub_pack");
  return pack_search(
      static_cast<std::int64_t>(release.size()), start,
      [&](std::int64_t m, bool llf) {
        return try_pack_i64(release, deadline, processing, points, m, llf);
      },
      [&](const PackAttempt& attempt) {
        return audit_chunks_i64(release, deadline, processing, points,
                                attempt);
      });
}

}  // namespace minmach
