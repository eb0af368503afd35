// Deterministic work-stealing parallel map, shared by the sweep benches and
// the session engine (svc/). Extracted from bench_common.hpp so library
// code can shard work without depending on the driver scaffolding; the
// bench namespace keeps aliases for its existing call sites.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "minmach/obs/metrics.hpp"

namespace minmach::util {

// Resolves a requested worker count: <= 0 means "all cores", clamped at
// std::thread::hardware_concurrency() so the default never oversubscribes,
// and there is never a point in more workers than tasks. An explicit
// positive request is honoured as-is (the determinism harness deliberately
// oversubscribes small boxes to shake out ordering bugs).
inline std::size_t resolve_threads(std::int64_t requested,
                                   std::size_t task_count) {
  std::size_t threads = requested > 0
                            ? static_cast<std::size_t>(requested)
                            : std::max(1u, std::thread::hardware_concurrency());
  return std::min(threads, std::max<std::size_t>(1, task_count));
}

// Per-worker execution statistics from one parallel_map_scheduled call.
// Diagnostic only: wall-clock and steal counts depend on OS scheduling and
// must never feed a run report (see bench::Run's determinism note).
struct WorkerLoad {
  std::uint64_t tasks = 0;   // tasks this worker executed
  std::uint64_t steals = 0;  // ranges it stole from a victim
  double busy_ms = 0.0;      // wall time spent inside task bodies
};
struct ScheduleStats {
  std::vector<WorkerLoad> workers;

  [[nodiscard]] std::uint64_t total_steals() const {
    std::uint64_t total = 0;
    for (const WorkerLoad& w : workers) total += w.steals;
    return total;
  }
  // Largest fraction of total busy time spent on one worker: 1/threads is
  // perfect balance, 1.0 is total skew (one worker did everything).
  [[nodiscard]] double max_busy_share() const {
    double total = 0.0, worst = 0.0;
    for (const WorkerLoad& w : workers) {
      total += w.busy_ms;
      worst = std::max(worst, w.busy_ms);
    }
    return total > 0.0 ? worst / total : 0.0;
  }
};

namespace detail {
// One worker's slice of the task index space. lo/hi are guarded by mutex;
// the owner pops from the front, thieves take from the back, so the two
// rarely collide on the same cache line's worth of indices.
struct StealRange {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::mutex mutex;
};
}  // namespace detail

// Runs fn(0), ..., fn(task_count - 1) on `threads` workers and returns the
// results ordered by task index. Determinism contract: each task must be
// self-contained (seed its own Rng, no shared mutable state), so the result
// vector -- and therefore any table printed from it in index order -- is
// byte-identical regardless of thread count. The scheduler
// only decides WHICH worker runs a task, never what the task computes, and
// every result is written to its original index; per-thread obs tallies are
// drained before each worker exits, so merged metric totals are identical
// too (DESIGN.md §10 has the full argument). Exceptions are captured per
// task and the first one (in task order) is rethrown on the caller's
// thread; a throwing task still counts as executed, and the remaining tasks
// still run. Tasks must not call require()/std::exit -- return the verdict
// and let the caller aggregate.
//
// Work stealing: each worker starts with a contiguous near-equal range and
// pops from its front. A worker whose range drains scans the others (under
// their locks, victim lock never held while taking its own) and moves the
// back half of the fullest range into its own; when every range is empty it
// exits. Skewed sweeps -- where one range holds all the expensive tasks --
// therefore spread across workers instead of serializing on one.
template <typename Fn>
auto parallel_map_scheduled(std::size_t task_count, std::size_t threads,
                            Fn&& fn, ScheduleStats* stats = nullptr)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  using Clock = std::chrono::steady_clock;
  std::vector<Result> results(task_count);
  std::vector<std::exception_ptr> errors(task_count);
  threads = std::min(std::max<std::size_t>(1, threads),
                     std::max<std::size_t>(1, task_count));
  if (stats) stats->workers.assign(threads, WorkerLoad{});

  auto run_task = [&](std::size_t i, WorkerLoad* load) {
    Clock::time_point start;
    if (load) start = Clock::now();
    try {
      results[i] = fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    if (load) {
      ++load->tasks;
      load->busy_ms +=
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
    }
  };

  if (threads <= 1) {
    WorkerLoad* load = stats ? stats->workers.data() : nullptr;
    for (std::size_t i = 0; i < task_count; ++i) run_task(i, load);
  } else {
    std::vector<detail::StealRange> ranges(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      ranges[w].lo = task_count * w / threads;
      ranges[w].hi = task_count * (w + 1) / threads;
    }
    auto worker = [&](std::size_t self) {
      WorkerLoad* load = stats ? &stats->workers[self] : nullptr;
      detail::StealRange& own = ranges[self];
      while (true) {
        std::size_t task = task_count;  // sentinel: nothing popped
        {
          std::lock_guard<std::mutex> lock(own.mutex);
          if (own.lo < own.hi) task = own.lo++;
        }
        if (task < task_count) {
          run_task(task, load);
          continue;
        }
        // Steal the back half of the first non-empty range in scan order.
        // Taking from the back leaves the victim popping undisturbed at the
        // front, and releasing the victim's lock before touching our own
        // range keeps the locking flat (never two locks held at once -> no
        // deadlock).
        std::size_t got_lo = 0, got_hi = 0, best = 0;
        for (std::size_t offset = 1; offset < threads; ++offset) {
          detail::StealRange& victim = ranges[(self + offset) % threads];
          std::lock_guard<std::mutex> lock(victim.mutex);
          if (victim.hi - victim.lo > best) {
            best = victim.hi - victim.lo;
            got_hi = victim.hi;
            got_lo = victim.hi - (best + 1) / 2;
            victim.hi = got_lo;
            break;  // good enough: first non-empty victim in scan order
          }
        }
        if (got_lo == got_hi) break;  // every range empty: drained
        {
          std::lock_guard<std::mutex> lock(own.mutex);
          own.lo = got_lo;
          own.hi = got_hi;
        }
        if (load) ++load->steals;
      }
      // Fold this worker's thread-local arithmetic tallies into the
      // registry before the thread dies, so a snapshot taken after
      // parallel_map_scheduled returns sees every operation exactly once.
      obs::drain_hot_tallies();
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& t : pool) t.join();
  }
  for (std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

// Work-stealing scheduler, no stats -- the common entry point.
template <typename Fn>
auto parallel_map(std::size_t task_count, std::size_t threads, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  return parallel_map_scheduled(task_count, threads, std::forward<Fn>(fn));
}

}  // namespace minmach::util
