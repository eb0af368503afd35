// Tests for the deterministic parallel-map used by the sweep drivers: the
// result order is the task-index order regardless of thread count, and
// exceptions propagate to the caller. The end-to-end determinism check (a
// whole driver byte-identical at --threads=1 and --threads=4) runs as a
// separate ctest, see check_driver_determinism.cmake.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"

namespace minmach {
namespace {

TEST(ParallelMap, ResultsOrderedByTaskIndexAcrossThreadCounts) {
  auto task = [](std::size_t i) {
    // Stagger finish times so completion order differs from task order.
    std::this_thread::sleep_for(std::chrono::microseconds((37 - i) % 40));
    return static_cast<int>(i * i);
  };
  auto sequential = bench::parallel_map(32, 1, task);
  for (std::size_t threads : {2u, 4u, 8u}) {
    auto parallel = bench::parallel_map(32, threads, task);
    EXPECT_EQ(parallel, sequential) << "threads=" << threads;
  }
  ASSERT_EQ(sequential.size(), 32u);
  EXPECT_EQ(sequential[7], 49);
}

TEST(ParallelMap, EveryTaskRunsExactlyOnce) {
  std::vector<std::atomic<int>> counts(100);
  bench::parallel_map(100, 4, [&](std::size_t i) {
    counts[i].fetch_add(1);
    return 0;
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelMap, FirstExceptionInTaskOrderPropagates) {
  auto run = [](std::size_t threads) {
    bench::parallel_map(16, threads, [](std::size_t i) -> int {
      if (i == 5 || i == 11)
        throw std::runtime_error("task " + std::to_string(i));
      return static_cast<int>(i);
    });
  };
  for (std::size_t threads : {1u, 4u}) {
    try {
      run(threads);
      FAIL() << "expected exception at threads=" << threads;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 5") << "threads=" << threads;
    }
  }
}

TEST(ParallelMap, EmptyAndSingleTaskEdgeCases) {
  auto none = bench::parallel_map(0, 4, [](std::size_t) { return 1; });
  EXPECT_TRUE(none.empty());
  auto one = bench::parallel_map(1, 4, [](std::size_t i) { return i + 10; });
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 10u);
}

TEST(ParallelMap, ResolveThreadsCapsAtTaskCount) {
  EXPECT_EQ(bench::resolve_threads(3, 10), 3u);
  EXPECT_EQ(bench::resolve_threads(8, 2), 2u);
  EXPECT_EQ(bench::resolve_threads(5, 0), 1u);
  EXPECT_GE(bench::resolve_threads(0, 10), 1u);   // "all cores", capped
  EXPECT_LE(bench::resolve_threads(0, 10), 10u);
  EXPECT_LE(bench::resolve_threads(-1, 4), 4u);
}

TEST(ParallelMap, DefaultThreadsClampAtHardwareConcurrency) {
  // <= 0 means "all cores": never more workers than the machine has (and
  // never zero, even if hardware_concurrency() reports 0).
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(bench::resolve_threads(-1, 1000), cores);
  EXPECT_EQ(bench::resolve_threads(0, 1000), cores);
  // An explicit positive request is honoured even when it oversubscribes
  // (the determinism harness relies on that to shake out ordering bugs).
  EXPECT_EQ(bench::resolve_threads(static_cast<std::int64_t>(cores) + 7, 1000),
            cores + 7);
}

TEST(ParallelMap, StealingMatchesSerialAtEveryThreadCount) {
  // The scheduler only decides WHICH worker runs a task; results land at
  // their original index either way, so any thread count must agree
  // byte-for-byte with the serial run.
  auto task = [](std::size_t i) {
    // Skew: the first quarter of the index space is ~50x heavier, so
    // worker 0's initial range holds almost all the work.
    std::size_t rounds = (i < 8) ? 5000 : 100;
    std::uint64_t acc = i;
    for (std::size_t k = 0; k < rounds; ++k) acc = acc * 6364136223846793005ull + 1442695040888963407ull;
    return acc;
  };
  auto serial = bench::parallel_map_scheduled(32, 1, task);
  for (std::size_t threads : {2u, 4u}) {
    bench::ScheduleStats stats;
    auto stolen = bench::parallel_map_scheduled(32, threads, task, &stats);
    EXPECT_EQ(stolen, serial) << "threads=" << threads;
    // Every task ran exactly once, whatever the stealing did.
    std::uint64_t tasks = 0;
    for (const bench::WorkerLoad& w : stats.workers) tasks += w.tasks;
    EXPECT_EQ(tasks, 32u);
  }
}

TEST(ParallelMap, ScheduleStatsAccountForEveryWorker) {
  bench::ScheduleStats stats;
  auto out = bench::parallel_map_scheduled(
      20, 4, [](std::size_t i) { return i; }, &stats);
  ASSERT_EQ(out.size(), 20u);
  ASSERT_EQ(stats.workers.size(), 4u);
  std::uint64_t total = 0;
  for (const bench::WorkerLoad& w : stats.workers) total += w.tasks;
  EXPECT_EQ(total, 20u);
  // max_busy_share is a fraction of the total busy time.
  EXPECT_GE(stats.max_busy_share(), 0.0);
  EXPECT_LE(stats.max_busy_share(), 1.0);
  // Single-threaded runs fill exactly one worker slot.
  bench::ScheduleStats solo;
  (void)bench::parallel_map_scheduled(
      5, 1, [](std::size_t i) { return i; }, &solo);
  ASSERT_EQ(solo.workers.size(), 1u);
  EXPECT_EQ(solo.workers[0].tasks, 5u);
  EXPECT_EQ(solo.total_steals(), 0u);
}

}  // namespace
}  // namespace minmach
