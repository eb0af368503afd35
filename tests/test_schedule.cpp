#include "minmach/core/schedule.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

TEST(Schedule, AddAndCanonicalize) {
  Schedule s;
  s.add_slot(0, Rat(2), Rat(3), 7);
  s.add_slot(0, Rat(0), Rat(1), 7);
  s.add_slot(0, Rat(1), Rat(2), 7);  // three touching slots of one job
  s.add_slot(2, Rat(0), Rat(1), 8);  // grows machine list
  s.canonicalize();
  EXPECT_EQ(s.machine_count(), 3u);
  EXPECT_EQ(s.used_machine_count(), 2u);
  ASSERT_EQ(s.slots(0).size(), 1u);  // merged
  EXPECT_EQ(s.slots(0)[0].start, Rat(0));
  EXPECT_EQ(s.slots(0)[0].end, Rat(3));
  EXPECT_TRUE(s.slots(1).empty());
}

TEST(Schedule, EmptySlotsDropped) {
  Schedule s;
  s.add_slot(0, Rat(1), Rat(1), 0);
  s.add_slot(0, Rat(2), Rat(1), 0);
  EXPECT_EQ(s.total_slots(), 0u);
  EXPECT_EQ(s.used_machine_count(), 0u);
}

TEST(Schedule, CanonicalizeRejectsOverlap) {
  Schedule s;
  s.add_slot(0, Rat(0), Rat(2), 0);
  s.add_slot(0, Rat(1), Rat(3), 1);
  EXPECT_THROW(s.canonicalize(), std::logic_error);
}

TEST(Schedule, WorkQueries) {
  Schedule s;
  s.add_slot(0, Rat(0), Rat(2), 5);
  s.add_slot(1, Rat(3), Rat(4), 5);
  s.add_slot(0, Rat(2), Rat(3), 6);
  s.canonicalize();
  EXPECT_EQ(s.work_of(5), Rat(3));
  EXPECT_EQ(s.work_of(6), Rat(1));
  EXPECT_EQ(s.work_of(99), Rat(0));
  EXPECT_EQ(s.work_of_before(5, Rat(1)), Rat(1));
  EXPECT_EQ(s.work_of_before(5, Rat(7, 2)), Rat(5, 2));
  EXPECT_EQ(s.work_of_before(5, Rat(0)), Rat(0));
}

TEST(Schedule, MigrationAndPreemptionCounts) {
  Schedule s;
  // Job 0: machine 0 then machine 1 (1 migration, 1 preemption gap).
  s.add_slot(0, Rat(0), Rat(1), 0);
  s.add_slot(1, Rat(2), Rat(3), 0);
  // Job 1: contiguous on one machine.
  s.add_slot(1, Rat(0), Rat(2), 1);
  s.canonicalize();
  EXPECT_EQ(s.migration_count(), 1u);
  EXPECT_EQ(s.preemption_count(), 1u);
  EXPECT_EQ(s.machines_of(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(s.machines_of(1), (std::vector<std::size_t>{1}));
}

TEST(Schedule, PreemptionAcrossMachinesWithoutGapIsNotCounted) {
  Schedule s;
  // Job 0 switches machine back-to-back: a migration, not a preemption gap.
  s.add_slot(0, Rat(0), Rat(1), 0);
  s.add_slot(1, Rat(1), Rat(2), 0);
  s.canonicalize();
  EXPECT_EQ(s.migration_count(), 1u);
  EXPECT_EQ(s.preemption_count(), 0u);
}

TEST(Schedule, RemapAndAppend) {
  Schedule a;
  a.add_slot(0, Rat(0), Rat(1), 0);
  Schedule b;
  b.add_slot(0, Rat(0), Rat(1), 0);
  b.add_slot(1, Rat(1), Rat(2), 1);
  b.remap_jobs({5, 7});
  EXPECT_EQ(b.slots(0)[0].job, 5u);
  EXPECT_EQ(b.slots(1)[0].job, 7u);
  a.append_machines(b);
  EXPECT_EQ(a.machine_count(), 3u);
  EXPECT_EQ(a.slots(1)[0].job, 5u);
  EXPECT_THROW(b.remap_jobs({1}), std::out_of_range);
}

// ---- canonicalize() is independent of arrival order ----
//
// canonicalize() skips its sort on machines whose slots already arrive in
// start order. Whatever the order, the result must be the same merged
// slots, or the same overlap error.

// Machine 0 gets `slots` in the given order, machine 1 the same slots in
// reverse. The canonical text, or std::nullopt if canonicalize() threw.
std::optional<std::string> canonical(const std::vector<Slot>& slots) {
  Schedule s;
  for (const Slot& slot : slots) s.add_slot(0, slot.start, slot.end, slot.job);
  for (auto it = slots.rbegin(); it != slots.rend(); ++it)
    s.add_slot(1, it->start, it->end, it->job);
  try {
    s.canonicalize();
  } catch (const std::logic_error&) {
    return std::nullopt;
  }
  return s.to_string();
}

// A few slots of three jobs in start order; neighbours touch or leave a
// gap of 1/2, so same-job neighbours exercise the merge.
std::vector<Slot> sorted_slots(Rng& rng) {
  std::vector<Slot> slots;
  Rat t = rng.uniform_rat(0, 2, 2);
  const std::int64_t count = rng.uniform_int(1, 9);
  for (std::int64_t i = 0; i < count; ++i) {
    const Rat end = t + rng.uniform_rat(1, 2, 2);
    slots.push_back({t, end, static_cast<JobId>(rng.uniform_int(0, 2))});
    t = end + Rat(rng.uniform_int(0, 1), 2);
  }
  return slots;
}

TEST(Schedule, CanonicalizeSortedOrShuffledAgree) {
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Slot> slots = sorted_slots(rng);
    const std::optional<std::string> expected = canonical(slots);
    ASSERT_TRUE(expected.has_value());
    for (int round = 0; round < 4; ++round) {
      rng.shuffle(slots);
      EXPECT_EQ(canonical(slots), expected);
    }
  }
}

TEST(Schedule, CanonicalizeOverlapThrowsInAnyOrder) {
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Slot> slots = sorted_slots(rng);
    if (slots.size() < 2) continue;
    // Start one slot at, or strictly inside, its predecessor. The list
    // stays in start order (ties included), so the sort is skipped.
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(slots.size()) - 1));
    const Slot& before = slots[i - 1];
    slots[i].start = rng.bernoulli(0.5)
                         ? before.start
                         : (before.start + before.end) / Rat(2);
    EXPECT_EQ(canonical(slots), std::nullopt);
    for (int round = 0; round < 4; ++round) {
      rng.shuffle(slots);
      EXPECT_EQ(canonical(slots), std::nullopt);
    }
  }
}

}  // namespace
}  // namespace minmach
