#include "minmach/flow/feasibility.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "minmach/core/contribution.hpp"
#include "minmach/core/grid.hpp"
#include "minmach/core/transforms.hpp"
#include "minmach/core/validate.hpp"
#include "minmach/flow/dinic.hpp"
#include "minmach/gen/generators.hpp"
#include "minmach/util/rng.hpp"
#include "reference_horn.hpp"

namespace minmach {
namespace {

Job mk(std::int64_t r, std::int64_t d, std::int64_t p) {
  return {Rat(r), Rat(d), Rat(p)};
}

TEST(Dinic, KnownSmallGraph) {
  // Classic 4-node diamond: max flow 2 with integer capacities.
  Dinic<long long> g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 3, 1);
  g.add_edge(1, 2, 1);
  EXPECT_EQ(g.max_flow(0, 3), 2);
}

TEST(Dinic, RationalCapacities) {
  Dinic<Rat> g(4);
  auto e1 = g.add_edge(0, 1, Rat(1, 2));
  g.add_edge(0, 2, Rat(1, 3));
  g.add_edge(1, 3, Rat(2));
  g.add_edge(2, 3, Rat(1, 6));
  EXPECT_EQ(g.max_flow(0, 3), Rat(1, 2) + Rat(1, 6));
  EXPECT_EQ(g.flow_on(e1), Rat(1, 2));
}

TEST(Dinic, DisconnectedIsZero) {
  Dinic<Rat> g(3);
  g.add_edge(0, 1, Rat(5));
  EXPECT_EQ(g.max_flow(0, 2), Rat(0));
}

TEST(Dinic, RejectsBadNodes) {
  Dinic<Rat> g(2);
  EXPECT_THROW(g.add_edge(0, 5, Rat(1)), std::out_of_range);
  EXPECT_THROW((void)g.max_flow(1, 1), std::invalid_argument);
}

TEST(Feasibility, SingleMachineExamples) {
  // Two sequential unit jobs on one machine.
  EXPECT_TRUE(feasible_migratory(Instance({mk(0, 1, 1), mk(1, 2, 1)}), 1));
  // Two parallel zero-laxity jobs need two machines.
  Instance parallel({mk(0, 1, 1), mk(0, 1, 1)});
  EXPECT_FALSE(feasible_migratory(parallel, 1));
  EXPECT_TRUE(feasible_migratory(parallel, 2));
  EXPECT_EQ(optimal_migratory_machines(parallel), 2);
}

TEST(Feasibility, MigrationIsRequiredSometimes) {
  // McNaughton-style: 3 jobs of p=2 in windows [0,3): load = 6/3 = 2
  // machines suffice only with migration.
  Instance in({mk(0, 3, 2), mk(0, 3, 2), mk(0, 3, 2)});
  EXPECT_TRUE(feasible_migratory(in, 2));
  EXPECT_FALSE(feasible_migratory(in, 1));
  Schedule s = optimal_migratory_schedule(in, 2);
  auto result = validate(in, s);
  EXPECT_TRUE(result.ok) << result.summary();
  // Some job must migrate in a 2-machine schedule of this instance.
  EXPECT_GE(s.migration_count(), 1u);
}

TEST(Feasibility, EdgeCases) {
  EXPECT_TRUE(feasible_migratory(Instance(), 0));
  EXPECT_EQ(optimal_migratory_machines(Instance()), 0);
  EXPECT_FALSE(feasible_migratory(Instance({mk(0, 1, 1)}), 0));
  // Malformed job: infeasible at any machine count.
  EXPECT_FALSE(feasible_migratory(Instance({mk(0, 1, 2)}), 5));
}

TEST(Feasibility, FractionalTimes) {
  Instance in({{Rat(0), Rat(1, 2), Rat(1, 2)},
               {Rat(1, 4), Rat(3, 4), Rat(1, 4)},
               {Rat(0), Rat(3, 4), Rat(1, 4)}});
  std::int64_t opt = optimal_migratory_machines(in);
  EXPECT_EQ(opt, 2);
  Schedule s = optimal_migratory_schedule(in, opt);
  EXPECT_TRUE(validate(in, s).ok);
}

TEST(Feasibility, ScheduleThrowsWhenInfeasible) {
  Instance parallel({mk(0, 1, 1), mk(0, 1, 1)});
  EXPECT_THROW((void)optimal_migratory_schedule(parallel, 1),
               std::invalid_argument);
}

// ---- Theorem 1 cross-check: flow OPT == exhaustive load bound ----

class Theorem1 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem1, FlowOptEqualsLoadCharacterization) {
  Rng rng(GetParam());
  GenConfig config;
  config.n = 6;  // <= 11 elementary segments -> exhaustive is exact
  config.horizon = 12;
  config.max_window = 8;
  config.denominator = 2;
  for (int iter = 0; iter < 12; ++iter) {
    Instance in = gen_general(rng, config);
    std::int64_t opt = optimal_migratory_machines(in);
    auto bound = load_bound_exhaustive(in, 20);
    ASSERT_TRUE(bound.has_value());
    // Theorem 1: the maximum load over interval unions IS the optimum.
    EXPECT_EQ(bound->machines, opt) << in.to_string();
    // And the single-interval bound is a valid lower bound.
    EXPECT_LE(load_bound_single_interval(in).machines, opt);
  }
}

TEST_P(Theorem1, OptimalScheduleValidatesOnRandomInstances) {
  Rng rng(GetParam() * 31 + 5);
  GenConfig config;
  config.n = 25;
  for (int iter = 0; iter < 5; ++iter) {
    Instance in = gen_general(rng, config);
    std::int64_t opt = optimal_migratory_machines(in);
    ASSERT_GE(opt, 1);
    EXPECT_FALSE(feasible_migratory(in, opt - 1));
    Schedule s = optimal_migratory_schedule(in, opt);
    auto result = validate(in, s);
    EXPECT_TRUE(result.ok) << result.summary();
    EXPECT_LE(s.used_machine_count(), static_cast<std::size_t>(opt));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The integer-grid fast path and the exact rational network must agree.
// Instances with huge prime denominators force the rational fallback; the
// same instances scaled to integers take the fast path.
TEST(Feasibility, FastPathMatchesRationalFallback) {
  Rng rng(77);
  GenConfig config;
  config.n = 20;
  for (int iter = 0; iter < 8; ++iter) {
    Instance fast = gen_general(rng, config);
    // Divide every time by a 45-bit prime: the values are unchanged up to
    // uniform scaling (so OPT is identical), but denominator_lcm() exceeds
    // the fast path's 40-bit guard and the Rat network runs instead.
    const Rat scale(1, 35184372088891ll);  // 45-bit prime
    Instance slow = affine(fast, Rat(0), scale);
    for (std::int64_t m = 1; m <= 4; ++m) {
      EXPECT_EQ(feasible_migratory(fast, m), feasible_migratory(slow, m))
          << "m=" << m << "\n" << fast.to_string();
    }
    EXPECT_EQ(optimal_migratory_machines(fast),
              optimal_migratory_machines(slow));
  }
}

// ---- migratory schedules: grid and Rat instantiations vs a Rat reference
//
// The allocation network and wrap-around layout as they ran on exact
// rationals alone: the dense per-segment Horn network on Dinic<Rat>, then
// McNaughton's rule inside each segment. The library runs one template of
// the same layout on __int128 grid values, or on Rat off the grid; either
// must reproduce this allocation and this schedule exactly.

std::optional<FlowAllocation> reference_allocation(const Instance& instance,
                                                   std::int64_t machines) {
  const std::vector<Rat> points = instance.event_points();
  if (instance.empty()) return FlowAllocation{points, {}};
  if (machines <= 0 || !instance.well_formed()) return std::nullopt;
  const std::size_t n = instance.size();
  const std::size_t segments = points.size() - 1;
  // Node layout: 0 = source, 1..n = jobs, n+1..n+segments = segments, last
  // = sink.
  const std::size_t sink = n + segments + 1;
  Dinic<Rat> graph(n + segments + 2);
  for (std::size_t k = 0; k < segments; ++k)
    graph.add_edge(n + 1 + k, sink,
                   Rat(machines) * (points[k + 1] - points[k]));
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> edges(n);
  Rat total(0);
  for (std::size_t j = 0; j < n; ++j) {
    const Job& job = instance.job(j);
    total += job.processing;
    graph.add_edge(0, 1 + j, job.processing);
    for (std::size_t k = 0; k < segments; ++k) {
      if (job.release <= points[k] && points[k + 1] <= job.deadline)
        edges[j].emplace_back(
            k, graph.add_edge(1 + j, n + 1 + k, points[k + 1] - points[k]));
    }
  }
  if (graph.max_flow(0, sink) != total) return std::nullopt;
  FlowAllocation out{points, std::vector<std::vector<Rat>>(
                                 n, std::vector<Rat>(segments, Rat(0)))};
  for (std::size_t j = 0; j < n; ++j)
    for (const auto& [k, handle] : edges[j])
      out.per_job[j][k] = graph.flow_on(handle);
  return out;
}

Schedule reference_schedule(const Instance& instance, std::int64_t machines) {
  const auto allocation = reference_allocation(instance, machines);
  if (!allocation)
    throw std::invalid_argument("reference_schedule: infeasible");
  Schedule schedule(static_cast<std::size_t>(machines));
  if (instance.empty()) return schedule;
  const std::vector<Rat>& points = allocation->segment_starts;
  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    std::size_t machine = 0;
    Rat cursor = points[k];
    for (std::size_t j = 0; j < instance.size(); ++j) {
      Rat remaining = allocation->per_job[j][k];
      while (remaining.is_positive()) {
        Rat available = points[k + 1] - cursor;
        if (!available.is_positive()) {
          ++machine;
          cursor = points[k];
          available = points[k + 1] - points[k];
        }
        const Rat chunk = Rat::min(remaining, available);
        schedule.add_slot(machine, cursor, cursor + chunk,
                          static_cast<JobId>(j));
        cursor += chunk;
        remaining -= chunk;
      }
    }
  }
  schedule.canonicalize();
  return schedule;
}

void expect_allocations_equal(const std::optional<FlowAllocation>& got,
                              const std::optional<FlowAllocation>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!got) return;
  EXPECT_EQ(got->segment_starts, want->segment_starts);
  EXPECT_EQ(got->per_job, want->per_job);
}

// Checks the instance at m = OPT and OPT + 1 against the reference, and
// that m = OPT - 1 is refused; returns OPT.
std::int64_t expect_schedules_match_reference(const Instance& in) {
  const std::int64_t opt = optimal_migratory_machines(in);
  for (const std::int64_t m : {opt, opt + 1}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    const Schedule schedule = optimal_migratory_schedule(in, m);
    EXPECT_EQ(schedule.to_string(), reference_schedule(in, m).to_string());
    const ValidationResult audit = validate(in, schedule);
    EXPECT_TRUE(audit.ok) << audit.summary();
    EXPECT_LE(schedule.used_machine_count(), static_cast<std::size_t>(m));
    expect_allocations_equal(solve_migratory(in, m),
                             reference_allocation(in, m));
  }
  EXPECT_THROW((void)optimal_migratory_schedule(in, opt - 1),
               std::invalid_argument);
  EXPECT_FALSE(solve_migratory(in, opt - 1).has_value());
  return opt;
}

struct Family {
  const char* name;
  Instance (*generate)(Rng&, const GenConfig&);
};

// Keeps the discovered test names free of pointer bytes.
void PrintTo(const Family& family, std::ostream* os) { *os << family.name; }

// Every gen/ family; the alpha-parameterized ones at alpha = 1/2.
const Family kFamilies[] = {
    {"general", gen_general},
    {"agreeable", gen_agreeable},
    {"laminar", gen_laminar},
    {"loose",
     [](Rng& rng, const GenConfig& c) { return gen_loose(rng, c, Rat(1, 2)); }},
    {"tight",
     [](Rng& rng, const GenConfig& c) { return gen_tight(rng, c, Rat(1, 2)); }},
    {"agreeable_tight",
     [](Rng& rng, const GenConfig& c) {
       return gen_agreeable_tight(rng, c, Rat(1, 2));
     }},
    {"laminar_tight",
     [](Rng& rng, const GenConfig& c) {
       return gen_laminar_tight(rng, c, Rat(1, 2));
     }},
    {"unit", gen_unit},
};

class MigratoryScheduleGrid : public ::testing::TestWithParam<Family> {};

TEST_P(MigratoryScheduleGrid, MatchesRatReference) {
  const Family& family = GetParam();
  std::size_t multi_machine = 0;
  for (const std::int64_t den : {1, 2, 3, 4, 7, 12}) {
    Rng rng(static_cast<std::uint64_t>(den) * 1009 + 3);
    for (const std::size_t n : {10, 25, 40}) {
      SCOPED_TRACE(std::string(family.name) + " 1/" + std::to_string(den) +
                   " n = " + std::to_string(n));
      // Windows crowded enough that OPT is often 2 or more, so the
      // wrap-around spills onto further machines.
      GenConfig config;
      config.n = n;
      config.horizon = static_cast<std::int64_t>(n) / 2;
      config.max_window = 8;
      config.denominator = den;
      const Instance in = family.generate(rng, config);
      ASSERT_TRUE(try_integer_grid(in).usable);
      if (expect_schedules_match_reference(in) >= 2) ++multi_machine;
    }
  }
  EXPECT_GT(multi_machine, 0u);  // m = OPT - 1 reached the network
}

// Two integer instances of the family, one scaled by 1/(2^21 - 1) and one
// by 1/(2^21 + 1), as one: the lcm of the denominators exceeds the grid's
// 40-bit guard, so the Rat instantiation runs.
Instance off_grid(const Family& family, Rng& rng, std::size_t n) {
  std::vector<Job> jobs;
  for (const std::int64_t den :
       {(std::int64_t{1} << 21) - 1, (std::int64_t{1} << 21) + 1}) {
    GenConfig config;
    config.n = n / 2;
    config.horizon = static_cast<std::int64_t>(n) / 2;
    config.max_window = 8;
    config.denominator = 1;
    const Instance part =
        affine(family.generate(rng, config), Rat(0), Rat(1, den));
    jobs.insert(jobs.end(), part.jobs().begin(), part.jobs().end());
  }
  return Instance(std::move(jobs));
}

TEST_P(MigratoryScheduleGrid, OffGridMatchesRatReference) {
  const Family& family = GetParam();
  Rng rng(41);
  std::size_t multi_machine = 0;
  for (const std::size_t n : {8, 16, 24}) {
    SCOPED_TRACE(std::string(family.name) + " n = " + std::to_string(n));
    const Instance in = off_grid(family, rng, n);
    ASSERT_FALSE(try_integer_grid(in).usable);
    if (expect_schedules_match_reference(in) >= 2) ++multi_machine;
  }
  EXPECT_GT(multi_machine, 0u);
}

TEST_P(MigratoryScheduleGrid, SmallInstancesMatchHornOpt) {
  const Family& family = GetParam();
  Rng rng(43);
  for (const std::int64_t den : {1, 2, 3, 4, 7, 12}) {
    SCOPED_TRACE(std::string(family.name) + " 1/" + std::to_string(den));
    GenConfig config;
    config.n = 6;
    config.horizon = 12;
    config.max_window = 8;
    config.denominator = den;
    const Instance in = family.generate(rng, config);
    EXPECT_EQ(expect_schedules_match_reference(in),
              reference::horn_optimal_machines(in));
  }
  const Instance in = off_grid(family, rng, 6);
  EXPECT_EQ(expect_schedules_match_reference(in),
            reference::horn_optimal_machines(in));
}

INSTANTIATE_TEST_SUITE_P(
    Families, MigratoryScheduleGrid, ::testing::ValuesIn(kFamilies),
    [](const ::testing::TestParamInfo<Family>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace minmach
