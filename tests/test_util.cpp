// Tests for the small utility substrates: the CLI flag parser, the table
// printer, and the seeded RNG (determinism + coarse uniformity, plus the
// rejection-sampling range contract that the generators rely on).
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "minmach/util/cli.hpp"
#include "minmach/util/rng.hpp"
#include "minmach/util/table.hpp"

namespace minmach {
namespace {

// ---- Cli ----

Cli make_cli(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  static std::vector<char*> argv;
  argv.clear();
  for (auto& s : storage) argv.push_back(s.data());
  return {static_cast<int>(argv.size()), argv.data()};
}

TEST(Cli, ParsesTypedFlags) {
  Cli cli = make_cli({"--n=42", "--ratio=2.5", "--name=alpha", "--fast",
                      "--off=false"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 2.5);
  EXPECT_EQ(cli.get_string("name", ""), "alpha");
  EXPECT_TRUE(cli.get_bool("fast", false));  // bare flag means "1"
  EXPECT_FALSE(cli.get_bool("off", true));
  EXPECT_NO_THROW(cli.check_unknown());
}

TEST(Cli, DefaultsWhenAbsent) {
  Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_string("s", "d"), "d");
  EXPECT_TRUE(cli.get_bool("b", true));
}

TEST(Cli, RejectsUnknownAndMalformed) {
  Cli cli = make_cli({"--typo=1"});
  (void)cli.get_int("n", 0);  // never reads --typo
  EXPECT_THROW(cli.check_unknown(), std::invalid_argument);
  EXPECT_THROW(make_cli({"positional"}), std::invalid_argument);
}

// Runs `read` and expects a std::invalid_argument whose message names the
// flag.
template <typename Read>
void expect_refused(Read read, const std::string& flag) {
  try {
    read();
    ADD_FAILURE() << flag << " was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find(flag), std::string::npos)
        << error.what();
  }
}

TEST(Cli, IntMustSpanTheWholeToken) {
  Cli cli = make_cli({"--trials=2x", "--seed=", "--big=99999999999999999999",
                      "--space=4 ", "--neg=-3"});
  expect_refused([&] { (void)cli.get_int("trials", 0); }, "--trials");
  expect_refused([&] { (void)cli.get_int("seed", 0); }, "--seed");
  expect_refused([&] { (void)cli.get_int("big", 0); }, "--big");
  expect_refused([&] { (void)cli.get_int("space", 0); }, "--space");
  EXPECT_EQ(cli.get_int("neg", 0), -3);  // the caller decides the range
}

TEST(Cli, DoubleMustSpanTheWholeToken) {
  Cli cli = make_cli({"--ratio=2.5x", "--alpha=", "--huge=1e999",
                      "--exp=1e-3"});
  expect_refused([&] { (void)cli.get_double("ratio", 0.0); }, "--ratio");
  expect_refused([&] { (void)cli.get_double("alpha", 0.0); }, "--alpha");
  expect_refused([&] { (void)cli.get_double("huge", 0.0); }, "--huge");
  EXPECT_DOUBLE_EQ(cli.get_double("exp", 0.0), 1e-3);
}

TEST(Cli, OnlyBoolAcceptsABareFlag) {
  Cli cli = make_cli({"--report", "--trials", "--ratio", "--verbose"});
  expect_refused([&] { (void)cli.get_string("report", ""); }, "--report");
  expect_refused([&] { (void)cli.get_int("trials", 1); }, "--trials");
  expect_refused([&] { (void)cli.get_double("ratio", 1.0); }, "--ratio");
  EXPECT_TRUE(cli.get_bool("verbose", false));
  // A value after a space names the flag it was meant for.
  expect_refused([] { (void)make_cli({"--levels", "3"}); }, "--levels");
  EXPECT_THROW((void)make_cli({"--levels", "3"}), CliError);
}

TEST(Cli, EmptyValueIsNotABareFlag) {
  Cli cli = make_cli({"--out="});
  EXPECT_EQ(cli.get_string("out", "default"), "");
  EXPECT_TRUE(cli.was_given("out"));
  EXPECT_NO_THROW(cli.check_unknown());
}

// ---- Table ----

TEST(Table, AlignsColumns) {
  Table table({"a", "long header"});
  table.add_row({"xxxxx", "1"});
  table.add_row({"y", "22"});
  std::ostringstream out;
  table.print(out);
  std::string text = out.str();
  EXPECT_NE(text.find("| a     | long header |"), std::string::npos) << text;
  EXPECT_NE(text.find("| xxxxx | 1           |"), std::string::npos) << text;
  EXPECT_NE(text.find("|-------|-------------|"), std::string::npos) << text;
}

TEST(Table, RejectsRaggedRows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
}

TEST(Table, FormatsDoubles) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt(-0.5, 3), "-0.500");
}

// ---- Rng ----

TEST(Rng, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool all_equal = true;
  bool any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t xa = a.next_u64();
    if (xa != b.next_u64()) all_equal = false;
    if (xa != c.next_u64()) any_diff_seed_diff = true;
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Rng, UniformIntStaysInRangeIncludingEdges) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  // Degenerate range.
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(10);
  int counts[4] = {0, 0, 0, 0};
  const int trials = 40000;
  for (int i = 0; i < trials; ++i)
    ++counts[rng.uniform_int(0, 3)];
  for (int bucket : counts) {
    EXPECT_GT(bucket, trials / 4 - trials / 20);
    EXPECT_LT(bucket, trials / 4 + trials / 20);
  }
}

TEST(Rng, UniformRatOnGrid) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    Rat v = rng.uniform_rat(1, 3, 8);
    EXPECT_GE(v, Rat(1));
    EXPECT_LE(v, Rat(3));
    EXPECT_TRUE((v * Rat(8)).is_integer());
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  auto sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, values);
}

}  // namespace
}  // namespace minmach
