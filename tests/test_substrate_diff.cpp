// Differential tests for the two-tier arithmetic substrate: every result of
// the int64 fast paths must agree with the limb slow path (forced via
// debug_force_promote), and the canonical-form invariant must hold -- a
// result lives in the small tier exactly when its value fits int64.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "minmach/util/bigint.hpp"
#include "minmach/util/rational.hpp"
#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

using I128 = __int128;

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

bool fits_i64(I128 value) {
  return value >= static_cast<I128>(kMin) && value <= static_cast<I128>(kMax);
}

BigInt promoted(std::int64_t value) {
  BigInt out(value);
  out.debug_force_promote();
  return out;
}

// Operand pools covering the small range, the promotion boundary, and the
// INT64_MIN trap.
std::vector<std::int64_t> interesting_values(Rng& rng) {
  std::vector<std::int64_t> values = {0,       1,        -1,       2,
                                      -2,      63,       -63,      kMax,
                                      kMax - 1, kMin,    kMin + 1, kMax / 2,
                                      kMin / 2, 1ll << 31, -(1ll << 31)};
  for (int i = 0; i < 40; ++i) {
    values.push_back(rng.uniform_int(-1000, 1000));
    values.push_back(rng.uniform_int(kMin / 2, kMax / 2));
    // Values straddling the promotion boundary.
    values.push_back(kMax - rng.uniform_int(0, 3));
    values.push_back(kMin + rng.uniform_int(0, 3));
  }
  return values;
}

TEST(SubstrateDiff, BigIntFastPathMatchesForcedSlowPath) {
  Rng rng(2024);
  auto values = interesting_values(rng);
  for (std::int64_t a : values) {
    for (std::int64_t b : {values[rng.uniform_int(
             0, static_cast<std::int64_t>(values.size()) - 1)],
                           values[rng.uniform_int(
                               0, static_cast<std::int64_t>(values.size()) -
                                      1)]}) {
      BigInt fa(a);
      BigInt fb(b);
      BigInt pa = promoted(a);
      BigInt pb = promoted(b);
      // Mixed representations must agree too (small op promoted etc.).
      EXPECT_EQ(fa + fb, pa + pb) << a << " + " << b;
      EXPECT_EQ(fa + fb, fa + pb) << a << " + " << b;
      EXPECT_EQ(fa - fb, pa - pb) << a << " - " << b;
      EXPECT_EQ(fa - fb, pa - fb) << a << " - " << b;
      EXPECT_EQ(fa * fb, pa * pb) << a << " * " << b;
      EXPECT_EQ(fa * fb, fb * pa) << a << " * " << b;
      if (b != 0) {
        auto fast = BigInt::div_mod(fa, fb);
        auto slow = BigInt::div_mod(pa, pb);
        EXPECT_EQ(fast.quotient, slow.quotient) << a << " / " << b;
        EXPECT_EQ(fast.remainder, slow.remainder) << a << " % " << b;
        EXPECT_EQ(fast.quotient * fb + fast.remainder, fa) << a << " /% " << b;
      }
      EXPECT_EQ(BigInt::gcd(fa, fb), BigInt::gcd(pa, pb))
          << "gcd(" << a << ", " << b << ")";
      EXPECT_EQ(fa <=> fb, pa <=> pb) << a << " <=> " << b;
      EXPECT_EQ(fa == fb, pa == fb) << a << " == " << b;
    }
  }
}

TEST(SubstrateDiff, PromotionFiresExactlyOnInt64Overflow) {
  Rng rng(2025);
  auto values = interesting_values(rng);
  for (std::int64_t a : values) {
    for (std::int64_t b : values) {
      const BigInt sum = BigInt(a) + BigInt(b);
      EXPECT_EQ(sum.is_small(),
                fits_i64(static_cast<I128>(a) + static_cast<I128>(b)))
          << a << " + " << b;
      const BigInt diff = BigInt(a) - BigInt(b);
      EXPECT_EQ(diff.is_small(),
                fits_i64(static_cast<I128>(a) - static_cast<I128>(b)))
          << a << " - " << b;
      const BigInt product = BigInt(a) * BigInt(b);
      EXPECT_EQ(product.is_small(),
                fits_i64(static_cast<I128>(a) * static_cast<I128>(b)))
          << a << " * " << b;
    }
  }
}

// Results computed in the limb tier must demote back to the small tier the
// moment the value fits again (canonical form), so representation equality
// stays value equality.
TEST(SubstrateDiff, SlowPathResultsDemoteToCanonicalForm) {
  BigInt big = BigInt(kMax) + BigInt(kMax);  // promoted
  ASSERT_FALSE(big.is_small());
  BigInt back = big - BigInt(kMax);
  EXPECT_TRUE(back.is_small());
  EXPECT_EQ(back.to_int64(), kMax);

  BigInt product = BigInt(1ll << 40) * BigInt(1ll << 40);  // 2^80, promoted
  ASSERT_FALSE(product.is_small());
  BigInt quotient = product / BigInt(1ll << 40);
  EXPECT_TRUE(quotient.is_small());
  EXPECT_EQ(quotient.to_int64(), 1ll << 40);

  // A promoted zero (non-canonical input) still compares equal to zero.
  BigInt zero = promoted(0);
  EXPECT_EQ(zero, BigInt(0));
  EXPECT_TRUE(zero.is_zero());
}

Rat reference_add(std::int64_t a, std::int64_t b, std::int64_t c,
                  std::int64_t d) {
  // Independent route: textbook cross-sum over force-promoted BigInts, so
  // the entire reduction runs in the limb tier.
  return {promoted(a) * promoted(d) + promoted(c) * promoted(b),
          promoted(b) * promoted(d)};
}

Rat reference_mul(std::int64_t a, std::int64_t b, std::int64_t c,
                  std::int64_t d) {
  return {promoted(a) * promoted(c), promoted(b) * promoted(d)};
}

TEST(SubstrateDiff, RatFastPathMatchesBigIntReference) {
  Rng rng(2026);
  for (int i = 0; i < 300; ++i) {
    const std::int64_t a = rng.uniform_int(-2000, 2000);
    const std::int64_t b = rng.uniform_int(1, 2000);
    const std::int64_t c = rng.uniform_int(-2000, 2000);
    const std::int64_t d = rng.uniform_int(1, 2000);
    const Rat x(a, b);
    const Rat y(c, d);
    EXPECT_EQ(x + y, reference_add(a, b, c, d)) << a << "/" << b << " + "
                                                << c << "/" << d;
    EXPECT_EQ(x - y, reference_add(a, b, -c, d)) << a << "/" << b << " - "
                                                 << c << "/" << d;
    EXPECT_EQ(x * y, reference_mul(a, b, c, d)) << a << "/" << b << " * "
                                                << c << "/" << d;
    if (c != 0) {
      EXPECT_EQ(x / y, reference_mul(a, b, d, c)) << a << "/" << b << " / "
                                                  << c << "/" << d;
    }
    EXPECT_EQ(x <=> y, reference_add(a, b, -c, d).signum() <=> 0);
  }
}

TEST(SubstrateDiff, RatBoundaryStraddlingAndOverflowFallback) {
  Rng rng(2027);
  // Numerators near the int64 edge: sums/products must fall back to the
  // BigInt path and still be exact.
  for (int i = 0; i < 60; ++i) {
    const std::int64_t a = kMax - rng.uniform_int(0, 5);
    const std::int64_t b = rng.uniform_int(1, 7);
    const std::int64_t c = kMax - rng.uniform_int(0, 5);
    const std::int64_t d = rng.uniform_int(1, 7);
    const Rat x(a, b);
    const Rat y(c, d);
    EXPECT_EQ(x + y, reference_add(a, b, c, d));
    EXPECT_EQ(x * y, reference_mul(a, b, c, d));
    EXPECT_EQ((x + y) - y, x);  // exact round trip through the slow path
    EXPECT_EQ((x * y) / y, x);
  }
  // Large-component rationals (far beyond int64) stay exact.
  const Rat huge(BigInt::from_string("123456789123456789123456789123456789"),
                 BigInt::from_string("987654321987654321987654321"));
  const Rat small(3, 7);
  EXPECT_EQ((huge + small) - small, huge);
  EXPECT_EQ((huge * small) / small, huge);
  EXPECT_EQ(huge - huge, Rat(0));
  EXPECT_EQ(huge / huge, Rat(1));
}

// x * 1 and x / 1 return x untouched; the value must be exactly what the
// general path computes, for limb-tier components and for a non-canonical
// (forced limb-tier) one, and 1 * x must agree with x * 1.
TEST(SubstrateDiff, RatUnitOperandOnPromotedValues) {
  const BigInt big_num =
      BigInt::from_string("-123456789123456789123456789123456789");
  const BigInt big_den = BigInt::from_string("987654321987654321987654322");
  const Rat one(1);
  const Rat forced_one(promoted(1), promoted(1));
  const Rat values[] = {Rat(big_num, big_den), Rat(big_num, BigInt(1)),
                        Rat(BigInt(3), big_den), Rat(kMin, 3),
                        Rat(BigInt(kMax) * BigInt(kMax), BigInt(kMin)),
                        Rat(0), Rat(7, 2)};
  for (const Rat& x : values) {
    EXPECT_EQ(x * one, x) << x;
    EXPECT_EQ(x / one, x) << x;
    EXPECT_EQ(one * x, x) << x;
    EXPECT_EQ(x * forced_one, x) << x;
    EXPECT_EQ(x / forced_one, x) << x;
    EXPECT_EQ(forced_one * x, x) << x;
    EXPECT_EQ(x * one, x * Rat(2) / Rat(2)) << x;
    Rat in_place = x;
    in_place *= one;
    in_place /= one;
    EXPECT_EQ(in_place, x) << x;
    EXPECT_EQ(in_place.num().is_small(), x.num().is_small()) << x;
    EXPECT_EQ(in_place.den().is_small(), x.den().is_small()) << x;
  }
  // The alias paths still hold: x / x == 1 and 1 * 1 == 1.
  Rat alias(big_num, big_den);
  alias /= alias;
  EXPECT_EQ(alias, one);
  Rat unit(1);
  unit *= unit;
  unit /= unit;
  EXPECT_EQ(unit, one);
}

}  // namespace
}  // namespace minmach
