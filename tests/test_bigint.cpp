#include "minmach/util/bigint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "minmach/util/rng.hpp"

namespace minmach {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.signum(), 0);
  EXPECT_EQ(zero.to_string(), "0");
  EXPECT_EQ(zero.to_int64(), 0);
}

TEST(BigInt, Int64RoundTrip) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{42}, std::int64_t{-123456789012345},
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    BigInt b(v);
    EXPECT_TRUE(b.fits_int64()) << v;
    EXPECT_EQ(b.to_int64(), v);
    EXPECT_EQ(b.to_string(), std::to_string(v));
  }
}

TEST(BigInt, FromStringRoundTrip) {
  const char* cases[] = {"0",
                         "7",
                         "-7",
                         "4294967295",
                         "4294967296",
                         "-18446744073709551616",
                         "340282366920938463463374607431768211456",
                         "-999999999999999999999999999999999999999"};
  for (const char* text : cases) {
    EXPECT_EQ(BigInt::from_string(text).to_string(), text);
  }
}

TEST(BigInt, FromStringRejectsGarbage) {
  EXPECT_THROW(BigInt::from_string(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("-"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string("12a3"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_string(" 12"), std::invalid_argument);
}

TEST(BigInt, OverflowGuards) {
  BigInt big = BigInt::from_string("340282366920938463463374607431768211456");
  EXPECT_FALSE(big.fits_int64());
  EXPECT_THROW((void)big.to_int64(), std::overflow_error);
  // INT64_MIN magnitude fits exactly; one more does not.
  BigInt min64(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(min64.fits_int64());
  EXPECT_FALSE((min64 - BigInt(1)).fits_int64());
  EXPECT_TRUE((min64.negated() - BigInt(1)).fits_int64());
  EXPECT_FALSE(min64.negated().fits_int64());
}

TEST(BigInt, SmallArithmetic) {
  EXPECT_EQ((BigInt(2) + BigInt(3)).to_int64(), 5);
  EXPECT_EQ((BigInt(2) - BigInt(3)).to_int64(), -1);
  EXPECT_EQ((BigInt(-2) * BigInt(3)).to_int64(), -6);
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_int64(), -3);  // truncation
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_int64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_int64(), -1);  // sign of dividend
  EXPECT_EQ((BigInt(7) % BigInt(-2)).to_int64(), 1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW((void)(BigInt(1) / BigInt(0)), std::domain_error);
  EXPECT_THROW((void)(BigInt(1) % BigInt(0)), std::domain_error);
}

TEST(BigInt, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt::from_string("18446744073709551616"), BigInt(1) + BigInt(2));
  EXPECT_EQ(BigInt(0), BigInt(7) - BigInt(7));
  EXPECT_LT(BigInt::from_string("-18446744073709551616"), BigInt(-1));
}

TEST(BigInt, GcdLcm) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).to_int64(), 0);
  EXPECT_EQ(BigInt::lcm(BigInt(4), BigInt(6)).to_int64(), 12);
  EXPECT_EQ(BigInt::lcm(BigInt(0), BigInt(6)).to_int64(), 0);
  // gcd of huge coprimes.
  BigInt a = BigInt::from_string("170141183460469231731687303715884105727");
  EXPECT_EQ(BigInt::gcd(a, a * BigInt(3) + BigInt(1)), BigInt(1));
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ(BigInt::from_string("18446744073709551616").bit_length(), 65u);
}

TEST(BigInt, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(12345).to_double(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).to_double(), -12345.0);
  EXPECT_NEAR(BigInt::from_string("10000000000000000000").to_double(), 1e19,
              1e6);
}

// ----- randomized oracle tests against __int128 -----

using I128 = __int128;

I128 to_i128(const BigInt& b) {
  // Only valid for values that fit; tests keep operands within range.
  bool negative = b.is_negative();
  BigInt mag = b.abs();
  I128 out = 0;
  BigInt base = BigInt::from_string("18446744073709551616");  // 2^64
  auto dm = BigInt::div_mod(mag, base);
  out = static_cast<I128>(
      static_cast<unsigned long long>(dm.quotient.to_int64()));
  out <<= 64;
  BigInt rem = dm.remainder;
  // remainder < 2^64 may not fit signed int64; split again
  auto dm2 = BigInt::div_mod(rem, BigInt(1) + BigInt(0xffffffff));
  (void)dm2;
  // simpler: peel 32-bit chunks
  I128 lo = 0;
  I128 mul = 1;
  BigInt cur = rem;
  BigInt b32(0x100000000ll);
  while (!cur.is_zero()) {
    auto d = BigInt::div_mod(cur, b32);
    lo += mul * static_cast<I128>(d.remainder.to_int64());
    mul <<= 32;
    cur = d.quotient;
  }
  out += lo;
  return negative ? -out : out;
}

[[maybe_unused]] BigInt from_i128(I128 v) {
  bool negative = v < 0;
  unsigned __int128 mag =
      negative ? static_cast<unsigned __int128>(-(v + 1)) + 1
               : static_cast<unsigned __int128>(v);
  BigInt out(0);
  BigInt mul(1);
  BigInt b32(0x100000000ll);
  while (mag != 0) {
    out += mul * BigInt(static_cast<std::int64_t>(mag & 0xffffffffu));
    mul *= b32;
    mag >>= 32;
  }
  return negative ? out.negated() : out;
}

class BigIntRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigIntRandom, ArithmeticMatchesInt128Oracle) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    // 62-bit operands: products fit comfortably in __int128.
    std::int64_t xa = rng.uniform_int(-(1ll << 62), 1ll << 62);
    std::int64_t xb = rng.uniform_int(-(1ll << 62), 1ll << 62);
    BigInt a(xa);
    BigInt b(xb);
    EXPECT_EQ(to_i128(a + b), static_cast<I128>(xa) + xb);
    EXPECT_EQ(to_i128(a - b), static_cast<I128>(xa) - xb);
    EXPECT_EQ(to_i128(a * b), static_cast<I128>(xa) * xb);
    if (xb != 0) {
      EXPECT_EQ(to_i128(a / b), static_cast<I128>(xa) / xb);
      EXPECT_EQ(to_i128(a % b), static_cast<I128>(xa) % xb);
    }
    EXPECT_EQ(a < b, xa < xb);
    EXPECT_EQ(a == b, xa == xb);
  }
}

TEST_P(BigIntRandom, MultiLimbDivisionIdentity) {
  Rng rng(GetParam() * 7919 + 13);
  for (int iter = 0; iter < 1500; ++iter) {
    // Build random magnitudes up to ~12 limbs, biased toward 0xffffffff
    // limbs to stress the Knuth-D estimate corrections.
    auto random_big = [&](int max_limbs) {
      BigInt out(0);
      BigInt mul(1);
      BigInt b32(0x100000000ll);
      int limbs = static_cast<int>(rng.uniform_int(1, max_limbs));
      for (int i = 0; i < limbs; ++i) {
        std::int64_t limb = rng.bernoulli(0.25)
                                ? 0xffffffffll
                                : rng.uniform_int(0, 0xffffffffll);
        out += mul * BigInt(limb);
        mul *= b32;
      }
      return rng.bernoulli(0.5) ? out.negated() : out;
    };
    BigInt a = random_big(12);
    BigInt b = random_big(6);
    if (b.is_zero()) continue;
    auto dm = BigInt::div_mod(a, b);
    // a == q*b + r
    EXPECT_EQ(dm.quotient * b + dm.remainder, a)
        << "a=" << a << " b=" << b << " q=" << dm.quotient
        << " r=" << dm.remainder;
    // |r| < |b|
    EXPECT_LT(dm.remainder.abs(), b.abs());
    // sign conventions
    if (!dm.remainder.is_zero()) {
      EXPECT_EQ(dm.remainder.signum(), a.signum());
    }
  }
}

TEST_P(BigIntRandom, StringRoundTripRandom) {
  Rng rng(GetParam() ^ 0xabcdef);
  BigInt b32(0x100000000ll);
  for (int iter = 0; iter < 300; ++iter) {
    BigInt value(0);
    int limbs = static_cast<int>(rng.uniform_int(1, 20));
    for (int i = 0; i < limbs; ++i)
      value = value * b32 + BigInt(rng.uniform_int(0, 0xffffffffll));
    if (rng.bernoulli(0.5)) value = value.negated();
    EXPECT_EQ(BigInt::from_string(value.to_string()), value);
  }
}

TEST_P(BigIntRandom, Int128ConversionRoundTrip) {
  Rng rng(GetParam() + 555);
  for (int iter = 0; iter < 500; ++iter) {
    I128 hi = static_cast<I128>(rng.uniform_int(-(1ll << 60), 1ll << 60));
    I128 value = (hi << 32) + rng.uniform_int(0, 0xffffffffll);
    EXPECT_EQ(to_i128(from_i128(value)), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// Directed Knuth-D corner: dividend top limbs equal to divisor top limb
// forces the q_hat = base-1 clamp path.
TEST(BigInt, KnuthDClampPath) {
  BigInt base32(0x100000000ll);
  // divisor = [0, X] (i.e. X * 2^32), dividend = [r, X, X] so that the
  // leading estimate overflows one limb.
  BigInt x(0xfffffffell);
  BigInt divisor = x * base32;
  BigInt dividend = ((x * base32 + x) * base32) + BigInt(12345);
  auto dm = BigInt::div_mod(dividend, divisor);
  EXPECT_EQ(dm.quotient * divisor + dm.remainder, dividend);
  EXPECT_LT(dm.remainder.abs(), divisor.abs());
}

TEST(BigInt, AddBackPath) {
  // Classic add-back trigger from Hacker's Delight: u = [0,0,0x80000000],
  // v = [1,0x80000000] in base 2^32.
  BigInt base32(0x100000000ll);
  BigInt u = BigInt(0x80000000ll) * base32 * base32;
  BigInt v = BigInt(0x80000000ll) * base32 + BigInt(1);
  auto dm = BigInt::div_mod(u, v);
  EXPECT_EQ(dm.quotient * v + dm.remainder, u);
  EXPECT_LT(dm.remainder.abs(), v.abs());
}

// Regression: sign-magnitude negation of the most-negative int64 is the
// classic UB trap -- |INT64_MIN| = 2^63 has no int64 representation, so
// negation/abs must promote to the limb tier instead of overflowing.
TEST(BigInt, Int64MinNegationAndAbs) {
  const std::int64_t min64 = std::numeric_limits<std::int64_t>::min();
  BigInt value(min64);
  EXPECT_TRUE(value.is_small());
  EXPECT_EQ(value.to_int64(), min64);
  EXPECT_EQ(value.to_string(), "-9223372036854775808");

  BigInt negated = value.negated();
  EXPECT_FALSE(negated.is_small());  // 2^63 does not fit int64
  EXPECT_EQ(negated.to_string(), "9223372036854775808");
  EXPECT_EQ(negated.negated(), value);  // round-trips back to the small tier
  EXPECT_TRUE(negated.negated().is_small());

  BigInt absolute = value.abs();
  EXPECT_EQ(absolute, negated);
  EXPECT_FALSE(absolute.fits_int64());
  EXPECT_EQ((-value).to_string(), "9223372036854775808");
}

TEST(BigInt, Int64MinArithmeticPromotes) {
  const std::int64_t min64 = std::numeric_limits<std::int64_t>::min();
  BigInt value(min64);
  // INT64_MIN / -1 is the one small/small quotient that overflows int64.
  BigInt quotient = value / BigInt(-1);
  EXPECT_EQ(quotient.to_string(), "9223372036854775808");
  EXPECT_TRUE((value % BigInt(-1)).is_zero());
  auto dm = BigInt::div_mod(value, BigInt(-1));
  EXPECT_EQ(dm.quotient.to_string(), "9223372036854775808");
  EXPECT_TRUE(dm.remainder.is_zero());

  EXPECT_EQ((value + value).to_string(), "-18446744073709551616");
  EXPECT_EQ((value - BigInt(1)).to_string(), "-9223372036854775809");
  EXPECT_EQ((value * BigInt(-1)).to_string(), "9223372036854775808");
  EXPECT_EQ(BigInt::gcd(value, value).to_string(), "9223372036854775808");
  EXPECT_EQ(BigInt::gcd(value, BigInt(3)).to_int64(), 1);
  EXPECT_EQ(BigInt::from_string("-9223372036854775808"), value);
}

// ----- gcd property suite: BigInt::gcd against a reference Euclid -----
//
// BigInt::gcd runs Lehmer's algorithm with int64 cofactors. The reference
// below shares none of that code: plain Euclid on operator% (Knuth D).
// Under the sanitize preset UBSan also checks every cofactor update and
// __int128 accumulator in the Lehmer loop for signed overflow.

BigInt reference_gcd(BigInt a, BigInt b) {
  a = a.abs();
  b = b.abs();
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt power_of_two(int k) {
  BigInt out(1);
  for (; k >= 62; k -= 62) out *= BigInt(std::int64_t{1} << 62);
  return out * BigInt(std::int64_t{1} << k);
}

// A value of exactly `limbs` 64-bit limbs, its top limb of random width.
BigInt random_limbs(Rng& rng, int limbs) {
  const BigInt base32(std::int64_t{1} << 32);
  BigInt out(0);
  for (int i = 0; i < limbs; ++i) {
    std::uint64_t limb = rng.next_u64();
    if (i == 0) limb = (limb >> rng.uniform_int(0, 63)) | 1;
    out = out * base32 + BigInt(static_cast<std::int64_t>(limb >> 32));
    out = out * base32 + BigInt(static_cast<std::int64_t>(limb & 0xffffffffu));
  }
  return out;
}

BigInt random_sign(Rng& rng, BigInt value) {
  return rng.uniform_int(0, 1) == 0 ? value : value.negated();
}

// gcd(a, b) equals the reference, is symmetric and non-negative, divides
// both operands, and leaves coprime cofactors.
void expect_gcd_properties(const BigInt& a, const BigInt& b) {
  const BigInt g = BigInt::gcd(a, b);
  ASSERT_EQ(g, reference_gcd(a, b)) << "gcd(" << a << ", " << b << ")";
  EXPECT_EQ(BigInt::gcd(b, a), g) << "gcd(" << b << ", " << a << ")";
  EXPECT_FALSE(g.is_negative());
  if (g.is_zero()) {
    EXPECT_TRUE(a.is_zero() && b.is_zero());
    return;
  }
  EXPECT_TRUE((a % g).is_zero()) << a << " % " << g;
  EXPECT_TRUE((b % g).is_zero()) << b << " % " << g;
  EXPECT_EQ(BigInt::gcd(a / g, b / g), BigInt(1)) << a << ", " << b;
}

TEST(BigIntGcd, RandomOperandsOfOneToEightLimbs) {
  Rng rng(15);
  for (int la = 1; la <= 8; ++la) {
    for (int lb = 1; lb <= 8; ++lb) {
      for (int trial = 0; trial < 6; ++trial) {
        const BigInt a = random_sign(rng, random_limbs(rng, la));
        const BigInt b = random_sign(rng, random_limbs(rng, lb));
        expect_gcd_properties(a, b);
        // A shared factor of 1-3 limbs: the gcd is at least that factor.
        const BigInt common =
            random_limbs(rng, static_cast<int>(rng.uniform_int(1, 3)));
        expect_gcd_properties(a * common, b * common);
        EXPECT_TRUE((BigInt::gcd(a * common, b * common) % common).is_zero());
      }
    }
  }
}

TEST(BigIntGcd, DivisorsAndEqualOperands) {
  Rng rng(16);
  for (int limbs = 1; limbs <= 8; ++limbs) {
    for (int trial = 0; trial < 8; ++trial) {
      const BigInt a = random_limbs(rng, limbs);
      const BigInt k =
          random_limbs(rng, static_cast<int>(rng.uniform_int(1, 4)));
      expect_gcd_properties(a, a * k);
      EXPECT_EQ(BigInt::gcd(a * k, a), a);
      expect_gcd_properties(a, a);
      EXPECT_EQ(BigInt::gcd(a, a), a);
      EXPECT_EQ(BigInt::gcd(a.negated(), a), a);
      expect_gcd_properties(a + BigInt(1), a);  // consecutive: coprime
      EXPECT_EQ(BigInt::gcd(a + BigInt(1), a), BigInt(1));
    }
  }
}

TEST(BigIntGcd, ZeroNegativesAndInt64Min) {
  const std::int64_t min64 = std::numeric_limits<std::int64_t>::min();
  Rng rng(17);
  const BigInt big = random_limbs(rng, 3);
  const BigInt two63 = BigInt(min64).negated();
  BigInt forced_zero(0);
  forced_zero.debug_force_promote();
  for (const BigInt& zero : {BigInt(0), forced_zero}) {
    EXPECT_EQ(BigInt::gcd(zero, big), big);
    EXPECT_EQ(BigInt::gcd(big.negated(), zero), big);
    EXPECT_EQ(BigInt::gcd(zero, zero), BigInt(0));
    EXPECT_EQ(BigInt::gcd(zero, BigInt(min64)), two63);
  }
  const BigInt values[] = {BigInt(min64),
                           two63,
                           BigInt(min64 + 1),
                           BigInt(-1),
                           BigInt(1),
                           BigInt(-6),
                           big,
                           big.negated(),
                           big * two63,
                           (big * BigInt(min64)) + BigInt(min64),
                           power_of_two(200).negated(),
                           BigInt(0)};
  for (const BigInt& a : values) {
    for (const BigInt& b : values) {
      expect_gcd_properties(a, b);
      // Non-canonical (forced limb-tier) inputs give the same answer.
      BigInt fa = a;
      BigInt fb = b;
      fa.debug_force_promote();
      fb.debug_force_promote();
      EXPECT_EQ(BigInt::gcd(fa, fb), BigInt::gcd(a, b));
    }
  }
  EXPECT_EQ(BigInt::gcd(BigInt(min64), power_of_two(200)), two63);
  EXPECT_EQ(BigInt::gcd(big * two63, BigInt(min64)), two63);
}

// Consecutive Fibonacci numbers are Euclid's worst case: every quotient is
// 1, so Lehmer's cofactors grow as large as 62-bit leading parts allow.
// gcd(F_m, F_n) = F_gcd(m, n) gives the answer for any pair.
TEST(BigIntGcd, FibonacciPairsUpToFourteenHundredBits) {
  constexpr int kMax = 2020;  // F_2020 has 1398 bits
  std::vector<BigInt> fib = {BigInt(0), BigInt(1)};
  for (int k = 2; k <= kMax; ++k) fib.push_back(fib[k - 1] + fib[k - 2]);
  ASSERT_GE(fib[kMax].bit_length(), 1390u);
  Rng rng(18);
  for (int k = 60; k < kMax; k += 3) {
    EXPECT_EQ(BigInt::gcd(fib[k], fib[k + 1]), BigInt(1)) << "k=" << k;
    EXPECT_EQ(BigInt::gcd(fib[k + 1], fib[k]), BigInt(1)) << "k=" << k;
    const int n = static_cast<int>(rng.uniform_int(k / 2, kMax));
    EXPECT_EQ(BigInt::gcd(fib[k], fib[n]), fib[std::gcd(k, n)])
        << "m=" << k << " n=" << n;
    const BigInt common = random_limbs(rng, 2);
    EXPECT_EQ(BigInt::gcd(fib[k] * common, fib[k + 1] * common), common)
        << "k=" << k;
  }
  for (int k = 80; k < kMax; k += 97) expect_gcd_properties(fib[k], fib[k + 1]);
}

// BigInt::gcd strips both operands' factors of two before Lehmer's loop
// and shifts their common power back in at the end. Odd operands times
// 2^i, with i at and around the limb boundaries, check the strip and the
// restore; a power of two strips to 1.
TEST(BigIntGcd, FactorsOfTwoAroundLimbBoundaries) {
  const int kShifts[] = {0, 1, 63, 64, 65, 127, 128, 191, 200};
  Rng rng(19);
  const auto random_odd = [&rng](int limbs) {
    BigInt x = random_limbs(rng, limbs);
    return (x % BigInt(2)).is_zero() ? x + BigInt(1) : x;
  };
  for (int i : kShifts) {
    for (int j : kShifts) {
      for (int trial = 0; trial < 3; ++trial) {
        const BigInt a = random_odd(static_cast<int>(rng.uniform_int(1, 4)));
        const BigInt b = random_odd(static_cast<int>(rng.uniform_int(1, 4)));
        const BigInt common = random_odd(static_cast<int>(rng.uniform_int(1, 2)));
        expect_gcd_properties(a * power_of_two(i), b * power_of_two(j));
        expect_gcd_properties(a * common * power_of_two(i),
                              b * common * power_of_two(j));
        EXPECT_EQ(BigInt::gcd(a * common * power_of_two(i),
                              a * common * power_of_two(j)),
                  a * common * power_of_two(std::min(i, j)));
      }
      expect_gcd_properties(power_of_two(i), power_of_two(j));
      EXPECT_EQ(BigInt::gcd(power_of_two(i), power_of_two(j)),
                power_of_two(std::min(i, j)));
      const BigInt odd = random_odd(3);
      expect_gcd_properties(power_of_two(i), odd * power_of_two(j));
      EXPECT_EQ(BigInt::gcd(power_of_two(i), odd * power_of_two(j)),
                power_of_two(std::min(i, j)));
    }
  }
}

// The Theorem 3 game's grids end at 2^350, 2^222 5^64, 2^126 5^128 and
// 2^190 3^128 (one per (alpha, beta) pair against FirstFit), and its
// den_bits and job-record gcds take one operand on such a grid.
TEST(BigIntGcd, OperandsOnTheGameGrids) {
  const auto power = [](std::int64_t base, int e) {
    BigInt out(1);
    for (int k = 0; k < e; ++k) out *= BigInt(base);
    return out;
  };
  const BigInt grids[] = {power(2, 350), power(2, 222) * power(5, 64),
                          power(2, 126) * power(5, 128),
                          power(2, 190) * power(3, 128)};
  Rng rng(20);
  for (const BigInt& grid : grids) {
    const int limbs = static_cast<int>(grid.bit_length() / 64) + 1;
    for (int trial = 0; trial < 40; ++trial) {
      const BigInt x = random_limbs(rng, limbs) % grid;
      expect_gcd_properties(x, grid);
      // A value with many of the grid's twos, as a level's scale has.
      const BigInt scaled =
          x * power_of_two(static_cast<int>(rng.uniform_int(0, 200))) % grid;
      expect_gcd_properties(scaled, grid);
    }
  }
}

// 2^a - 1 and 2^b - 1 share 2^gcd(a, b) - 1; the 2^k + 1 pairs exercise long
// runs of equal leading bits.
TEST(BigIntGcd, PowersOfTwoPlusMinusOne) {
  for (int a = 62; a <= 700; a += 41) {
    for (int b = 60; b <= a; b += 37) {
      const BigInt pa = power_of_two(a);
      const BigInt pb = power_of_two(b);
      EXPECT_EQ(BigInt::gcd(pa - BigInt(1), pb - BigInt(1)),
                power_of_two(std::gcd(a, b)) - BigInt(1))
          << "a=" << a << " b=" << b;
      expect_gcd_properties(pa - BigInt(1), pb - BigInt(1));
      expect_gcd_properties(pa + BigInt(1), pb + BigInt(1));
      expect_gcd_properties(pa + BigInt(1), pb - BigInt(1));
      expect_gcd_properties(pa - BigInt(1), pb + BigInt(1));
      expect_gcd_properties(pa, pb + BigInt(1));
    }
  }
}

}  // namespace
}  // namespace minmach
