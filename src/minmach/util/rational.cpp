#include "minmach/util/rational.hpp"

#include <bit>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "minmach/obs/metrics.hpp"

namespace minmach {

namespace {

using I128 = __int128;
using U128 = unsigned __int128;

std::uint64_t mag64(std::int64_t value) {
  return value < 0 ? ~static_cast<std::uint64_t>(value) + 1
                   : static_cast<std::uint64_t>(value);
}

std::uint64_t gcd_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  int az = std::countr_zero(a);
  int bz = std::countr_zero(b);
  int shift = az < bz ? az : bz;
  a >>= az;
  while (b != 0) {
    b >>= std::countr_zero(b);
    if (a > b) std::swap(a, b);
    b -= a;
  }
  return a << shift;
}

bool fits_i64(I128 value) {
  return value >= static_cast<I128>(INT64_MIN) &&
         value <= static_cast<I128>(INT64_MAX);
}

bool both_small(const BigInt& a, const BigInt& b) {
  return a.is_small() && b.is_small();
}

}  // namespace

Rat::Rat(BigInt numerator, BigInt denominator)
    : num_(std::move(numerator)), den_(std::move(denominator)) {
  if (den_.is_zero()) throw std::domain_error("Rat: zero denominator");
  normalize();
}

void Rat::normalize() {
  if (both_small(num_, den_)) {
    std::int64_t n = num_.small_value();
    std::int64_t d = den_.small_value();
    // INT64_MIN magnitudes negate/divide awkwardly in int64; let the BigInt
    // path canonicalize those (its results demote back automatically).
    if (n != INT64_MIN && d != INT64_MIN) {
      if (n == 0) {
        den_ = BigInt(1);
        return;
      }
      if (d < 0) {
        n = -n;
        d = -d;
      }
      std::uint64_t g = gcd_u64(mag64(n), static_cast<std::uint64_t>(d));
      if (g > 1) {
        n /= static_cast<std::int64_t>(g);
        d /= static_cast<std::int64_t>(g);
      }
      num_ = BigInt(n);
      den_ = BigInt(d);
      return;
    }
  }
  if (den_.is_negative()) {
    num_ = num_.negated();
    den_ = den_.negated();
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ /= g;
    den_ /= g;
  }
}

Rat Rat::from_string(std::string_view text) {
  auto slash = text.find('/');
  if (slash != std::string_view::npos) {
    return {BigInt::from_string(text.substr(0, slash)),
            BigInt::from_string(text.substr(slash + 1))};
  }
  auto dot = text.find('.');
  if (dot == std::string_view::npos) {
    return {BigInt::from_string(text), BigInt(1)};
  }
  std::string digits(text.substr(0, dot));
  std::string_view frac = text.substr(dot + 1);
  digits += frac;
  BigInt den(1);
  const BigInt ten(10);
  for (std::size_t i = 0; i < frac.size(); ++i) den *= ten;
  return {BigInt::from_string(digits), den};
}

// a/b + c/d with gcd(a,b) = gcd(c,d) = 1, b,d > 0: with g = gcd(b, d),
// t = a(d/g) +- c(b/g) and g2 = gcd(t, g), the result t/g2 over
// (b/g)(d/g2) is already in lowest terms (Knuth 4.5.1). All intermediates
// fit __int128 because every factor fits int64.
bool Rat::add_small(const Rat& rhs, bool negate_rhs) {
  const std::int64_t a = num_.small_value();
  const std::int64_t b = den_.small_value();
  const std::int64_t c = rhs.num_.small_value();
  const std::int64_t d = rhs.den_.small_value();
  const std::uint64_t g = gcd_u64(static_cast<std::uint64_t>(b),
                                  static_cast<std::uint64_t>(d));
  const std::int64_t b1 = b / static_cast<std::int64_t>(g);
  const std::int64_t d1 = d / static_cast<std::int64_t>(g);
  const I128 rhs_num = negate_rhs ? -static_cast<I128>(c)
                                  : static_cast<I128>(c);
  const I128 t = static_cast<I128>(a) * d1 + rhs_num * b1;
  if (t == 0) {
    num_ = BigInt(0);
    den_ = BigInt(1);
    return true;
  }
  std::uint64_t g2 = 1;
  if (g > 1) {
    const U128 t_mag = static_cast<U128>(t < 0 ? -t : t);
    g2 = gcd_u64(static_cast<std::uint64_t>(t_mag % g), g);
  }
  const I128 num = t / static_cast<std::int64_t>(g2);
  const I128 den =
      static_cast<I128>(b1) * (d / static_cast<std::int64_t>(g2));
  if (!fits_i64(num) || !fits_i64(den)) return false;
  num_ = BigInt(static_cast<std::int64_t>(num));
  den_ = BigInt(static_cast<std::int64_t>(den));
  return true;
}

bool Rat::mul_small(const Rat& rhs) {
  const std::int64_t a = num_.small_value();
  const std::int64_t b = den_.small_value();
  const std::int64_t c = rhs.num_.small_value();
  const std::int64_t d = rhs.den_.small_value();
  if (a == 0 || c == 0) {
    num_ = BigInt(0);
    den_ = BigInt(1);
    return true;
  }
  // Cross-reduce before multiplying: gcd(a,d) and gcd(c,b) carry all common
  // factors, so the products below are already in lowest terms.
  const std::int64_t g1 = static_cast<std::int64_t>(
      gcd_u64(mag64(a), static_cast<std::uint64_t>(d)));
  const std::int64_t g2 = static_cast<std::int64_t>(
      gcd_u64(mag64(c), static_cast<std::uint64_t>(b)));
  const I128 num = static_cast<I128>(a / g1) * (c / g2);
  const I128 den = static_cast<I128>(b / g2) * (d / g1);
  if (!fits_i64(num) || !fits_i64(den)) return false;
  num_ = BigInt(static_cast<std::int64_t>(num));
  den_ = BigInt(static_cast<std::int64_t>(den));
  return true;
}

bool Rat::div_small(const Rat& rhs) {
  const std::int64_t a = num_.small_value();
  const std::int64_t b = den_.small_value();
  const std::int64_t c = rhs.num_.small_value();
  const std::int64_t d = rhs.den_.small_value();
  if (a == 0) {
    den_ = BigInt(1);
    return true;
  }
  // gcd(|INT64_MIN|, |INT64_MIN|) = 2^63 does not fit int64.
  if (a == INT64_MIN && c == INT64_MIN) return false;
  const std::int64_t g1 =
      static_cast<std::int64_t>(gcd_u64(mag64(a), mag64(c)));
  const std::int64_t g2 = static_cast<std::int64_t>(
      gcd_u64(static_cast<std::uint64_t>(b), static_cast<std::uint64_t>(d)));
  I128 num = static_cast<I128>(a / g1) * (d / g2);
  I128 den = static_cast<I128>(b / g2) * (c / g1);
  if (den < 0) {
    num = -num;
    den = -den;
  }
  if (!fits_i64(num) || !fits_i64(den)) return false;
  num_ = BigInt(static_cast<std::int64_t>(num));
  den_ = BigInt(static_cast<std::int64_t>(den));
  return true;
}

Rat& Rat::add_slow(const Rat& rhs, bool negate_rhs) {
  const BigInt rhs_num = negate_rhs ? rhs.num_.negated() : rhs.num_;
  BigInt g = BigInt::gcd(den_, rhs.den_);
  if (g == BigInt(1)) {
    // Coprime denominators: the cross-sum is already in lowest terms.
    num_ = num_ * rhs.den_ + rhs_num * den_;
    den_ *= rhs.den_;
  } else {
    BigInt b1 = den_ / g;
    BigInt d1 = rhs.den_ / g;
    BigInt t = num_ * d1 + rhs_num * b1;
    BigInt g2 = BigInt::gcd(t, g);
    num_ = t / g2;
    den_ = b1 * (rhs.den_ / g2);
  }
  if (num_.is_zero()) den_ = BigInt(1);
  return *this;
}

Rat& Rat::operator+=(const Rat& rhs) {
  if (both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
      add_small(rhs, /*negate_rhs=*/false)) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  return add_slow(rhs, /*negate_rhs=*/false);
}

Rat& Rat::operator-=(const Rat& rhs) {
  if (this == &rhs) {
    num_ = BigInt(0);
    den_ = BigInt(1);
    return *this;
  }
  if (both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
      add_small(rhs, /*negate_rhs=*/true)) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  return add_slow(rhs, /*negate_rhs=*/true);
}

Rat& Rat::operator*=(const Rat& rhs) {
  if ((both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
       mul_small(rhs)) ||
      rhs.is_one()) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  BigInt g1 = BigInt::gcd(num_, rhs.den_);
  BigInt g2 = BigInt::gcd(rhs.num_, den_);
  num_ = (num_ / g1) * (rhs.num_ / g2);
  den_ = (den_ / g2) * (rhs.den_ / g1);
  if (num_.is_zero()) den_ = BigInt(1);
  return *this;
}

Rat& Rat::operator/=(const Rat& rhs) {
  if (rhs.is_zero()) throw std::domain_error("Rat: division by zero");
  if (this == &rhs) {
    num_ = BigInt(1);
    den_ = BigInt(1);
    return *this;
  }
  if ((both_small(num_, den_) && both_small(rhs.num_, rhs.den_) &&
       div_small(rhs)) ||
      rhs.is_one()) [[likely]] {
    MINMACH_OBS_TALLY(rat_fast_ops);
    return *this;
  }
  MINMACH_OBS_TALLY(rat_slow_ops);
  BigInt g1 = BigInt::gcd(num_, rhs.num_);
  BigInt g2 = BigInt::gcd(den_, rhs.den_);
  num_ = (num_ / g1) * (rhs.den_ / g2);
  den_ = (den_ / g2) * (rhs.num_ / g1);
  if (den_.is_negative()) {
    num_ = num_.negated();
    den_ = den_.negated();
  }
  if (num_.is_zero()) den_ = BigInt(1);
  return *this;
}

Rat Rat::operator-() const {
  Rat out = *this;
  out.num_ = out.num_.negated();
  return out;
}

std::strong_ordering operator<=>(const Rat& lhs, const Rat& rhs) {
  // Denominators are positive, so cross-multiplication preserves order; for
  // small components the products fit __int128.
  if (both_small(lhs.num_, lhs.den_) && both_small(rhs.num_, rhs.den_))
      [[likely]] {
    const I128 left = static_cast<I128>(lhs.num_.small_value()) *
                      rhs.den_.small_value();
    const I128 right = static_cast<I128>(rhs.num_.small_value()) *
                       lhs.den_.small_value();
    if (left < right) return std::strong_ordering::less;
    if (left > right) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  return lhs.num_ * rhs.den_ <=> rhs.num_ * lhs.den_;
}

Rat Rat::abs() const {
  Rat out = *this;
  out.num_ = out.num_.abs();
  return out;
}

BigInt Rat::floor() const {
  auto dm = BigInt::div_mod(num_, den_);
  if (num_.is_negative() && !dm.remainder.is_zero())
    dm.quotient -= BigInt(1);
  return dm.quotient;
}

BigInt Rat::ceil() const {
  auto dm = BigInt::div_mod(num_, den_);
  if (!num_.is_negative() && !dm.remainder.is_zero())
    dm.quotient += BigInt(1);
  return dm.quotient;
}

double Rat::to_double() const { return num_.to_double() / den_.to_double(); }

std::string Rat::to_string() const {
  if (is_integer()) return num_.to_string();
  return num_.to_string() + "/" + den_.to_string();
}

std::ostream& operator<<(std::ostream& os, const Rat& value) {
  return os << value.to_string();
}

// ---- rat_batch ---------------------------------------------------------

namespace rat_batch {

bool to_i64(const Rat* values, std::size_t n, std::int64_t* out,
            std::int64_t max_abs) {
  for (std::size_t i = 0; i < n; ++i) {
    const Rat& v = values[i];
    if (!v.is_integer() || !v.num().is_small()) return false;
    const std::int64_t x = v.num().small_value();
    if (x < -max_abs || x > max_abs) return false;
    out[i] = x;
  }
  return true;
}

}  // namespace rat_batch

}  // namespace minmach
