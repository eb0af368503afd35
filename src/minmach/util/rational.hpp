// Exact rational numbers over BigInt. All job parameters and all time
// arithmetic in the library use Rat, so adversary constructions and schedule
// validation are exact (no epsilon comparisons anywhere).
//
// Because BigInt is two-tier (see bigint.hpp), a small rational is stored as
// int64/int64 with no heap allocation. The arithmetic operators exploit
// this: when all four components fit the small tier they run an int64 fast
// path (binary gcd on uint64, __int128 intermediates, Knuth 4.5.1
// cross-reduction so intermediates stay small before normalization) and fall
// back to the exact BigInt path only when a result would overflow.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "minmach/util/bigint.hpp"

namespace minmach {

class Rat;

// Batch conversion for the integer-grid fast paths (DESIGN.md §12).
namespace rat_batch {

// Writes values[i] as int64 when EVERY element is a small integer
// (denominator 1, |numerator| <= max_abs); returns false without touching
// `out` otherwise. The all-or-nothing contract is what the integer-grid
// fast paths need: one failed lane means the batch must stay rational.
[[nodiscard]] bool to_i64(const Rat* values, std::size_t n, std::int64_t* out,
                          std::int64_t max_abs);

}  // namespace rat_batch

class Rat {
 public:
  Rat() : num_(0), den_(1) {}
  Rat(std::int64_t value) : num_(value), den_(1) {}  // NOLINT implicit by design
  Rat(int value) : num_(value), den_(1) {}           // NOLINT implicit by design
  Rat(long long value) : num_(value), den_(1) {}     // NOLINT implicit by design
  // Throws std::domain_error if denominator == 0.
  Rat(BigInt numerator, BigInt denominator);
  Rat(std::int64_t numerator, std::int64_t denominator)
      : Rat(BigInt(numerator), BigInt(denominator)) {}

  // Accepts "a", "-a/b", and decimal forms like "3.25" / "-0.5".
  static Rat from_string(std::string_view text);

  [[nodiscard]] const BigInt& num() const { return num_; }
  [[nodiscard]] const BigInt& den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_.is_zero(); }
  [[nodiscard]] bool is_negative() const { return num_.is_negative(); }
  [[nodiscard]] bool is_positive() const { return num_.signum() > 0; }
  [[nodiscard]] int signum() const { return num_.signum(); }
  [[nodiscard]] bool is_integer() const { return den_ == BigInt(1); }

  Rat& operator+=(const Rat& rhs);
  Rat& operator-=(const Rat& rhs);
  Rat& operator*=(const Rat& rhs);
  Rat& operator/=(const Rat& rhs);  // throws std::domain_error on /0

  friend Rat operator+(Rat lhs, const Rat& rhs) { return lhs += rhs; }
  friend Rat operator-(Rat lhs, const Rat& rhs) { return lhs -= rhs; }
  friend Rat operator*(Rat lhs, const Rat& rhs) { return lhs *= rhs; }
  friend Rat operator/(Rat lhs, const Rat& rhs) { return lhs /= rhs; }
  Rat operator-() const;

  friend bool operator==(const Rat& lhs, const Rat& rhs) {
    return lhs.num_ == rhs.num_ && lhs.den_ == rhs.den_;
  }
  friend std::strong_ordering operator<=>(const Rat& lhs, const Rat& rhs);

  [[nodiscard]] Rat abs() const;
  [[nodiscard]] BigInt floor() const;  // greatest integer <= *this
  [[nodiscard]] BigInt ceil() const;   // least integer >= *this

  [[nodiscard]] double to_double() const;
  // "a/b", or just "a" when the denominator is 1.
  [[nodiscard]] std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const Rat& value);

  [[nodiscard]] static const Rat& min(const Rat& a, const Rat& b) {
    return b < a ? b : a;
  }
  [[nodiscard]] static const Rat& max(const Rat& a, const Rat& b) {
    return a < b ? b : a;
  }

 private:
  void normalize();

  // True iff the value is exactly 1. When x is on the limb tier, `x *= 1`
  // and `x /= 1` return x unchanged through this test: the simulator
  // divides each submitted job's work by the machine speed and multiplies
  // remaining wall time by it in remaining(), the speed is 1 in most runs,
  // and the general path would pay two gcds, two divisions and two
  // multiplications to reproduce x.
  [[nodiscard]] bool is_one() const {
    return num_.is_small() && num_.small_value() == 1 && den_.is_small() &&
           den_.small_value() == 1;
  }

  // int64 fast paths; return false when any input or result leaves the
  // small tier (the caller then runs the BigInt path).
  bool add_small(const Rat& rhs, bool negate_rhs);
  bool mul_small(const Rat& rhs);
  bool div_small(const Rat& rhs);
  Rat& add_slow(const Rat& rhs, bool negate_rhs);

  BigInt num_;
  BigInt den_;  // always > 0; gcd(|num_|, den_) == 1; zero is 0/1
};

}  // namespace minmach
