// Arbitrary-precision signed integers with a two-tier representation.
//
// The library computes all time arithmetic exactly (see DESIGN.md §2): the
// strong-lower-bound adversary rescales instances by quantities derived from
// the opponent's own schedule, so denominators grow without bound and no
// fixed-width integer type suffices. Generators, however, deliberately emit
// small-denominator rationals, so in bulk simulation >99% of values fit a
// machine word. BigInt therefore keeps every value that fits `int64_t` in an
// inline field (no heap allocation, overflow-checked machine arithmetic) and
// promotes to sign-magnitude 64-bit limbs (little-endian, `__uint128_t`
// intermediates, Knuth algorithm D division) only when a result overflows.
//
// Promotion invariant: the representation is canonical — a BigInt is in the
// small tier if and only if its value fits `int64_t`. Every operation
// restores this invariant on its result, so equality can compare
// representations on the fast path. (`debug_force_promote()` deliberately
// breaks the invariant for differential testing; all operations still accept
// such non-canonical *inputs* and produce canonical outputs.)
//
// Memory substrate (DESIGN.md §10): promoted magnitudes live in a
// small-buffer-optimized limb store — up to two limbs (values below 2^128,
// which covers the bulk of the strong-lb recursion; measured mean
// denominator size is ~95 bits) sit inline in the BigInt itself, larger
// magnitudes spill to a heap block whose capacity is reused across
// assignments. Intermediate magnitudes never touch the store: the
// arithmetic kernels compute into thread-arena scratch (util/arena.hpp)
// and only the canonical result is copied in, so limb-tier arithmetic is
// allocation-free in the common case.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <new>
#include <string>
#include <string_view>

namespace minmach {

struct BigIntDivMod;

namespace util {
class Hasher128;
}  // namespace util

class BigInt {
 public:
  BigInt() = default;
  // NOLINTNEXTLINE(google-explicit-constructor) intentional: ints promote to BigInt
  BigInt(std::int64_t value) : value_(value) {}
  BigInt(int value) : BigInt(static_cast<std::int64_t>(value)) {}
  BigInt(long long value) : BigInt(static_cast<std::int64_t>(value)) {}
  BigInt(unsigned int value) : BigInt(static_cast<std::int64_t>(value)) {}

  // Parses an optional leading '-' followed by decimal digits. Throws
  // std::invalid_argument on malformed input.
  static BigInt from_string(std::string_view text);

  [[nodiscard]] bool is_zero() const {
    return small_ ? value_ == 0 : limbs_.empty();
  }
  [[nodiscard]] bool is_negative() const {
    return small_ ? value_ < 0 : negative_;
  }
  [[nodiscard]] int signum() const {
    if (small_) return value_ == 0 ? 0 : (value_ < 0 ? -1 : 1);
    return limbs_.empty() ? 0 : (negative_ ? -1 : 1);
  }

  // True iff the value is held in the inline int64 tier.
  [[nodiscard]] bool is_small() const { return small_; }
  // Valid only when is_small().
  [[nodiscard]] std::int64_t small_value() const { return value_; }
  // Test hook: switch to the limb representation without demoting, so the
  // differential suite can force the slow path. Breaks the canonical-form
  // invariant for *this* object; all operations still produce canonical
  // results from such inputs.
  void debug_force_promote();

  [[nodiscard]] BigInt abs() const;
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& rhs) {
    if (small_ && rhs.small_) [[likely]] {
      std::int64_t sum;
      if (!__builtin_add_overflow(value_, rhs.value_, &sum)) [[likely]] {
        value_ = sum;
        return *this;
      }
    }
    return add_sub_slow(rhs, /*negate_rhs=*/false);
  }
  BigInt& operator-=(const BigInt& rhs) {
    if (small_ && rhs.small_) [[likely]] {
      std::int64_t diff;
      if (!__builtin_sub_overflow(value_, rhs.value_, &diff)) [[likely]] {
        value_ = diff;
        return *this;
      }
    }
    return add_sub_slow(rhs, /*negate_rhs=*/true);
  }
  BigInt& operator*=(const BigInt& rhs) {
    if (small_ && rhs.small_) [[likely]] {
      std::int64_t product;
      if (!__builtin_mul_overflow(value_, rhs.value_, &product)) [[likely]] {
        value_ = product;
        return *this;
      }
    }
    return mul_slow(rhs);
  }
  // Truncates toward zero. INT64_MIN / -1 is the one small/small quotient
  // that overflows; it promotes through the slow path.
  BigInt& operator/=(const BigInt& rhs) {
    if (small_ && rhs.small_ && rhs.value_ != 0 &&
        !(value_ == INT64_MIN_VALUE && rhs.value_ == -1)) [[likely]] {
      value_ /= rhs.value_;
      return *this;
    }
    return div_slow(rhs);
  }
  // Sign follows the dividend.
  BigInt& operator%=(const BigInt& rhs) {
    if (small_ && rhs.small_ && rhs.value_ != 0 &&
        !(value_ == INT64_MIN_VALUE && rhs.value_ == -1)) [[likely]] {
      value_ %= rhs.value_;
      return *this;
    }
    return mod_slow(rhs);
  }

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }
  BigInt operator-() const { return negated(); }

  // Quotient truncated toward zero and remainder with the dividend's sign,
  // computed in one pass. Throws std::domain_error on division by zero.
  [[nodiscard]] static BigIntDivMod div_mod(const BigInt& dividend,
                                            const BigInt& divisor);

  friend bool operator==(const BigInt& lhs, const BigInt& rhs) {
    if (lhs.small_ && rhs.small_) [[likely]] return lhs.value_ == rhs.value_;
    return compare_slow(lhs, rhs) == 0;
  }
  friend std::strong_ordering operator<=>(const BigInt& lhs,
                                          const BigInt& rhs) {
    if (lhs.small_ && rhs.small_) [[likely]] return lhs.value_ <=> rhs.value_;
    int cmp = compare_slow(lhs, rhs);
    if (cmp < 0) return std::strong_ordering::less;
    if (cmp > 0) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

  // Non-negative result; magnitude-only Euclid on arena scratch.
  [[nodiscard]] static BigInt gcd(const BigInt& a, const BigInt& b);
  [[nodiscard]] static BigInt lcm(const BigInt& a, const BigInt& b);

  // Number of significant bits of |*this| (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;

  [[nodiscard]] bool fits_int64() const;
  // Throws std::overflow_error unless fits_int64().
  [[nodiscard]] std::int64_t to_int64() const;
  // Best-effort conversion; may lose precision or return +/-inf.
  [[nodiscard]] double to_double() const;

  [[nodiscard]] std::string to_string() const;
  friend std::ostream& operator<<(std::ostream& os, const BigInt& value);

 private:
  using Limb = std::uint64_t;
  using WideLimb = unsigned __int128;
  static constexpr int kLimbBits = 64;
  static constexpr std::int64_t INT64_MIN_VALUE =
      (-0x7fffffffffffffffll - 1);
  // 4 limbs = 256 bits inline. The adversary families' denominators average
  // ~95 bits, so the inline buffer absorbs the bulk of slow-tier values
  // (the deep-recursion tail past 256 bits still spills). Wider buffers
  // were measured slower overall: every BigInt move/copy pays for the
  // inline bytes, and past 4 limbs that overtakes the mallocs saved.
  static constexpr std::size_t kInlineLimbs = 4;

  // Small-buffer-optimized magnitude storage. Magnitudes of at most
  // kInlineLimbs limbs live in `inline_`; larger ones spill to `heap_`,
  // whose capacity grows geometrically and is never released until the
  // store is destroyed or moved from — so a BigInt repeatedly assigned
  // large values allocates O(log max_size) times, not O(assignments).
  // Spills are the only heap traffic BigInt generates (tallied as
  // "mem.bigint_spill"); all intermediates use arena scratch.
  class LimbStore {
   public:
    LimbStore() = default;
    LimbStore(const LimbStore& other) { assign(other.data(), other.size_); }
    LimbStore(LimbStore&& other) noexcept { steal(other); }
    LimbStore& operator=(const LimbStore& other) {
      if (this != &other) assign(other.data(), other.size_);
      return *this;
    }
    LimbStore& operator=(LimbStore&& other) noexcept {
      if (this != &other) {
        ::operator delete(heap_);
        steal(other);
      }
      return *this;
    }
    ~LimbStore() { ::operator delete(heap_); }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] const Limb* data() const {
      return heap_ != nullptr ? heap_ : inline_;
    }
    [[nodiscard]] Limb* data() { return heap_ != nullptr ? heap_ : inline_; }
    Limb operator[](std::size_t i) const { return data()[i]; }
    [[nodiscard]] Limb back() const { return data()[size_ - 1]; }
    void clear() { size_ = 0; }
    // Copies `n` limbs in; previous contents are discarded. `src` must not
    // alias this store's own buffer when a spill can occur (all call sites
    // copy out of arena scratch or a different BigInt).
    void assign(const Limb* src, std::size_t n);
    void push_back(Limb limb);

   private:
    void steal(LimbStore& other) noexcept;
    void spill(std::size_t needed, bool preserve);

    Limb inline_[kInlineLimbs] = {};
    Limb* heap_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = kInlineLimbs;
  };

  // Small tier: small_ == true, value in value_, limbs_ empty, negative_
  // unused (false). Limb tier: small_ == false, |value| in limbs_
  // little-endian with no trailing zero limbs, sign in negative_.
  std::int64_t value_ = 0;
  LimbStore limbs_;
  bool small_ = true;
  bool negative_ = false;

  // Borrowed view of a magnitude; `scratch` backs the small tier.
  struct MagView {
    const Limb* data;
    std::size_t size;
  };
  [[nodiscard]] MagView mag_view(Limb& scratch) const;

  // Adopts a magnitude + sign and restores the canonical-form invariant
  // (demotes to the small tier whenever the value fits int64). The source
  // is borrowed (typically arena scratch) and copied into the limb store.
  void assign_mag(const Limb* mag, std::size_t size, bool negative);
  static BigInt from_mag(const Limb* mag, std::size_t size, bool negative);

  BigInt& add_sub_slow(const BigInt& rhs, bool negate_rhs);
  BigInt& mul_slow(const BigInt& rhs);
  BigInt& div_slow(const BigInt& rhs);
  BigInt& mod_slow(const BigInt& rhs);
  static int compare_slow(const BigInt& lhs, const BigInt& rhs);

  // Representation-independent value hashing (util/hash.hpp); walks the
  // magnitude through mag_view so both storage tiers hash identically.
  friend void hash_append(util::Hasher128& hasher, const BigInt& value);
};

struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

}  // namespace minmach
