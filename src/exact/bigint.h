// BigInt: arbitrary-precision signed integer.
//
// The paper's derivation matrices T = G⁻¹·M and the determinant identity
// det G'_{n,α} = (1−α²)^n involve rationals whose numerators/denominators
// grow like α^n; with α = p/q these quickly overflow 64-bit (and even
// 128-bit) integers.  BigInt gives the exact substrate on which Rational
// (rational.h) is built, so Theorem 2 / Lemma 3 can be verified with zero
// numerical error.
//
// Representation: a two-state small/large design tuned for the exact LP and
// matrix hot paths, where the overwhelming majority of values fit a machine
// word.
//   * Small: any value representable as int64_t is stored inline in
//     `small_` with no heap allocation.  Add/sub/mul/div/gcd run on native
//     integers with overflow checks and fall back to the slow path only on
//     actual overflow.
//   * Large: sign + little-endian magnitude in base 2^32.  Division is
//     Knuth's Algorithm D.  The magnitude vector never has trailing zero
//     limbs.
// The representation is canonical: a BigInt is large if and only if its
// value does not fit in int64_t, so small/large promotion and demotion are
// deterministic and comparisons can shortcut on the state.

#ifndef GEOPRIV_EXACT_BIGINT_H_
#define GEOPRIV_EXACT_BIGINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace geopriv {

/// Arbitrary-precision signed integer with value semantics.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine integer (always the small representation).
  BigInt(int64_t value) : small_(value) {}  // NOLINT(google-explicit-constructor)

  /// Parses a base-10 string, optionally signed ("-123", "+7", "0").
  static Result<BigInt> FromString(std::string_view text);

  /// Base-10 rendering.
  std::string ToString() const;

  // Queries -------------------------------------------------------------
  bool IsZero() const { return !large_ && small_ == 0; }
  bool IsNegative() const { return large_ ? negative_ : small_ < 0; }
  /// -1, 0 or +1.
  int Sign() const {
    if (large_) return negative_ ? -1 : 1;
    return small_ == 0 ? 0 : (small_ < 0 ? -1 : 1);
  }
  /// True when the value fits in int64_t (the inline representation).
  bool FitsInt64() const { return !large_; }
  /// Number of bits in the magnitude (0 for zero).
  size_t BitLength() const;
  /// Converts to int64 when representable.
  Result<int64_t> ToInt64() const;
  /// Closest double (round half to even; ±inf beyond double range).
  double ToDouble() const;
  /// Closest double to (|this| + f) * 2^exp2 with the sign of this, where
  /// 0 < f < 1 when `sticky` (nonzero bits lost below the last one, as in
  /// a truncated quotient with a remainder) and f == 0 otherwise.  Rounds
  /// once, half to even, at the result's own ulp — subnormals included —
  /// and overflows to ±inf.  Zero yields 0.0.
  double ToDoubleScaled(int64_t exp2, bool sticky) const;

  // Arithmetic ------------------------------------------------------------
  BigInt operator-() const;
  BigInt Abs() const;
  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C semantics: quotient rounds toward zero).
  /// Fails on division by zero.
  static Result<BigInt> Divide(const BigInt& num, const BigInt& den);
  /// Remainder matching Divide: num == q*den + r, |r| < |den|, sign(r) ==
  /// sign(num).  Fails on division by zero.
  static Result<BigInt> Remainder(const BigInt& num, const BigInt& den);
  /// num^exp for exp >= 0.
  static BigInt Pow(const BigInt& base, uint64_t exp);
  /// Greatest common divisor (always non-negative).
  static BigInt Gcd(BigInt a, BigInt b);

  /// In-place compound ops.  These mutate the receiver directly (native
  /// arithmetic for small values, in-place limb add/sub for large ones)
  /// instead of routing through a full temporary.
  BigInt& operator+=(const BigInt& o) {
    AddSigned(o, /*negate_o=*/false);
    return *this;
  }
  BigInt& operator-=(const BigInt& o) {
    AddSigned(o, /*negate_o=*/true);
    return *this;
  }
  BigInt& operator*=(const BigInt& o);

  // Comparison ------------------------------------------------------------
  /// Three-way compare: -1, 0, +1.
  int Compare(const BigInt& other) const;
  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

 private:
  /// Borrowed view of a little-endian base-2^32 magnitude.
  struct LimbSpan {
    const uint32_t* data;
    size_t size;
    bool empty() const { return size == 0; }
    uint32_t operator[](size_t i) const { return data[i]; }
  };

  /// |value| of the small representation in unsigned space (INT64_MIN-safe).
  uint64_t SmallMagnitude() const;
  /// Magnitude view; `scratch` backs the limbs of a small value.
  LimbSpan Magnitude(uint32_t scratch[2]) const;
  /// Installs sign+magnitude, trimming and demoting to small when it fits.
  void AssignMagnitude(bool negative, std::vector<uint32_t>&& mag);
  static BigInt FromMagnitude(bool negative, std::vector<uint32_t>&& mag);
  /// Value from an unsigned machine word (promotes above INT64_MAX).
  static BigInt FromUnsigned(uint64_t mag, bool negative);
  /// *this += (negate_o ? -o : o), mutating in place where possible.
  void AddSigned(const BigInt& o, bool negate_o);

  // Magnitude helpers (sign-agnostic).
  static int CompareMagnitude(LimbSpan a, LimbSpan b);
  static std::vector<uint32_t> AddMagnitude(LimbSpan a, LimbSpan b);
  static void AddMagnitudeInPlace(std::vector<uint32_t>* a, LimbSpan b);
  /// Requires |a| >= |b|.
  static std::vector<uint32_t> SubMagnitude(LimbSpan a, LimbSpan b);
  /// Requires |*a| >= |b|.
  static void SubMagnitudeInPlace(std::vector<uint32_t>* a, LimbSpan b);
  static std::vector<uint32_t> MulMagnitude(LimbSpan a, LimbSpan b);
  /// Knuth Algorithm D; b must be non-empty.
  static void DivModMagnitude(LimbSpan a, LimbSpan b,
                              std::vector<uint32_t>* quot,
                              std::vector<uint32_t>* rem);
  /// v = v * mul + add over the raw magnitude.
  static void MulAddSmallInPlace(std::vector<uint32_t>* v, uint32_t mul,
                                 uint32_t add);
  static void Trim(std::vector<uint32_t>* v);

  int64_t small_ = 0;            // value when !large_
  bool large_ = false;           // discriminates the representation
  bool negative_ = false;        // sign of the large magnitude
  std::vector<uint32_t> limbs_;  // large magnitude; empty when small
};

}  // namespace geopriv

#endif  // GEOPRIV_EXACT_BIGINT_H_
