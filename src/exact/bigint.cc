#include "exact/bigint.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>

namespace geopriv {

namespace {

constexpr uint64_t kBase = 1ULL << 32;
// Magnitude of INT64_MIN; the one int64 whose |value| has bit 63 set.
constexpr uint64_t kInt64MinMagnitude = 1ULL << 63;

// The double nearest to (m + f) * 2^exp2, where 0 < f < 1 iff `sticky`
// and m != 0.  m is first normalized to 64 bits, so at least 11 bits lie
// below a double's 53 and `sticky` only ever breaks exact ties.
double RoundToDouble(uint64_t m, bool sticky, int64_t exp2) {
  const int lead = __builtin_clzll(m);
  m <<= lead;
  exp2 -= lead;
  const int64_t top = 63 + exp2;  // the value lies in [2^top, 2^(top+1))
  if (top > 1023) return std::numeric_limits<double>::infinity();
  const int64_t ulp = std::max<int64_t>(top - 52, -1074);
  const int64_t drop = ulp - exp2;  // low bits of m that round away
  if (drop > 64) return 0.0;        // below half the smallest subnormal
  const uint64_t kept = drop == 64 ? 0 : m >> drop;
  const uint64_t rest = drop == 64 ? m : m & ((uint64_t{1} << drop) - 1);
  const uint64_t half = uint64_t{1} << (drop - 1);
  const bool up = rest > half || (rest == half && (sticky || (kept & 1) != 0));
  return std::ldexp(static_cast<double>(kept + (up ? 1 : 0)),
                    static_cast<int>(ulp));
}

uint64_t GcdU64(uint64_t a, uint64_t b) {
  while (b != 0) {
    uint64_t r = a % b;
    a = b;
    b = r;
  }
  return a;
}

}  // namespace

uint64_t BigInt::SmallMagnitude() const {
  return small_ < 0 ? ~static_cast<uint64_t>(small_) + 1
                    : static_cast<uint64_t>(small_);
}

BigInt::LimbSpan BigInt::Magnitude(uint32_t scratch[2]) const {
  if (large_) return {limbs_.data(), limbs_.size()};
  uint64_t mag = SmallMagnitude();
  size_t n = 0;
  if (mag != 0) {
    scratch[n++] = static_cast<uint32_t>(mag & 0xffffffffULL);
    if (mag >> 32) scratch[n++] = static_cast<uint32_t>(mag >> 32);
  }
  return {scratch, n};
}

void BigInt::AssignMagnitude(bool negative, std::vector<uint32_t>&& mag) {
  Trim(&mag);
  if (mag.size() <= 2) {
    uint64_t v = 0;
    if (mag.size() >= 1) v = mag[0];
    if (mag.size() == 2) v |= static_cast<uint64_t>(mag[1]) << 32;
    if (!negative && v <= static_cast<uint64_t>(INT64_MAX)) {
      small_ = static_cast<int64_t>(v);
      large_ = false;
      negative_ = false;
      limbs_.clear();
      return;
    }
    if (negative && v <= kInt64MinMagnitude) {
      small_ = static_cast<int64_t>(~v + 1);
      large_ = false;
      negative_ = false;
      limbs_.clear();
      return;
    }
  }
  large_ = true;
  negative_ = negative;
  limbs_ = std::move(mag);
}

BigInt BigInt::FromMagnitude(bool negative, std::vector<uint32_t>&& mag) {
  BigInt out;
  out.AssignMagnitude(negative, std::move(mag));
  return out;
}

BigInt BigInt::FromUnsigned(uint64_t mag, bool negative) {
  if (!negative && mag <= static_cast<uint64_t>(INT64_MAX)) {
    return BigInt(static_cast<int64_t>(mag));
  }
  if (negative && mag <= kInt64MinMagnitude) {
    return BigInt(static_cast<int64_t>(~mag + 1));
  }
  std::vector<uint32_t> limbs;
  limbs.push_back(static_cast<uint32_t>(mag & 0xffffffffULL));
  if (mag >> 32) limbs.push_back(static_cast<uint32_t>(mag >> 32));
  return FromMagnitude(negative, std::move(limbs));
}

void BigInt::Trim(std::vector<uint32_t>* v) {
  while (!v->empty() && v->back() == 0) v->pop_back();
}

void BigInt::MulAddSmallInPlace(std::vector<uint32_t>* v, uint32_t mul,
                                uint32_t add) {
  uint64_t carry = add;
  for (uint32_t& limb : *v) {
    uint64_t cur = static_cast<uint64_t>(limb) * mul + carry;
    limb = static_cast<uint32_t>(cur & 0xffffffffULL);
    carry = cur >> 32;
  }
  if (carry) v->push_back(static_cast<uint32_t>(carry));
}

Result<BigInt> BigInt::FromString(std::string_view text) {
  if (text.empty()) return Status::InvalidArgument("empty integer literal");
  bool negative = false;
  size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size()) {
    return Status::InvalidArgument("integer literal has no digits");
  }
  // Accumulate in a machine word while it fits; spill into limbs only for
  // genuinely large literals.
  uint64_t acc = 0;
  bool overflowed = false;
  std::vector<uint32_t> limbs;
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (!std::isdigit(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument("invalid digit in integer literal");
    }
    uint32_t digit = static_cast<uint32_t>(c - '0');
    if (!overflowed) {
      if (acc > (UINT64_MAX - digit) / 10) {
        overflowed = true;
        limbs.push_back(static_cast<uint32_t>(acc & 0xffffffffULL));
        limbs.push_back(static_cast<uint32_t>(acc >> 32));
        MulAddSmallInPlace(&limbs, 10, digit);
      } else {
        acc = acc * 10 + digit;
      }
    } else {
      MulAddSmallInPlace(&limbs, 10, digit);
    }
  }
  if (!overflowed) return FromUnsigned(acc, negative);
  return FromMagnitude(negative, std::move(limbs));
}

std::string BigInt::ToString() const {
  if (!large_) return std::to_string(small_);
  // Repeatedly divide the magnitude by 10^9 and emit 9-digit chunks.
  std::vector<uint32_t> mag = limbs_;
  std::string digits;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / 1000000000ULL);
      rem = cur % 1000000000ULL;
    }
    Trim(&mag);
    for (int k = 0; k < 9; ++k) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

size_t BigInt::BitLength() const {
  if (!large_) {
    uint64_t mag = SmallMagnitude();
    size_t bits = 0;
    while (mag != 0) {
      ++bits;
      mag >>= 1;
    }
    return bits;
  }
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

Result<int64_t> BigInt::ToInt64() const {
  // Canonical representation: large values never fit in int64.
  if (large_) return Status::OutOfRange("BigInt exceeds int64");
  return small_;
}

double BigInt::ToDouble() const {
  // int64 -> double is a single correctly rounded conversion.
  if (!large_) return static_cast<double>(small_);
  return ToDoubleScaled(0, /*sticky=*/false);
}

double BigInt::ToDoubleScaled(int64_t exp2, bool sticky) const {
  uint64_t top = SmallMagnitude();
  if (large_) {
    // The magnitude's leading 64 bits (a large value has at least 64),
    // with every bit below them folded into `sticky`.
    const size_t low = BitLength() - 64;
    const size_t limb = low / 32;
    const unsigned shift = low % 32;
    unsigned __int128 window = 0;
    for (size_t k = std::min(limbs_.size(), limb + 3); k-- > limb;) {
      window = (window << 32) | limbs_[k];
    }
    top = static_cast<uint64_t>(window >> shift);
    sticky |= (limbs_[limb] & ((uint32_t{1} << shift) - 1)) != 0;
    for (size_t k = 0; k < limb && !sticky; ++k) sticky = limbs_[k] != 0;
    exp2 += static_cast<int64_t>(low);
  }
  if (top == 0) return 0.0;
  const double out = RoundToDouble(top, sticky, exp2);
  return IsNegative() ? -out : out;
}

BigInt BigInt::operator-() const {
  if (!large_) {
    if (small_ != INT64_MIN) return BigInt(-small_);
    return FromUnsigned(kInt64MinMagnitude, /*negative=*/false);
  }
  // Canonicalize: negating +2^63 lands back on INT64_MIN (small).
  return FromMagnitude(!negative_, std::vector<uint32_t>(limbs_));
}

BigInt BigInt::Abs() const {
  if (!large_) {
    if (small_ != INT64_MIN) return BigInt(small_ < 0 ? -small_ : small_);
    return FromUnsigned(kInt64MinMagnitude, /*negative=*/false);
  }
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

int BigInt::CompareMagnitude(LimbSpan a, LimbSpan b) {
  if (a.size != b.size) return a.size < b.size ? -1 : 1;
  for (size_t i = a.size; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (!large_ && !other.large_) {
    if (small_ != other.small_) return small_ < other.small_ ? -1 : 1;
    return 0;
  }
  bool an = IsNegative(), bn = other.IsNegative();
  if (an != bn) return an ? -1 : 1;
  int mag;
  if (large_ != other.large_) {
    // Canonical: a large magnitude always exceeds a small one.
    mag = large_ ? 1 : -1;
  } else {
    mag = CompareMagnitude({limbs_.data(), limbs_.size()},
                           {other.limbs_.data(), other.limbs_.size()});
  }
  return an ? -mag : mag;
}

std::vector<uint32_t> BigInt::AddMagnitude(LimbSpan a, LimbSpan b) {
  LimbSpan big = a.size >= b.size ? a : b;
  LimbSpan small = a.size >= b.size ? b : a;
  std::vector<uint32_t> out;
  out.reserve(big.size + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < big.size; ++i) {
    uint64_t sum = carry + big[i] + (i < small.size ? small[i] : 0);
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffULL));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

void BigInt::AddMagnitudeInPlace(std::vector<uint32_t>* a, LimbSpan b) {
  if (a->size() < b.size) a->resize(b.size, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    if (carry == 0 && i >= b.size) return;  // nothing left to propagate
    uint64_t sum = carry + (*a)[i] + (i < b.size ? b[i] : 0);
    (*a)[i] = static_cast<uint32_t>(sum & 0xffffffffULL);
    carry = sum >> 32;
  }
  if (carry) a->push_back(static_cast<uint32_t>(carry));
}

std::vector<uint32_t> BigInt::SubMagnitude(LimbSpan a, LimbSpan b) {
  std::vector<uint32_t> out;
  out.reserve(a.size);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size; ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  Trim(&out);
  return out;
}

void BigInt::SubMagnitudeInPlace(std::vector<uint32_t>* a, LimbSpan b) {
  int64_t borrow = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    if (borrow == 0 && i >= b.size) break;
    int64_t diff = static_cast<int64_t>((*a)[i]) - borrow -
                   (i < b.size ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    (*a)[i] = static_cast<uint32_t>(diff);
  }
  Trim(a);
}

std::vector<uint32_t> BigInt::MulMagnitude(LimbSpan a, LimbSpan b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size + b.size, 0);
  for (size_t i = 0; i < a.size; ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    for (size_t j = 0; j < b.size; ++j) {
      uint64_t cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    size_t k = i + b.size;
    while (carry) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
      ++k;
    }
  }
  Trim(&out);
  return out;
}

void BigInt::DivModMagnitude(LimbSpan a, LimbSpan b,
                             std::vector<uint32_t>* quot,
                             std::vector<uint32_t>* rem) {
  quot->clear();
  rem->clear();
  if (CompareMagnitude(a, b) < 0) {
    rem->assign(a.data, a.data + a.size);
    Trim(rem);
    return;
  }
  if (b.size == 1) {
    // Fast path: single-limb divisor.
    uint64_t d = b[0];
    quot->assign(a.size, 0);
    uint64_t r = 0;
    for (size_t i = a.size; i-- > 0;) {
      uint64_t cur = (r << 32) | a[i];
      (*quot)[i] = static_cast<uint32_t>(cur / d);
      r = cur % d;
    }
    Trim(quot);
    if (r) rem->push_back(static_cast<uint32_t>(r));
    return;
  }

  // Knuth Algorithm D.  Normalize so the top divisor limb has its high bit
  // set, which makes the 2-limb quotient estimate off by at most 2.
  int shift = 0;
  uint32_t top = b[b.size - 1];
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  auto shifted = [shift](LimbSpan src) {
    std::vector<uint32_t> out(src.size + 1, 0);
    for (size_t i = 0; i < src.size; ++i) {
      out[i] |= src[i] << shift;
      if (shift)
        out[i + 1] |= static_cast<uint32_t>(
            static_cast<uint64_t>(src[i]) >> (32 - shift));
    }
    return out;  // intentionally not trimmed: u keeps an extra high limb
  };
  std::vector<uint32_t> u = shifted(a);
  std::vector<uint32_t> v = shifted(b);
  Trim(&v);
  const size_t n = v.size();
  const size_t m = u.size() - n - 1 + 1;  // number of quotient limbs
  quot->assign(m, 0);

  const uint64_t vtop = v[n - 1];
  const uint64_t vsecond = n >= 2 ? v[n - 2] : 0;
  for (size_t j = m; j-- > 0;) {
    uint64_t numerator =
        (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numerator / vtop;
    uint64_t rhat = numerator % vtop;
    if (qhat > 0xffffffffULL) {
      qhat = 0xffffffffULL;
      rhat = numerator - qhat * vtop;
    }
    // n >= 2 here (single-limb divisors take the fast path above), so
    // u[j + n - 2] is always a valid index.
    while (rhat <= 0xffffffffULL &&
           qhat * vsecond > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += vtop;
    }
    // Multiply-subtract qhat * v from u[j .. j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      int64_t t = static_cast<int64_t>(u[i + j]) -
                  static_cast<int64_t>(p & 0xffffffffULL) - borrow;
      if (t < 0) {
        t += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<uint32_t>(t);
    }
    int64_t t = static_cast<int64_t>(u[j + n]) -
                static_cast<int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add v back.
      t += static_cast<int64_t>(kBase);
      --qhat;
      uint64_t c2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t s = static_cast<uint64_t>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<uint32_t>(s & 0xffffffffULL);
        c2 = s >> 32;
      }
      t += static_cast<int64_t>(c2);
      t &= static_cast<int64_t>(kBase) - 1;
    }
    u[j + n] = static_cast<uint32_t>(t);
    (*quot)[j] = static_cast<uint32_t>(qhat);
  }
  Trim(quot);

  // Denormalize the remainder.
  std::vector<uint32_t> r(u.begin(), u.begin() + static_cast<long>(n));
  if (shift) {
    for (size_t i = 0; i + 1 < r.size(); ++i) {
      r[i] = (r[i] >> shift) |
             static_cast<uint32_t>(static_cast<uint64_t>(r[i + 1])
                                   << (32 - shift));
    }
    r[r.size() - 1] >>= shift;
  }
  Trim(&r);
  *rem = std::move(r);
}

void BigInt::AddSigned(const BigInt& o, bool negate_o) {
  if (!large_ && !o.large_) {
    // Negating INT64_MIN overflows; that single case takes the slow path.
    if (!(negate_o && o.small_ == INT64_MIN)) {
      int64_t rhs = negate_o ? -o.small_ : o.small_;
      int64_t r;
      if (!__builtin_add_overflow(small_, rhs, &r)) {
        small_ = r;
        return;
      }
    }
  }
  const bool an = IsNegative();
  const bool bn = negate_o ? !o.IsNegative() : o.IsNegative();
  uint32_t sa[2], sb[2];
  LimbSpan ma = Magnitude(sa);
  LimbSpan mb = o.Magnitude(sb);
  if (an == bn) {
    if (large_) {
      // Same-sign addition only grows the magnitude: stays large.
      AddMagnitudeInPlace(&limbs_, mb);
      return;
    }
    AssignMagnitude(an, AddMagnitude(ma, mb));
    return;
  }
  int cmp = CompareMagnitude(ma, mb);
  if (cmp == 0) {
    *this = BigInt();
    return;
  }
  if (cmp > 0) {
    if (large_) {
      SubMagnitudeInPlace(&limbs_, mb);
      std::vector<uint32_t> mag = std::move(limbs_);
      AssignMagnitude(an, std::move(mag));
    } else {
      AssignMagnitude(an, SubMagnitude(ma, mb));
    }
    return;
  }
  AssignMagnitude(bn, SubMagnitude(mb, ma));
}

BigInt BigInt::operator+(const BigInt& other) const {
  if (!large_ && !other.large_) {
    int64_t r;
    if (!__builtin_add_overflow(small_, other.small_, &r)) return BigInt(r);
  }
  BigInt out = *this;
  out.AddSigned(other, /*negate_o=*/false);
  return out;
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (!large_ && !other.large_) {
    int64_t r;
    if (!__builtin_sub_overflow(small_, other.small_, &r)) return BigInt(r);
  }
  BigInt out = *this;
  out.AddSigned(other, /*negate_o=*/true);
  return out;
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (!large_ && !other.large_) {
    int64_t r;
    if (!__builtin_mul_overflow(small_, other.small_, &r)) return BigInt(r);
  }
  uint32_t sa[2], sb[2];
  return FromMagnitude(IsNegative() != other.IsNegative(),
                       MulMagnitude(Magnitude(sa), other.Magnitude(sb)));
}

BigInt& BigInt::operator*=(const BigInt& o) {
  if (!large_ && !o.large_) {
    int64_t r;
    if (!__builtin_mul_overflow(small_, o.small_, &r)) {
      small_ = r;
      return *this;
    }
  }
  // A limb product cannot alias its inputs; build into a fresh vector and
  // move it in (one allocation, no extra copy).
  uint32_t sa[2], sb[2];
  AssignMagnitude(IsNegative() != o.IsNegative(),
                  MulMagnitude(Magnitude(sa), o.Magnitude(sb)));
  return *this;
}

Result<BigInt> BigInt::Divide(const BigInt& num, const BigInt& den) {
  if (den.IsZero()) return Status::InvalidArgument("division by zero");
  if (!num.large_ && !den.large_) {
    // INT64_MIN / -1 is the lone overflowing quotient.
    if (!(num.small_ == INT64_MIN && den.small_ == -1)) {
      return BigInt(num.small_ / den.small_);
    }
    return FromUnsigned(kInt64MinMagnitude, /*negative=*/false);
  }
  uint32_t sa[2], sb[2];
  std::vector<uint32_t> q, r;
  DivModMagnitude(num.Magnitude(sa), den.Magnitude(sb), &q, &r);
  return FromMagnitude(num.IsNegative() != den.IsNegative(), std::move(q));
}

Result<BigInt> BigInt::Remainder(const BigInt& num, const BigInt& den) {
  if (den.IsZero()) return Status::InvalidArgument("division by zero");
  if (!num.large_ && !den.large_) {
    // den == ±1 divides everything (and INT64_MIN % -1 is UB in C++).
    if (den.small_ == 1 || den.small_ == -1) return BigInt(0);
    return BigInt(num.small_ % den.small_);
  }
  uint32_t sa[2], sb[2];
  std::vector<uint32_t> q, r;
  DivModMagnitude(num.Magnitude(sa), den.Magnitude(sb), &q, &r);
  return FromMagnitude(num.IsNegative(), std::move(r));
}

BigInt BigInt::Pow(const BigInt& base, uint64_t exp) {
  BigInt result(1);
  BigInt b = base;
  while (exp > 0) {
    if (exp & 1) result *= b;
    b *= b;
    exp >>= 1;
  }
  return result;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  // Both small: native Euclid on unsigned magnitudes.
  if (!a.large_ && !b.large_) {
    return FromUnsigned(GcdU64(a.SmallMagnitude(), b.SmallMagnitude()),
                        /*negative=*/false);
  }
  // Mixed small/large: one exact remainder collapses to the small case.
  if (!a.large_ || !b.large_) {
    BigInt& small = a.large_ ? b : a;
    BigInt& large = a.large_ ? a : b;
    if (small.IsZero()) return large.Abs();
    BigInt r = *Remainder(large, small);  // |r| < |small| fits int64
    return FromUnsigned(GcdU64(small.SmallMagnitude(), r.SmallMagnitude()),
                        /*negative=*/false);
  }
  a.negative_ = false;
  b.negative_ = false;
  while (!b.IsZero()) {
    BigInt r = *Remainder(a, b);
    a = std::move(b);
    b = std::move(r);
  }
  return a.Abs();
}

}  // namespace geopriv
