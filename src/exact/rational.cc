#include "exact/rational.h"

#include <cmath>
#include <utility>

namespace geopriv {

namespace {
// Combined numerator+denominator bit size above which lazy reduction is
// abandoned and the gcd is taken immediately (see Normalize()).
constexpr size_t kLazyReduceBits = 512;
}  // namespace

void Rational::Normalize() {
  // The caller just rewrote num_/den_ in place; any previous canonical-form
  // claim is stale.
  reduced_ = false;
  if (den_.IsNegative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.IsZero()) {
    den_ = BigInt(1);
    reduced_ = true;
    return;
  }
  if (num_.FitsInt64() && den_.FitsInt64()) {
    // A native-word gcd is nearly free; keep small values canonical so the
    // fast paths keep firing downstream.
    Reduce();
    return;
  }
  // Deferring the gcd on unbounded chains of large ops (e.g. rational
  // Gauss-Jordan) grows entries exponentially — reduced entries are minors
  // and stay polynomial, unreduced ones compound.  Defer only while the
  // representation stays modest, reduce eagerly beyond the threshold.
  if (num_.BitLength() + den_.BitLength() > kLazyReduceBits) {
    Reduce();
    return;
  }
  reduced_ = false;
}

void Rational::Reduce() const {
  if (reduced_) return;
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ = *BigInt::Divide(num_, g);
    den_ = *BigInt::Divide(den_, g);
  }
  reduced_ = true;
}

Result<Rational> Rational::Create(BigInt num, BigInt den) {
  if (den.IsZero()) {
    return Status::InvalidArgument("rational with zero denominator");
  }
  Rational out(std::move(num), std::move(den), /*reduced=*/false);
  out.Normalize();
  return out;
}

Result<Rational> Rational::FromInts(int64_t num, int64_t den) {
  return Create(BigInt(num), BigInt(den));
}

Result<Rational> Rational::FromString(std::string_view text) {
  size_t slash = text.find('/');
  if (slash != std::string_view::npos) {
    GEOPRIV_ASSIGN_OR_RETURN(BigInt num,
                             BigInt::FromString(text.substr(0, slash)));
    GEOPRIV_ASSIGN_OR_RETURN(BigInt den,
                             BigInt::FromString(text.substr(slash + 1)));
    return Create(std::move(num), std::move(den));
  }
  size_t dot = text.find('.');
  if (dot != std::string_view::npos) {
    std::string digits(text.substr(0, dot));
    std::string_view frac = text.substr(dot + 1);
    if (frac.empty()) {
      return Status::InvalidArgument("decimal literal has no fraction part");
    }
    digits.append(frac);
    GEOPRIV_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(digits));
    BigInt den = BigInt::Pow(BigInt(10), frac.size());
    return Create(std::move(num), std::move(den));
  }
  GEOPRIV_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(text));
  return Rational(std::move(num));
}

std::string Rational::ToString() const {
  Reduce();
  if (den_ == BigInt(1)) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

double Rational::ToDouble() const {
  Reduce();
  // Both sides below 2^53 convert exactly, and IEEE division then rounds
  // correctly once.
  constexpr double kExact = 9007199254740992.0;  // 2^53
  const double num = num_.ToDouble();
  const double den = den_.ToDouble();
  if (std::fabs(num) < kExact && den < kExact) return num / den;
  // Otherwise divide in integers, scaled so the quotient carries 54-56
  // bits, and round that once: num/den as doubles would overflow to inf
  // (or NaN) once either side passes ~1.8e308, however tame the value.
  const int64_t scale = static_cast<int64_t>(den_.BitLength()) -
                        static_cast<int64_t>(num_.BitLength()) + 55;
  BigInt a = num_.Abs();
  BigInt b = den_;
  if (scale > 0) a *= BigInt::Pow(BigInt(2), static_cast<uint64_t>(scale));
  if (scale < 0) b *= BigInt::Pow(BigInt(2), static_cast<uint64_t>(-scale));
  const BigInt quotient = *BigInt::Divide(a, b);
  const double out =
      quotient.ToDoubleScaled(-scale, /*sticky=*/quotient * b != a);
  return num_.IsNegative() ? -out : out;
}

Rational Rational::operator-() const {
  return Rational(-num_, den_, reduced_);
}

Rational Rational::Abs() const {
  return Rational(num_.Abs(), den_, reduced_);
}

Rational& Rational::operator+=(const Rational& o) {
  if (den_ == o.den_) {
    // Shared denominator (integers, tableau rows, accumulators): one add.
    num_ += o.num_;
  } else {
    num_ *= o.den_;
    num_ += o.num_ * den_;
    den_ *= o.den_;
  }
  Normalize();
  return *this;
}

Rational& Rational::operator-=(const Rational& o) {
  if (den_ == o.den_) {
    num_ -= o.num_;
  } else {
    num_ *= o.den_;
    num_ -= o.num_ * den_;
    den_ *= o.den_;
  }
  Normalize();
  return *this;
}

Rational& Rational::operator*=(const Rational& o) {
  num_ *= o.num_;
  den_ *= o.den_;
  Normalize();
  return *this;
}

Result<Rational> Rational::Divide(const Rational& num, const Rational& den) {
  if (den.IsZero()) return Status::InvalidArgument("division by zero");
  Rational out(num.num_ * den.den_, num.den_ * den.num_, /*reduced=*/false);
  out.Normalize();
  return out;
}

Result<Rational> Rational::Inverse() const {
  if (IsZero()) return Status::InvalidArgument("inverse of zero");
  Rational out(den_, num_, reduced_);
  if (out.den_.IsNegative()) {
    out.num_ = -out.num_;
    out.den_ = -out.den_;
  }
  return out;
}

Result<Rational> Rational::Pow(int64_t exp) const {
  if (exp >= 0) {
    // Reduce first so the powered pair is born canonical
    // (gcd(p, q) == 1 implies gcd(p^k, q^k) == 1).
    Reduce();
    return Rational(BigInt::Pow(num_, static_cast<uint64_t>(exp)),
                    BigInt::Pow(den_, static_cast<uint64_t>(exp)),
                    /*reduced=*/true);
  }
  if (IsZero()) {
    return Status::InvalidArgument("zero raised to a negative power");
  }
  GEOPRIV_ASSIGN_OR_RETURN(Rational inv, Inverse());
  return inv.Pow(-exp);
}

int Rational::Compare(const Rational& o) const {
  // Sign shortcut, then cross-multiply; denominators are positive so the
  // sign is preserved.  Works on unreduced operands.
  int sa = Sign(), sb = o.Sign();
  if (sa != sb) return sa < sb ? -1 : 1;
  if (sa == 0) return 0;
  return (num_ * o.den_).Compare(o.num_ * den_);
}

}  // namespace geopriv
