// Tests for exact rational arithmetic.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

#include "exact/rational.h"
#include "rng/engine.h"

namespace geopriv {
namespace {

TEST(RationalTest, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.IsZero());
  EXPECT_EQ(r.ToString(), "0");
  EXPECT_EQ(r.denominator(), BigInt(1));
}

TEST(RationalTest, ReducesToLowestTerms) {
  auto r = Rational::FromInts(6, 8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ToString(), "3/4");
  EXPECT_EQ(Rational::FromInts(-6, 8)->ToString(), "-3/4");
  EXPECT_EQ(Rational::FromInts(6, -8)->ToString(), "-3/4");
  EXPECT_EQ(Rational::FromInts(-6, -8)->ToString(), "3/4");
  EXPECT_EQ(Rational::FromInts(8, 4)->ToString(), "2");
  EXPECT_EQ(Rational::FromInts(0, 17)->ToString(), "0");
}

TEST(RationalTest, ZeroDenominatorFails) {
  EXPECT_FALSE(Rational::FromInts(1, 0).ok());
  EXPECT_FALSE(Rational::Create(BigInt(3), BigInt(0)).ok());
}

TEST(RationalTest, FromStringFormats) {
  EXPECT_EQ(Rational::FromString("3/4")->ToString(), "3/4");
  EXPECT_EQ(Rational::FromString("-10/5")->ToString(), "-2");
  EXPECT_EQ(Rational::FromString("7")->ToString(), "7");
  EXPECT_EQ(Rational::FromString("0.25")->ToString(), "1/4");
  EXPECT_EQ(Rational::FromString("-0.125")->ToString(), "-1/8");
  EXPECT_FALSE(Rational::FromString("1/0").ok());
  EXPECT_FALSE(Rational::FromString("a/b").ok());
  EXPECT_FALSE(Rational::FromString("1.").ok());
}

TEST(RationalTest, ArithmeticExact) {
  Rational third = *Rational::FromInts(1, 3);
  Rational half = *Rational::FromInts(1, 2);
  EXPECT_EQ((third + half).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((third * half).ToString(), "1/6");
  EXPECT_EQ(Rational::Divide(third, half)->ToString(), "2/3");
  EXPECT_EQ((-third).ToString(), "-1/3");
  EXPECT_EQ(third.Abs(), (-third).Abs());
}

TEST(RationalTest, SumOfThirdsIsExactlyOne) {
  Rational third = *Rational::FromInts(1, 3);
  EXPECT_EQ(third + third + third, Rational(1));
}

TEST(RationalTest, DivisionByZeroFails) {
  EXPECT_FALSE(Rational::Divide(Rational(1), Rational(0)).ok());
  EXPECT_FALSE(Rational(0).Inverse().ok());
  EXPECT_EQ(Rational(4).Inverse()->ToString(), "1/4");
}

TEST(RationalTest, PowPositiveAndNegative) {
  Rational half = *Rational::FromInts(1, 2);
  EXPECT_EQ(half.Pow(0)->ToString(), "1");
  EXPECT_EQ(half.Pow(3)->ToString(), "1/8");
  EXPECT_EQ(half.Pow(-2)->ToString(), "4");
  EXPECT_EQ((-half).Pow(2)->ToString(), "1/4");
  EXPECT_EQ((-half).Pow(3)->ToString(), "-1/8");
  EXPECT_FALSE(Rational(0).Pow(-1).ok());
  EXPECT_EQ(Rational(0).Pow(0)->ToString(), "1");
}

TEST(RationalTest, ComparisonCrossMultiplies) {
  Rational a = *Rational::FromInts(1, 3);
  Rational b = *Rational::FromInts(2, 5);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  EXPECT_EQ(a.Compare(a), 0);
  EXPECT_LT(-b, -a);
  EXPECT_LT(Rational(-1), Rational(0));
}

TEST(RationalTest, ToDoubleMatches) {
  EXPECT_DOUBLE_EQ(Rational::FromInts(1, 4)->ToDouble(), 0.25);
  EXPECT_DOUBLE_EQ(Rational::FromInts(-7, 2)->ToDouble(), -3.5);
}

// The exact value of a finite double.
Rational ExactValue(double d) {
  int exponent = 0;
  const double fraction = std::frexp(d, &exponent);
  const int64_t mantissa = static_cast<int64_t>(std::ldexp(fraction, 53));
  exponent -= 53;
  const Rational scale(BigInt::Pow(BigInt(2), std::abs(exponent)));
  return exponent >= 0 ? Rational(mantissa) * scale
                       : *Rational::Divide(Rational(mantissa), scale);
}

// True when `d` is a double nearest to `r`: no neighbor of d is closer,
// compared exactly.
bool IsNearestDouble(const Rational& r, double d) {
  if (!std::isfinite(d)) return false;
  const Rational error = (r - ExactValue(d)).Abs();
  for (double neighbor :
       {std::nextafter(d, -std::numeric_limits<double>::infinity()),
        std::nextafter(d, std::numeric_limits<double>::infinity())}) {
    if (std::isfinite(neighbor) &&
        (r - ExactValue(neighbor)).Abs() < error) {
      return false;
    }
  }
  return true;
}

TEST(RationalTest, ToDoubleSurvivesHugeNumeratorAndDenominator) {
  // (9/10)^400: both sides pass 1e308, the value is ~4.97e-19.
  const Rational power = *Rational::FromInts(9, 10)->Pow(400);
  const double d = power.ToDouble();
  EXPECT_NEAR(d, 4.97e-19, 0.01e-19);
  EXPECT_TRUE(IsNearestDouble(power, d));
  // huge/huge close to 1/3.
  const BigInt big = BigInt::Pow(BigInt(10), 400);
  const Rational third = *Rational::Create(big + BigInt(1), big * BigInt(3));
  EXPECT_EQ(third.ToDouble(), 1.0 / 3.0);
  EXPECT_EQ((-third).ToDouble(), -1.0 / 3.0);
  EXPECT_TRUE(IsNearestDouble(third, third.ToDouble()));
  // Beyond double range either way.
  EXPECT_EQ(Rational(big).ToDouble(), std::numeric_limits<double>::infinity());
  EXPECT_EQ((*Rational::Create(BigInt(1), big)).ToDouble(), 0.0);
}

TEST(RationalTest, ToDoubleRoundsIntoTheSubnormals) {
  const BigInt two = BigInt(2);
  const double min_sub = std::numeric_limits<double>::denorm_min();
  const Rational seven_e310 =
      *Rational::Create(BigInt(7), BigInt::Pow(BigInt(10), 310));
  EXPECT_EQ(seven_e310.ToDouble(), 7e-310);
  EXPECT_TRUE(IsNearestDouble(seven_e310, seven_e310.ToDouble()));
  EXPECT_EQ(Rational::Create(BigInt(1), BigInt::Pow(two, 1074))->ToDouble(),
            min_sub);
  // 1.5 and 0.5 smallest subnormals: ties round to the even neighbor.
  EXPECT_EQ(Rational::Create(BigInt(3), BigInt::Pow(two, 1075))->ToDouble(),
            2 * min_sub);
  EXPECT_EQ(Rational::Create(BigInt(1), BigInt::Pow(two, 1075))->ToDouble(),
            0.0);
  // Just above the 0.5 tie rounds up.
  EXPECT_EQ(Rational::Create(BigInt::Pow(two, 1000) + BigInt(1),
                             BigInt::Pow(two, 2075))
                ->ToDouble(),
            min_sub);
}

TEST(RationalTest, ToDoubleIsTheNearestDouble) {
  Xoshiro256 rng(2024);
  auto random_bigint = [&rng](int limbs) {
    BigInt value(0);
    for (int i = 0; i < limbs; ++i) {
      value = value * BigInt(int64_t{1} << 32) +
              BigInt(static_cast<int64_t>(rng.Next() >> 32));
    }
    return value + BigInt(1);
  };
  // Up to 31 limbs (992 bits) a side: past double range in both numerator
  // and denominator, while every quotient stays a normal double.
  for (int trial = 0; trial < 300; ++trial) {
    const int num_limbs = 1 + static_cast<int>(rng.Next() % 31);
    const int den_limbs = 1 + static_cast<int>(rng.Next() % 31);
    BigInt num = random_bigint(num_limbs);
    if (rng.Next() % 2 == 0) num = -num;
    const Rational r = *Rational::Create(num, random_bigint(den_limbs));
    const double d = r.ToDouble();
    EXPECT_TRUE(IsNearestDouble(r, d)) << r.ToString() << " -> " << d;
  }
  // Small operands take the division fast path, which is exact IEEE.
  EXPECT_EQ(Rational::FromInts(9, 10)->ToDouble(), 9.0 / 10.0);
  EXPECT_TRUE(IsNearestDouble(*Rational::FromInts(9, 10), 0.9));
}

TEST(RationalTest, FieldAxiomsRandomized) {
  Xoshiro256 rng(777);
  auto random_rational = [&rng]() {
    int64_t num = static_cast<int64_t>(rng.Next() % 2001) - 1000;
    int64_t den = static_cast<int64_t>(rng.Next() % 1000) + 1;
    return *Rational::FromInts(num, den);
  };
  for (int trial = 0; trial < 300; ++trial) {
    Rational a = random_rational();
    Rational b = random_rational();
    Rational c = random_rational();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + Rational(0), a);
    EXPECT_EQ(a * Rational(1), a);
    EXPECT_TRUE((a - a).IsZero());
    if (!a.IsZero()) {
      EXPECT_EQ(a * *a.Inverse(), Rational(1));
    }
  }
}

TEST(RationalTest, LargeValuesStayExact) {
  // (2/3)^50 + (1/3)^50 computed exactly.
  Rational two_thirds = *Rational::FromInts(2, 3);
  Rational one_third = *Rational::FromInts(1, 3);
  Rational sum = *two_thirds.Pow(50) + *one_third.Pow(50);
  Rational expected = *Rational::Create(
      BigInt::Pow(BigInt(2), 50) + BigInt(1), BigInt::Pow(BigInt(3), 50));
  EXPECT_EQ(sum, expected);
}

}  // namespace
}  // namespace geopriv
