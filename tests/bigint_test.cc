// Tests for BigInt: construction, string I/O, arithmetic, division
// (including randomized cross-checks against __int128), gcd and pow.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "exact/bigint.h"
#include "rng/engine.h"

namespace geopriv {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.Sign(), 0);
  EXPECT_EQ(z.ToString(), "0");
  EXPECT_EQ(z.BitLength(), 0u);
}

TEST(BigIntTest, Int64Construction) {
  EXPECT_EQ(BigInt(0).ToString(), "0");
  EXPECT_EQ(BigInt(42).ToString(), "42");
  EXPECT_EQ(BigInt(-42).ToString(), "-42");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
}

TEST(BigIntTest, StringRoundTrip) {
  for (const char* text :
       {"0", "1", "-1", "999999999999999999999999999999",
        "-123456789012345678901234567890123456789", "7"}) {
    auto v = BigInt::FromString(text);
    ASSERT_TRUE(v.ok()) << text;
    EXPECT_EQ(v->ToString(), text);
  }
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a3").ok());
  EXPECT_FALSE(BigInt::FromString("1.5").ok());
  EXPECT_TRUE(BigInt::FromString("+7").ok());
}

TEST(BigIntTest, ToInt64RoundTrip) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, INT64_MAX,
                    INT64_MIN, int64_t{1} << 40}) {
    auto back = BigInt(v).ToInt64();
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
}

TEST(BigIntTest, ToInt64OverflowDetected) {
  BigInt big = BigInt::Pow(BigInt(2), 64);
  EXPECT_FALSE(big.ToInt64().ok());
  BigInt max_plus_one = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_FALSE(max_plus_one.ToInt64().ok());
  BigInt min_val = BigInt(INT64_MIN);
  EXPECT_TRUE(min_val.ToInt64().ok());
  EXPECT_FALSE((min_val - BigInt(1)).ToInt64().ok());
}

TEST(BigIntTest, AdditionSubtractionSigns) {
  BigInt a(100), b(-30);
  EXPECT_EQ((a + b).ToString(), "70");
  EXPECT_EQ((b + a).ToString(), "70");
  EXPECT_EQ((a - b).ToString(), "130");
  EXPECT_EQ((b - a).ToString(), "-130");
  EXPECT_EQ((b + b).ToString(), "-60");
  EXPECT_TRUE((a - a).IsZero());
}

TEST(BigIntTest, MultiplicationCarries) {
  auto a = BigInt::FromString("123456789123456789");
  auto b = BigInt::FromString("987654321987654321");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a * *b).ToString(), "121932631356500531347203169112635269");
  EXPECT_EQ((*a * BigInt(0)).ToString(), "0");
  EXPECT_EQ((*a * BigInt(-1)).ToString(), "-123456789123456789");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ(BigInt::Divide(BigInt(7), BigInt(2))->ToString(), "3");
  EXPECT_EQ(BigInt::Divide(BigInt(-7), BigInt(2))->ToString(), "-3");
  EXPECT_EQ(BigInt::Divide(BigInt(7), BigInt(-2))->ToString(), "-3");
  EXPECT_EQ(BigInt::Divide(BigInt(-7), BigInt(-2))->ToString(), "3");
  EXPECT_EQ(BigInt::Remainder(BigInt(7), BigInt(2))->ToString(), "1");
  EXPECT_EQ(BigInt::Remainder(BigInt(-7), BigInt(2))->ToString(), "-1");
}

TEST(BigIntTest, DivisionByZeroFails) {
  EXPECT_FALSE(BigInt::Divide(BigInt(1), BigInt(0)).ok());
  EXPECT_FALSE(BigInt::Remainder(BigInt(1), BigInt(0)).ok());
}

TEST(BigIntTest, LargeDivisionExact) {
  // (a*b)/b == a for multi-limb values.
  auto a = BigInt::FromString("340282366920938463463374607431768211456");
  auto b = BigInt::FromString("18446744073709551629");
  ASSERT_TRUE(a.ok() && b.ok());
  BigInt product = *a * *b;
  EXPECT_EQ(BigInt::Divide(product, *b)->ToString(), a->ToString());
  EXPECT_TRUE(BigInt::Remainder(product, *b)->IsZero());
}

TEST(BigIntTest, RandomizedDivModAgainstInt128) {
  Xoshiro256 rng(314159);
  for (int trial = 0; trial < 2000; ++trial) {
    // Random numerator up to 96 bits, denominator up to 48 bits.
    __int128 num = (static_cast<__int128>(rng.Next() >> 32) << 64) |
                   rng.Next();
    uint64_t den64 = (rng.Next() >> 16) | 1;  // avoid zero
    if (rng.Next() & 1) num = -num;
    __int128 den = den64;
    if (rng.Next() & 1) den = -den;

    auto to_string128 = [](__int128 v) {
      if (v == 0) return std::string("0");
      bool neg = v < 0;
      unsigned __int128 mag = neg ? -static_cast<unsigned __int128>(v)
                                  : static_cast<unsigned __int128>(v);
      std::string out;
      while (mag) {
        out.push_back(static_cast<char>('0' + static_cast<int>(mag % 10)));
        mag /= 10;
      }
      if (neg) out.push_back('-');
      std::reverse(out.begin(), out.end());
      return out;
    };

    auto bn = BigInt::FromString(to_string128(num));
    auto bd = BigInt::FromString(to_string128(den));
    ASSERT_TRUE(bn.ok() && bd.ok());
    __int128 q = num / den;
    __int128 r = num % den;
    EXPECT_EQ(BigInt::Divide(*bn, *bd)->ToString(), to_string128(q));
    EXPECT_EQ(BigInt::Remainder(*bn, *bd)->ToString(), to_string128(r));
  }
}

TEST(BigIntTest, DivModIdentityProperty) {
  // num == q*den + r with |r| < |den| for random multi-limb inputs.
  Xoshiro256 rng(2718);
  for (int trial = 0; trial < 500; ++trial) {
    BigInt num = BigInt(static_cast<int64_t>(rng.Next() >> 1)) *
                 BigInt(static_cast<int64_t>(rng.Next() >> 1)) *
                 BigInt(static_cast<int64_t>(rng.Next() >> 40) + 1);
    BigInt den = BigInt(static_cast<int64_t>(rng.Next() >> 20) + 1) *
                 BigInt(static_cast<int64_t>(rng.Next() >> 44) + 1);
    if (rng.Next() & 1) num = -num;
    if (rng.Next() & 1) den = -den;
    BigInt q = *BigInt::Divide(num, den);
    BigInt r = *BigInt::Remainder(num, den);
    EXPECT_EQ(q * den + r, num);
    EXPECT_TRUE(r.Abs() < den.Abs());
    if (!r.IsZero()) EXPECT_EQ(r.Sign(), num.Sign());
  }
}

TEST(BigIntTest, PowMatchesRepeatedMultiplication) {
  BigInt three(3);
  BigInt acc(1);
  for (uint64_t e = 0; e <= 40; ++e) {
    EXPECT_EQ(BigInt::Pow(three, e), acc) << "e=" << e;
    acc *= three;
  }
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).ToString(),
            "1267650600228229401496703205376");
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 3).ToString(), "-8");
  EXPECT_EQ(BigInt::Pow(BigInt(0), 0).ToString(), "1");
}

TEST(BigIntTest, GcdProperties) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(5), BigInt(0)).ToString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(31)).ToString(), "1");
  // gcd divides both operands (randomized).
  Xoshiro256 rng(55);
  for (int trial = 0; trial < 200; ++trial) {
    BigInt a(static_cast<int64_t>(rng.Next() >> 8));
    BigInt b(static_cast<int64_t>(rng.Next() >> 8));
    BigInt g = BigInt::Gcd(a, b);
    if (g.IsZero()) continue;
    EXPECT_TRUE(BigInt::Remainder(a, g)->IsZero());
    EXPECT_TRUE(BigInt::Remainder(b, g)->IsZero());
  }
}

TEST(BigIntTest, ComparisonTotalOrder) {
  std::vector<BigInt> sorted = {BigInt(-100), BigInt(-1), BigInt(0),
                                BigInt(1), BigInt(99),
                                *BigInt::FromString("123456789012345678901")};
  for (size_t i = 0; i < sorted.size(); ++i) {
    for (size_t j = 0; j < sorted.size(); ++j) {
      EXPECT_EQ(sorted[i] < sorted[j], i < j);
      EXPECT_EQ(sorted[i] == sorted[j], i == j);
      EXPECT_EQ(sorted[i] >= sorted[j], i >= j);
    }
  }
}

TEST(BigIntTest, ToDoubleApproximation) {
  EXPECT_DOUBLE_EQ(BigInt(1000).ToDouble(), 1000.0);
  EXPECT_DOUBLE_EQ(BigInt(-5).ToDouble(), -5.0);
  double big = BigInt::Pow(BigInt(10), 30).ToDouble();
  EXPECT_NEAR(big, 1e30, 1e16);
}

TEST(BigIntTest, ToDoubleRoundsOnceToNearest) {
  // 2^95 + 2^42 + 1: the ulp at 2^95 is 2^43, so the tail is just over
  // half an ulp and the value rounds up.  Accumulating limb by limb
  // rounded 2^63 + 2^10 to even first and lost the +1.
  const BigInt two = BigInt(2);
  const BigInt over_half =
      BigInt::Pow(two, 95) + BigInt::Pow(two, 42) + BigInt(1);
  EXPECT_EQ(over_half.ToDouble(), std::ldexp(1.0, 95) + std::ldexp(1.0, 43));
  EXPECT_EQ((-over_half).ToDouble(),
            -(std::ldexp(1.0, 95) + std::ldexp(1.0, 43)));
  // An exact tie rounds to the even neighbor.
  EXPECT_EQ((BigInt::Pow(two, 95) + BigInt::Pow(two, 42)).ToDouble(),
            std::ldexp(1.0, 95));
  EXPECT_EQ((BigInt::Pow(two, 95) + BigInt::Pow(two, 42) * BigInt(3))
                .ToDouble(),
            std::ldexp(1.0, 95) + std::ldexp(1.0, 44));
  EXPECT_EQ(BigInt::Pow(BigInt(10), 22).ToDouble(), 1e22);
  EXPECT_EQ(BigInt::Pow(BigInt(10), 400).ToDouble(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ((-BigInt::Pow(BigInt(10), 400)).ToDouble(),
            -std::numeric_limits<double>::infinity());
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(2).BitLength(), 2u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).BitLength(), 101u);
}

}  // namespace
}  // namespace geopriv
