// Tests for the exact-rational versions of the paper's LPs: Theorem 1
// part 2 with exact equality, and the exact Table 1 artifacts.

#include <gtest/gtest.h>

#include "core/geometric.h"
#include "core/optimal.h"
#include "core/optimal_exact.h"
#include "core/privacy.h"

namespace geopriv {
namespace {

Rational R(int64_t num, int64_t den = 1) {
  return *Rational::FromInts(num, den);
}

TEST(ExactLossTest, FactoriesAndMonotonicity) {
  EXPECT_EQ(ExactLossFunction::AbsoluteError()(2, 5), R(3));
  EXPECT_EQ(ExactLossFunction::SquaredError()(2, 5), R(9));
  EXPECT_EQ(ExactLossFunction::ZeroOne()(2, 5), R(1));
  EXPECT_EQ(ExactLossFunction::ZeroOne()(5, 5), R(0));
  EXPECT_TRUE(ExactLossFunction::AbsoluteError().ValidateMonotone(8).ok());
  auto bad = ExactLossFunction::FromFunction(
      "bad", [](int i, int r) { return R(10 - std::abs(i - r)); });
  EXPECT_FALSE(bad.ValidateMonotone(12).ok());
}

TEST(ExactWorstCaseLossTest, MatchesHandComputation) {
  // Uniform mechanism over {0,1,2}: worst absolute loss is 1 (at i=0,2).
  RationalMatrix uniform(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) uniform.At(i, j) = R(1, 3);
  }
  auto loss = ExactWorstCaseLoss(uniform, ExactLossFunction::AbsoluteError(),
                                 SideInformation::All(2));
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(*loss, R(1));
  auto middle = ExactWorstCaseLoss(uniform,
                                   ExactLossFunction::AbsoluteError(),
                                   *SideInformation::FromSet({1}, 2));
  ASSERT_TRUE(middle.ok());
  EXPECT_EQ(*middle, R(2, 3));
}

TEST(ExactOptimalTest, Table1ExactOptimumIs168Over415) {
  // The exact optimal minimax loss for the paper's Table 1 consumer
  // (n = 3, alpha = 1/4, l = |i-r|, S = {0..3}).  The paper's printed
  // tables are rounded; the exact value is 168/415 ≈ 0.404819.
  Rational alpha = R(1, 4);
  auto result = SolveOptimalMechanismExact(
      3, alpha, ExactLossFunction::AbsoluteError(), SideInformation::All(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->loss, R(168, 415));
  EXPECT_TRUE(result->matrix.IsRowStochastic());
  EXPECT_TRUE(*CheckDifferentialPrivacyExact(result->matrix, alpha));
}

TEST(ExactOptimalTest, Table1ExactInteractionEntries) {
  // The exact optimal interaction with G_{3,1/4} maps output 0 to
  // {0: 68/83, 1: 15/83} (the paper prints the rounded 9/11, 2/11).
  Rational alpha = R(1, 4);
  auto g = GeometricMechanism::BuildExactMatrix(3, alpha);
  ASSERT_TRUE(g.ok());
  auto result = SolveOptimalInteractionExact(
      *g, ExactLossFunction::AbsoluteError(), SideInformation::All(3));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->loss, R(168, 415));
  EXPECT_EQ(result->matrix.At(0, 0), R(68, 83));
  EXPECT_EQ(result->matrix.At(0, 1), R(15, 83));
  EXPECT_EQ(result->matrix.At(1, 1), R(1));
  EXPECT_EQ(result->matrix.At(2, 2), R(1));
  EXPECT_EQ(result->matrix.At(3, 2), R(15, 83));
  EXPECT_EQ(result->matrix.At(3, 3), R(68, 83));
}

struct ExactCase {
  int n;
  int alpha_num;
  int alpha_den;
  const char* loss;
  int lo;
  int hi;
};

class ExactUniversalityTest : public ::testing::TestWithParam<ExactCase> {};

ExactLossFunction ExactLossByName(const std::string& name) {
  if (name == "absolute") return ExactLossFunction::AbsoluteError();
  if (name == "squared") return ExactLossFunction::SquaredError();
  return ExactLossFunction::ZeroOne();
}

TEST_P(ExactUniversalityTest, Theorem1HoldsWithExactEquality) {
  const ExactCase& tc = GetParam();
  Rational alpha = R(tc.alpha_num, tc.alpha_den);
  ExactLossFunction loss = ExactLossByName(tc.loss);
  auto side = SideInformation::Interval(tc.lo, tc.hi, tc.n);
  ASSERT_TRUE(side.ok());

  auto optimal = SolveOptimalMechanismExact(tc.n, alpha, loss, *side);
  ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();

  auto g = GeometricMechanism::BuildExactMatrix(tc.n, alpha);
  ASSERT_TRUE(g.ok());
  auto interaction = SolveOptimalInteractionExact(*g, loss, *side);
  ASSERT_TRUE(interaction.ok()) << interaction.status().ToString();

  // Theorem 1 part 2 with zero tolerance.
  EXPECT_EQ(interaction->loss, optimal->loss)
      << "exact losses differ: interaction "
      << interaction->loss.ToString() << " vs optimal "
      << optimal->loss.ToString();

  // The induced mechanism is exactly alpha-DP and achieves that loss.
  RationalMatrix induced = *g * interaction->matrix;
  EXPECT_TRUE(induced.IsRowStochastic());
  EXPECT_TRUE(*CheckDifferentialPrivacyExact(induced, alpha));
  auto induced_loss = ExactWorstCaseLoss(induced, loss, *side);
  ASSERT_TRUE(induced_loss.ok());
  EXPECT_EQ(*induced_loss, interaction->loss);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactUniversalityTest,
    ::testing::Values(ExactCase{3, 1, 4, "absolute", 0, 3},
                      ExactCase{3, 1, 4, "squared", 0, 3},
                      ExactCase{3, 1, 4, "zero-one", 0, 3},
                      ExactCase{4, 1, 2, "absolute", 1, 4},
                      ExactCase{4, 1, 2, "squared", 0, 2},
                      ExactCase{5, 2, 3, "absolute", 0, 5},
                      ExactCase{5, 1, 3, "zero-one", 2, 5},
                      ExactCase{6, 1, 2, "squared", 2, 4}),
    [](const ::testing::TestParamInfo<ExactCase>& info) {
      const ExactCase& c = info.param;
      std::string name = "n" + std::to_string(c.n) + "_a" +
                         std::to_string(c.alpha_num) + "over" +
                         std::to_string(c.alpha_den) + "_" + c.loss + "_S" +
                         std::to_string(c.lo) + "to" + std::to_string(c.hi);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// The interaction LP's structural guarantees: every right-hand side is
// non-negative, so a cold solve starts from the slack basis and never runs
// phase 1, and the returned T is row-stochastic with no mass outside
// hull(S).  Grid of theorem1_service_test: n 1..12, S = {0..n} and one
// interior interval, five alphas, three losses.
TEST(ExactInteractionTest, ColdSolvesSkipPhase1AndStayOnHullOfS) {
  const std::vector<Rational> alphas = {R(1, 2), R(1, 3), R(1, 4), R(2, 3),
                                        R(9, 10)};
  int checked = 0;
  for (int n = 1; n <= 12; ++n) {
    std::vector<std::pair<int, int>> sides = {{0, n}};
    if (n >= 2) {
      sides.push_back(n % 2 == 0 ? std::make_pair(1, n - 1)
                                 : std::make_pair(n / 3, 2 * n / 3));
    }
    for (const Rational& alpha : alphas) {
      auto g = GeometricMechanism::BuildExactMatrix(n, alpha);
      ASSERT_TRUE(g.ok());
      for (const auto& [lo, hi] : sides) {
        auto side = SideInformation::Interval(lo, hi, n);
        ASSERT_TRUE(side.ok());
        for (const char* name : {"absolute", "squared", "zero-one"}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " alpha=" +
                       alpha.ToString() + " S=" + side->ToString() + " " +
                       name);
          const ExactLossFunction loss = ExactLossByName(name);
          auto result = SolveOptimalInteractionExact(*g, loss, *side);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_FALSE(result->warm_started);
          EXPECT_EQ(result->phase1_iterations, 0);
          const RationalMatrix& t = result->matrix;
          EXPECT_TRUE(t.IsRowStochastic());
          for (size_t r = 0; r < t.rows(); ++r) {
            for (size_t rp = 0; rp < t.cols(); ++rp) {
              if (static_cast<int>(rp) < lo || static_cast<int>(rp) > hi) {
                EXPECT_TRUE(t.At(r, rp).IsZero()) << r << "," << rp;
              }
            }
          }
          auto induced = ExactWorstCaseLoss(*g * t, loss, *side);
          ASSERT_TRUE(induced.ok());
          EXPECT_EQ(*induced, result->loss);
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(checked, 345);
}

TEST(ExactInteractionTest, NonIntervalSideAndAsymmetricLossReachTheOptimum) {
  // S = {1, 4, 7} leaves gaps inside hull(S); the loss charges overshoot
  // and undershoot differently and is positive on the diagonal, so
  // l(i, r0) differs across S.
  const int n = 8;
  auto side = SideInformation::FromSet({1, 4, 7}, n);
  ASSERT_TRUE(side.ok());
  const ExactLossFunction lopsided = ExactLossFunction::FromFunction(
      "lopsided", [](int i, int r) {
        const int64_t d = r - i;
        return R(1, 3) + (d >= 0 ? R(3 * d) : R(d * d, 2));
      });
  ASSERT_TRUE(lopsided.ValidateMonotone(n).ok());
  for (const Rational& alpha : {R(1, 2), R(2, 3)}) {
    auto g = GeometricMechanism::BuildExactMatrix(n, alpha);
    ASSERT_TRUE(g.ok());
    for (const ExactLossFunction& loss :
         {lopsided, ExactLossFunction::AbsoluteError(),
          ExactLossFunction::SquaredError()}) {
      SCOPED_TRACE(loss.name() + " alpha=" + alpha.ToString());
      auto interaction = SolveOptimalInteractionExact(*g, loss, *side);
      ASSERT_TRUE(interaction.ok()) << interaction.status().ToString();
      EXPECT_EQ(interaction->phase1_iterations, 0);
      auto optimal = SolveOptimalMechanismExact(n, alpha, loss, *side);
      ASSERT_TRUE(optimal.ok()) << optimal.status().ToString();
      EXPECT_EQ(interaction->loss, optimal->loss);
      auto induced = ExactWorstCaseLoss(*g * interaction->matrix, loss, *side);
      ASSERT_TRUE(induced.ok());
      EXPECT_EQ(*induced, optimal->loss);
    }
  }
}

TEST(ExactInteractionTest, SinglePointDatabaseAndTheAlphaOneLimit) {
  // n = 0: the one output is hull(S), no T column survives, and the loss
  // is l(0, 0) -- positive here, so the rebuilt loss is d0 itself.
  const ExactLossFunction shifted = ExactLossFunction::FromFunction(
      "shifted", [](int i, int r) { return R(std::abs(i - r)) + R(2, 7); });
  RationalMatrix one(1, 1);
  one.At(0, 0) = R(1);
  auto point = SolveOptimalInteractionExact(one, shifted,
                                            SideInformation::All(0));
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_EQ(point->loss, R(2, 7));
  EXPECT_EQ(point->matrix.At(0, 0), R(1));
  EXPECT_EQ(point->phase1_iterations, 0);

  // alpha = 1: every row of the deployed limit matrix puts 1/2 on each end
  // of {0..n}, and the interaction reaches the best constant mechanism.
  for (int n : {1, 4, 7}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const size_t size = static_cast<size_t>(n) + 1;
    RationalMatrix limit(size, size);
    for (size_t i = 0; i < size; ++i) {
      limit.At(i, 0) = R(1, 2);
      limit.At(i, size - 1) = R(1, 2);
    }
    for (const ExactLossFunction& loss :
         {ExactLossFunction::AbsoluteError(), ExactLossFunction::ZeroOne()}) {
      auto interaction = SolveOptimalInteractionExact(
          limit, loss, SideInformation::All(n));
      ASSERT_TRUE(interaction.ok()) << interaction.status().ToString();
      EXPECT_EQ(interaction->phase1_iterations, 0);
      auto optimal =
          SolveOptimalMechanismExact(n, R(1), loss, SideInformation::All(n));
      ASSERT_TRUE(optimal.ok());
      EXPECT_EQ(interaction->loss, optimal->loss) << loss.name();
    }
  }
}

TEST(ExactOptimalTest, ExactAndDoubleLpAgree) {
  // Cross-validation: the double pipeline's optimum matches the exact one
  // to solver tolerance.
  Rational alpha = R(1, 2);
  auto side = SideInformation::All(4);
  auto exact = SolveOptimalMechanismExact(
      4, alpha, ExactLossFunction::AbsoluteError(), side);
  ASSERT_TRUE(exact.ok());
  auto consumer =
      MinimaxConsumer::Create(LossFunction::AbsoluteError(), side);
  ASSERT_TRUE(consumer.ok());
  auto approx = SolveOptimalMechanism(4, 0.5, *consumer);
  ASSERT_TRUE(approx.ok());
  EXPECT_NEAR(exact->loss.ToDouble(), approx->loss, 1e-8);
}

TEST(ExactOptimalTest, ValidatesArguments) {
  auto loss = ExactLossFunction::AbsoluteError();
  EXPECT_FALSE(
      SolveOptimalMechanismExact(-1, R(1, 2), loss, SideInformation::All(3))
          .ok());
  EXPECT_FALSE(
      SolveOptimalMechanismExact(3, R(3, 2), loss, SideInformation::All(3))
          .ok());
  EXPECT_FALSE(
      SolveOptimalMechanismExact(4, R(1, 2), loss, SideInformation::All(3))
          .ok());
  RationalMatrix not_stochastic(3, 3);
  EXPECT_FALSE(SolveOptimalInteractionExact(not_stochastic, loss,
                                            SideInformation::All(2))
                   .ok());
}

TEST(ExactOptimalTest, AbsolutePrivacyExactOptimum) {
  // alpha = 1 forces constant rows; for absolute loss on {0..2} the best
  // constant distribution has worst-case loss exactly 1.
  auto result = SolveOptimalMechanismExact(
      2, R(1), ExactLossFunction::AbsoluteError(), SideInformation::All(2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->loss, R(1));
}

TEST(ExactOptimalTest, NoPrivacyZeroLoss) {
  auto result = SolveOptimalMechanismExact(
      3, R(0), ExactLossFunction::SquaredError(), SideInformation::All(3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->loss, R(0));
}

}  // namespace
}  // namespace geopriv
