// Theorem 1 as the service's oracle: an exact-mode entry is G_{n,alpha}
// post-processed by the consumer's optimal interaction T* (the Section 2.4.3
// LP), and its loss must equal the Section 2.5 optimum exactly.  The grid
// covers n <= 12, no side information and an interior interval, five alphas
// and all three losses; every entry must also be an exactly alpha-DP,
// row-stochastic matrix, survive a persist-and-reload, and reach the same
// loss when its solve was warm-started from a neighbour's basis.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/optimal_exact.h"
#include "core/privacy.h"
#include "service/mechanism_cache.h"

namespace geopriv {
namespace {

namespace fs = std::filesystem;

Rational R(int64_t num, int64_t den) { return *Rational::FromInts(num, den); }

// The Section 2.5 optimum for each alpha, warm-chained over the alphas.
std::vector<Rational> Section25Losses(int n, const std::vector<Rational>& alphas,
                                      const std::string& loss_name,
                                      const SideInformation& side) {
  auto sig = MechanismSignature::Create(n, alphas.front(), loss_name, 0, n,
                                        ServeMode::kExactOptimal);
  EXPECT_TRUE(sig.ok());
  auto loss = sig->ResolveLoss();
  EXPECT_TRUE(loss.ok());
  // The oracle LP carries 2n(n+1) privacy rows; a worker pool halves its
  // cost at n = 12 and certifies the same exact optimum.
  ExactSimplexOptions options;
  options.threads = 4;
  auto solved =
      SolveOptimalMechanismExactSweep(n, alphas, *loss, side, options);
  EXPECT_TRUE(solved.ok()) << solved.status().ToString();
  std::vector<Rational> out;
  for (const ExactOptimalResult& result : *solved) out.push_back(result.loss);
  return out;
}

TEST(Theorem1ServiceTest, ExactModeEntriesReachTheSection25OptimumOnAGrid) {
  const std::vector<Rational> alphas = {R(1, 2), R(1, 3), R(1, 4), R(2, 3),
                                        R(9, 10)};
  const std::vector<std::string> losses = {"absolute", "squared", "zero-one"};
  int checked = 0;
  for (int n = 1; n <= 12; ++n) {
    // S = {0..n} and one interior interval: [1, n-1] for even n,
    // [n/3, 2n/3] for odd n.
    std::vector<std::pair<int, int>> sides = {{0, n}};
    if (n >= 2) {
      sides.push_back(n % 2 == 0 ? std::make_pair(1, n - 1)
                                 : std::make_pair(n / 3, 2 * n / 3));
    }
    const std::string dir =
        ::testing::TempDir() + "/geopriv_theorem1_n" + std::to_string(n);
    fs::remove_all(dir);
    std::map<std::string, std::shared_ptr<const ServedMechanism>> served;
    {
      CacheOptions options;
      options.persist_dir = dir;
      MechanismCache cache(options);
      for (const auto& [lo, hi] : sides) {
        auto side = SideInformation::Interval(lo, hi, n);
        ASSERT_TRUE(side.ok());
        uint64_t warm_in_family = 0;
        for (const std::string& loss : losses) {
          const std::vector<Rational> optimum =
              Section25Losses(n, alphas, loss, *side);
          ASSERT_EQ(optimum.size(), alphas.size());
          for (size_t a = 0; a < alphas.size(); ++a) {
            auto sig = MechanismSignature::Create(
                n, alphas[a], loss, lo, hi, ServeMode::kExactOptimal);
            ASSERT_TRUE(sig.ok());
            const std::string where = sig->CanonicalKey();
            auto entry = cache.GetOrSolve(*sig);
            ASSERT_TRUE(entry.ok()) << where << ": "
                                    << entry.status().ToString();
            const ServedMechanism& e = **entry;
            EXPECT_TRUE(e.loss == optimum[a])
                << where << ": served " << e.loss.ToString()
                << ", Section 2.5 optimum " << optimum[a].ToString()
                << (e.warm_started ? " (warm-started)" : " (cold)");
            EXPECT_EQ(e.loss_text, e.loss.ToString()) << where;
            // The served matrix itself attains the optimum.
            auto exact_loss = sig->ResolveLoss();
            ASSERT_TRUE(exact_loss.ok());
            auto attained = ExactWorstCaseLoss(e.exact, *exact_loss, *side);
            ASSERT_TRUE(attained.ok()) << where;
            EXPECT_TRUE(*attained == optimum[a]) << where;
            EXPECT_TRUE(e.exact.IsRowStochastic()) << where;
            auto dp = CheckDifferentialPrivacyExact(e.exact, alphas[a]);
            ASSERT_TRUE(dp.ok()) << where;
            EXPECT_TRUE(*dp) << where << ": G·T* is not alpha-DP";
            if (e.warm_started) ++warm_in_family;
            served[where] = *entry;
            ++checked;
          }
        }
        // Every member after the family's first had a basis to seed from;
        // at least some of those seeds must have been taken.
        EXPECT_GT(warm_in_family, 0u) << "n=" << n << " side " << lo << ".."
                                      << hi << " never warm-started";
      }
      EXPECT_EQ(cache.GetStats().persist_failures, 0u);
    }

    MechanismCache reloaded;
    auto report = reloaded.LoadFromDirectory(dir);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->loaded, static_cast<int>(served.size())) << "n=" << n;
    EXPECT_EQ(report->quarantined, 0) << "n=" << n;
    for (const auto& [key, original] : served) {
      bool hit = false;
      auto entry = reloaded.GetOrSolve(original->signature, &hit);
      ASSERT_TRUE(entry.ok()) << key;
      EXPECT_TRUE(hit) << key << " was not reloaded";
      EXPECT_TRUE((*entry)->exact == original->exact) << key;
      EXPECT_TRUE((*entry)->loss == original->loss) << key;
      EXPECT_EQ((*entry)->loss_text, original->loss_text) << key;
    }
    EXPECT_EQ(reloaded.GetStats().misses, 0u);
    fs::remove_all(dir);
  }
  EXPECT_EQ(checked, 23 * 3 * 5);
}

TEST(Theorem1ServiceTest, AlphaOneDeploysTheGeometricLimit) {
  // alpha = 1 has no G_{n,alpha}; exact mode deploys its alpha -> 1 limit
  // and must still reach the Section 2.5 optimum with a 1-DP matrix.
  MechanismCache cache;
  for (int n : {0, 1, 4}) {
    for (const char* loss : {"absolute", "squared", "zero-one"}) {
      auto sig = MechanismSignature::Create(n, R(1, 1), loss, 0, n,
                                            ServeMode::kExactOptimal);
      ASSERT_TRUE(sig.ok());
      auto entry = cache.GetOrSolve(*sig);
      ASSERT_TRUE(entry.ok()) << entry.status().ToString();
      auto resolved = sig->ResolveLoss();
      ASSERT_TRUE(resolved.ok());
      auto optimum = SolveOptimalMechanismExact(n, R(1, 1), *resolved,
                                                SideInformation::All(n));
      ASSERT_TRUE(optimum.ok());
      EXPECT_TRUE((*entry)->loss == optimum->loss)
          << "n=" << n << " " << loss;
      auto dp = CheckDifferentialPrivacyExact((*entry)->exact, R(1, 1));
      ASSERT_TRUE(dp.ok());
      EXPECT_TRUE(*dp);
    }
  }
}

}  // namespace
}  // namespace geopriv
