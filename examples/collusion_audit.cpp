// Collusion audit: why Algorithm 1's correlated noise matters.
//
// Two publication strategies for the same count at privacy levels
// alpha in {0.4, 0.5, 0.6, 0.7}:
//   (a) naive — independent geometric noise per level, and
//   (b) Algorithm 1 — a chained release where each less-trusted value is a
//       post-processing of the more-trusted one.
// Colluders average their values to estimate the truth.  Under (a) the
// average is a better estimator than any single release (privacy leaks);
// under (b) it is not (Lemma 4 / Theorem 1 part 1).
//
// Run:  ./build/example_collusion_audit

#include <cstdio>
#include <vector>

#include "core/geopriv.h"

namespace {

int Run() {
  using namespace geopriv;

  const int n = 50;
  const int truth = 23;
  const std::vector<double> levels = {0.4, 0.5, 0.6, 0.7};
  const int kTrials = 60000;
  Xoshiro256 rng(/*seed=*/2026);

  // (a) Naive independent releases.
  std::vector<GeometricMechanism> independent;
  for (double a : levels) {
    Result<GeometricMechanism> g = GeometricMechanism::Create(n, a);
    if (!g.ok()) return 1;
    independent.push_back(*g);
  }
  double naive_mse_first = 0.0, naive_mse_avg = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    double first = 0.0, avg = 0.0;
    for (size_t j = 0; j < independent.size(); ++j) {
      Result<int> v = independent[j].Sample(truth, rng);
      if (!v.ok()) return 1;
      if (j == 0) first = *v;
      avg += *v;
    }
    avg /= static_cast<double>(independent.size());
    naive_mse_first += (first - truth) * (first - truth);
    naive_mse_avg += (avg - truth) * (avg - truth);
  }
  naive_mse_first /= kTrials;
  naive_mse_avg /= kTrials;

  // (b) Algorithm 1 chained release.
  Result<MultiLevelRelease> chained = MultiLevelRelease::Create(n, levels);
  if (!chained.ok()) {
    std::fprintf(stderr, "%s\n", chained.status().ToString().c_str());
    return 1;
  }
  double chain_mse_first = 0.0, chain_mse_avg = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    Result<std::vector<int>> values = chained->Release(truth, rng);
    if (!values.ok()) return 1;
    double first = (*values)[0], avg = 0.0;
    for (int v : *values) avg += v;
    avg /= static_cast<double>(values->size());
    chain_mse_first += (first - truth) * (first - truth);
    chain_mse_avg += (avg - truth) * (avg - truth);
  }
  chain_mse_first /= kTrials;
  chain_mse_avg /= kTrials;

  std::printf("collusion attack: average the %zu released values\n",
              levels.size());
  std::printf("(mean squared error vs the secret truth, %d trials)\n\n",
              kTrials);
  std::printf("%-28s %14s %14s %9s\n", "strategy", "best single", "colluded avg",
              "leak?");
  std::printf("%-28s %14.4f %14.4f %9s\n", "naive independent noise",
              naive_mse_first, naive_mse_avg,
              naive_mse_avg < 0.95 * naive_mse_first ? "YES" : "no");
  std::printf("%-28s %14.4f %14.4f %9s\n", "Algorithm 1 (chained)",
              chain_mse_first, chain_mse_avg,
              chain_mse_avg < 0.95 * chain_mse_first ? "YES" : "no");
  std::printf(
      "\nUnder Algorithm 1 the colluders' average does not beat the most\n"
      "accurate single release: the joint release is alpha_1-DP (Lemma 4).\n");
  return 0;
}

}  // namespace

int main() { return Run(); }
