// Example 1 from the paper: the drug company with side information.
//
// A drug company knows that l individuals bought its flu drug, so the true
// count of flu cases is at least l: side information S = {l..n}.  It cares
// about production planning, so its loss is the squared error.  This
// example shows how a rational minimax consumer exploits side information:
//   * taking the geometric release at face value is wasteful,
//   * the LP of Section 2.4.3 computes the optimal (randomized!)
//     reinterpretation,
//   * the resulting loss equals the per-consumer optimum (Theorem 1).
//
// Run:  ./build/example_drug_company

#include <cstdio>

#include "core/geopriv.h"

namespace {

int Run() {
  using namespace geopriv;

  SyntheticPopulationOptions options;
  options.num_rows = 20;
  Xoshiro256 rng(/*seed=*/7);
  Result<Table> population = GenerateSyntheticSurvey(options, rng);
  if (!population.ok()) return 1;
  const int n = static_cast<int>(population->size());

  Result<int64_t> truth = FluCountQuery().Evaluate(*population);
  Result<int64_t> drug_sales = DrugPurchaseCountQuery().Evaluate(*population);
  if (!truth.ok() || !drug_sales.ok()) return 1;
  const int l = static_cast<int>(*drug_sales);
  std::printf("n = %d individuals; true flu count = %lld (secret)\n", n,
              static_cast<long long>(*truth));
  std::printf("drug company knows its own sales: l = %d, so S = {%d..%d}\n",
              l, l, n);

  const double alpha = 0.5;
  Result<GeometricMechanism> geo = GeometricMechanism::Create(n, alpha);
  if (!geo.ok()) return 1;
  Result<Mechanism> deployed = geo->ToMechanism();
  if (!deployed.ok()) return 1;

  Result<SideInformation> side = SideInformation::Interval(l, n, n);
  if (!side.ok()) return 1;
  Result<MinimaxConsumer> company =
      MinimaxConsumer::Create(LossFunction::SquaredError(), *side);
  if (!company.ok()) return 1;

  // Naive: accept the published value as-is.
  Result<double> naive_loss = company->WorstCaseLoss(*deployed);
  if (!naive_loss.ok()) return 1;

  // Rational: optimal randomized reinterpretation (Section 2.4.3 LP).
  Result<OptimalInteractionResult> rational =
      SolveOptimalInteraction(*deployed, *company);
  if (!rational.ok()) {
    std::fprintf(stderr, "%s\n", rational.status().ToString().c_str());
    return 1;
  }

  // The benchmark: the optimal alpha-DP mechanism tailored to the company
  // (Section 2.5 LP), which requires knowing its loss and side info.
  Result<OptimalMechanismResult> tailored =
      SolveOptimalMechanism(n, alpha, *company);
  if (!tailored.ok()) return 1;

  std::printf("\nminimax (worst-case over S) squared-error loss:\n");
  std::printf("  naive consumption of geometric release : %.6f\n",
              *naive_loss);
  std::printf("  rational interaction (Sec 2.4.3 LP)    : %.6f\n",
              rational->loss);
  std::printf("  tailored optimal mechanism (Sec 2.5 LP): %.6f\n",
              tailored->loss);
  std::printf(
      "\nTheorem 1: the rational interaction matches the tailored optimum\n"
      "without the publisher ever knowing the company's parameters.\n");

  // Show a slice of the randomized reinterpretation around l: outputs
  // below the company's lower bound are remapped inside S.
  std::printf("\nreinterpretation of low outputs (rows r=0..%d of T):\n",
              std::min(l + 1, n));
  for (int r = 0; r <= std::min(l + 1, n); ++r) {
    std::printf("  T[%2d]: ", r);
    for (int rp = 0; rp <= n; ++rp) {
      double v = rational->interaction.At(static_cast<size_t>(r),
                                          static_cast<size_t>(rp));
      if (v > 1e-9) std::printf("%d:%.3f ", rp, v);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
