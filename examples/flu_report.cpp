// The paper's running example: publishing flu statistics at multiple
// privacy levels (Introduction + Section 4.1).
//
// A health agency answers Q = "how many adults from San Diego contracted
// the flu this October?" and publishes it twice:
//   * an internal report for government executives (high accuracy,
//     alpha_1 = 0.25), and
//   * a public Internet version (high privacy, alpha_2 = 0.6),
// using Algorithm 1 so that even if the two audiences collude they learn
// no more than the internal report alone reveals.
//
// Run:  ./build/example_flu_report

#include <cstdio>

#include "core/geopriv.h"

namespace {

int Run() {
  using namespace geopriv;

  // Synthetic survey population (substitute for the real survey data; the
  // mechanism only ever sees the true count, so this is behaviorally
  // faithful — see DESIGN.md §4).
  // Kept small because the demo also solves the per-consumer LP, whose
  // size grows as (n+1)^2 variables.
  SyntheticPopulationOptions options;
  options.num_rows = 20;
  Xoshiro256 rng(/*seed=*/42);
  Result<Table> population = GenerateSyntheticSurvey(options, rng);
  if (!population.ok()) {
    std::fprintf(stderr, "%s\n", population.status().ToString().c_str());
    return 1;
  }
  CountQuery q = FluCountQuery();
  Result<int64_t> truth = q.Evaluate(*population);
  if (!truth.ok()) return 1;
  const int n = static_cast<int>(population->size());
  std::printf("Q: %s\n", q.predicate().description().c_str());
  std::printf("population n = %d, true count = %lld (never published)\n\n",
              n, static_cast<long long>(*truth));

  // Two privacy levels, correlated via Algorithm 1.
  Result<MultiLevelRelease> release =
      MultiLevelRelease::Create(n, {0.25, 0.6});
  if (!release.ok()) {
    std::fprintf(stderr, "%s\n", release.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<int>> values =
      release->Release(static_cast<int>(*truth), rng);
  if (!values.ok()) return 1;
  std::printf("internal report  (alpha = 0.25): %d\n", (*values)[0]);
  std::printf("public Internet  (alpha = 0.60): %d\n", (*values)[1]);

  // Each consumer post-processes its release with its own loss function
  // and side information.  The government tracks the flu level (absolute
  // loss, no side information); per Theorem 1 its rational interaction
  // with the geometric release is optimal among ALL 0.25-DP mechanisms.
  Result<MinimaxConsumer> government = MinimaxConsumer::Create(
      LossFunction::AbsoluteError(), SideInformation::All(n));
  if (!government.ok()) return 1;
  Result<OptimalInteractionResult> gov_plan =
      SolveOptimalInteraction(release->StageMechanism(0), *government);
  if (!gov_plan.ok()) {
    std::fprintf(stderr, "%s\n", gov_plan.status().ToString().c_str());
    return 1;
  }
  Result<OptimalMechanismResult> gov_best =
      SolveOptimalMechanism(n, 0.25, *government);
  if (!gov_best.ok()) return 1;
  std::printf(
      "\ngovernment's minimax loss via rational interaction: %.6f\n",
      gov_plan->loss);
  std::printf("government's per-consumer LP optimum:              %.6f\n",
              gov_best->loss);
  std::printf("(equal, per Theorem 1 part 2)\n");
  return 0;
}

}  // namespace

int main() { return Run(); }
