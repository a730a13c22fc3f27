// Artifact X3 — the headline experiment (Theorem 1 part 2): for every
// consumer, optimally post-processing the deployed geometric mechanism
// achieves exactly the per-consumer optimal alpha-DP loss, while
// baseline deployments (discretized Laplace, randomized response) can be
// strictly worse.
//
// Prints the loss table over a consumer grid (loss function x side
// information x alpha), then benchmarks the consumer-side LP exact mode
// serves (the exact interaction LP on G_{n,1/2}, pivots printed) and the
// double-precision per-consumer optimal LP.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "core/baselines.h"
#include "core/consumer.h"
#include "core/geometric.h"
#include "core/optimal.h"
#include "core/optimal_exact.h"

namespace {

using namespace geopriv;

void PrintUniversalityTable() {
  const int n = 8;
  std::printf(
      "# X3: minimax loss by consumer (n = %d).  geo* == optimal for every "
      "row (Theorem 1); baselines lag on some rows.\n",
      n);
  std::printf("# %-9s %-8s %6s | %9s %9s | %9s %9s %9s\n", "loss", "S",
              "alpha", "LP-opt", "geo*", "naive-geo", "laplace*", "rr*");

  struct LossEntry {
    const char* name;
    LossFunction fn;
  };
  std::vector<LossEntry> losses = {{"absolute", LossFunction::AbsoluteError()},
                                   {"squared", LossFunction::SquaredError()},
                                   {"zero-one", LossFunction::ZeroOne()}};
  struct SideEntry {
    const char* name;
    int lo, hi;
  };
  std::vector<SideEntry> sides = {{"{0..8}", 0, 8}, {"{3..8}", 3, 8},
                                  {"{2..5}", 2, 5}};

  const std::vector<double> alphas = {0.3, 0.6};
  for (const auto& loss : losses) {
    for (const auto& side : sides) {
      auto consumer = MinimaxConsumer::Create(
          loss.fn, *SideInformation::Interval(side.lo, side.hi, n));
      if (!consumer.ok()) return;
      // The per-consumer α family streams through one warm-started solver
      // (the second point reuses the first point's basis).
      auto optimal_sweep = SolveOptimalMechanismSweep(n, alphas, *consumer);
      if (!optimal_sweep.ok()) return;
      for (size_t a = 0; a < alphas.size(); ++a) {
        const double alpha = alphas[a];
        const auto& optimal = (*optimal_sweep)[a];
        auto geo = GeometricMechanism::Create(n, alpha)->ToMechanism();
        auto lap = DiscretizedLaplaceMechanism(n, alpha);
        auto rr = RandomizedResponseMechanism(n, alpha);
        if (!geo.ok() || !lap.ok() || !rr.ok()) return;
        auto from_geo = SolveOptimalInteraction(*geo, *consumer);
        auto from_lap = SolveOptimalInteraction(*lap, *consumer);
        auto from_rr = SolveOptimalInteraction(*rr, *consumer);
        auto naive = consumer->WorstCaseLoss(*geo);
        if (!from_geo.ok() || !from_lap.ok() || !from_rr.ok() || !naive.ok())
          return;
        std::printf("  %-9s %-8s %6.2f | %9.5f %9.5f | %9.5f %9.5f %9.5f\n",
                    loss.name, side.name, alpha, optimal.loss,
                    from_geo->loss, *naive, from_lap->loss, from_rr->loss);
      }
    }
  }
  std::printf("# (columns marked * are optimally post-processed by the "
              "consumer)\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  PrintUniversalityTable();

  geopriv::bench::Harness h("bench_universal_optimality", argc, argv);
  using geopriv::bench::DoNotOptimize;

  const Rational half = *Rational::FromInts(1, 2);
  for (int n : {4, 8, 12}) {
    const RationalMatrix geo = *GeometricMechanism::BuildExactMatrix(n, half);
    const ExactLossFunction loss = ExactLossFunction::AbsoluteError();
    const SideInformation side = SideInformation::All(n);
    h.Run("ConsumerInteractionLp/n=" + std::to_string(n), [&] {
      DoNotOptimize(SolveOptimalInteractionExact(geo, loss, side));
    });
    const auto solved = SolveOptimalInteractionExact(geo, loss, side);
    if (!solved.ok()) return 1;
    std::printf("  ConsumerInteractionLp/n=%d: %d pivots (phase 1 %d, "
                "phase 2 %d)\n",
                n, solved->lp_iterations, solved->phase1_iterations,
                solved->phase2_iterations);
  }
  for (int n : {4, 8, 12}) {
    auto consumer = *MinimaxConsumer::Create(LossFunction::AbsoluteError(),
                                             SideInformation::All(n));
    h.Run("PerConsumerOptimalLp/n=" + std::to_string(n), [&, n] {
      DoNotOptimize(SolveOptimalMechanism(n, 0.5, consumer));
    });
  }
  return h.Finish();
}
