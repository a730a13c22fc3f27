// Reprints the paper's concrete artifacts from library-computed objects:
// Table 1 (optimal mechanism / G_{3,1/4} / consumer interaction), Table 2
// (G and G' forms), and the Appendix B counterexample with its violated
// Theorem-2 triple.
//
// Run:  ./build/example_paper_tables

#include <cstdio>

#include "core/geopriv.h"

namespace {

using namespace geopriv;

void PrintExact(const char* title, const RationalMatrix& m) {
  std::printf("%s\n%s\n", title, m.ToString().c_str());
}

int Run() {
  Table1Parameters params;  // n = 3, alpha = 1/4

  // --- Table 1 ------------------------------------------------------------
  std::printf("== Table 1 (n = 3, alpha = 1/4, l(i,r) = |i-r|, S = {0..3})"
              " ==\n\n");
  Result<MinimaxConsumer> consumer = MinimaxConsumer::Create(
      LossFunction::AbsoluteError(), SideInformation::All(params.n));
  if (!consumer.ok()) return 1;

  Result<OptimalMechanismResult> optimal =
      SolveOptimalMechanism(params.n, params.alpha.ToDouble(), *consumer);
  if (!optimal.ok()) return 1;
  std::printf("(a) optimal mechanism (LP of Sec 2.5), minimax loss %.6f:\n%s\n",
              optimal->loss, optimal->mechanism.ToString(5).c_str());

  Result<RationalMatrix> g =
      GeometricMechanism::BuildExactMatrix(params.n, params.alpha);
  if (!g.ok()) return 1;
  PrintExact("(b) G_{3,1/4} (exact):", *g);
  Rational scale = *Rational::Divide(Rational(1) + params.alpha,
                                     Rational(1) - params.alpha);
  PrintExact("(b') scaled by (1+a)/(1-a) = 5/3 — the form printed in the "
             "paper:",
             g->ScaledBy(scale));

  Result<Mechanism> deployed = Mechanism::FromExact(*g);
  if (!deployed.ok()) return 1;
  Result<OptimalInteractionResult> interaction =
      SolveOptimalInteraction(*deployed, *consumer);
  if (!interaction.ok()) return 1;
  std::printf("(c) consumer interaction (LP of Sec 2.4.3), induced loss "
              "%.6f:\n%s\n",
              interaction->loss, interaction->interaction.ToString(5).c_str());
  std::printf("paper-printed (c) for comparison:\n");
  Result<RationalMatrix> printed_t = PaperTable1cInteraction();
  if (!printed_t.ok()) return 1;
  std::printf("%s\n", printed_t->ToString().c_str());

  // --- Table 2 ------------------------------------------------------------
  std::printf("== Table 2 (matrix forms, n = 4, alpha = 1/3) ==\n\n");
  Rational third = *Rational::FromInts(1, 3);
  Result<RationalMatrix> g4 = GeometricMechanism::BuildExactMatrix(4, third);
  Result<RationalMatrix> gp4 = GeometricMechanism::BuildExactGPrime(4, third);
  if (!g4.ok() || !gp4.ok()) return 1;
  PrintExact("G_{4,1/3}:", *g4);
  PrintExact("G'_{4,1/3} (Toeplitz alpha^|i-j|):", *gp4);
  Result<Rational> det = GeometricMechanism::ExactGPrimeDeterminant(4, third);
  if (!det.ok()) return 1;
  std::printf("det G' = (1 - alpha^2)^4 = %s (Lemma 1)\n\n",
              det->ToString().c_str());

  // --- Appendix B ----------------------------------------------------------
  std::printf("== Appendix B: 1/2-DP mechanism NOT derivable from "
              "G_{3,1/2} ==\n\n");
  Result<RationalMatrix> m = PaperAppendixBMechanism();
  if (!m.ok()) return 1;
  PrintExact("M:", *m);
  Rational half = *Rational::FromInts(1, 2);
  Result<bool> dp = CheckDifferentialPrivacyExact(*m, half);
  Result<DerivabilityVerdict> verdict = CheckDerivabilityExact(*m, half);
  if (!dp.ok() || !verdict.ok()) return 1;
  std::printf("1/2-differentially private: %s\n", *dp ? "yes" : "no");
  std::printf("derivable from G_{3,1/2}:   %s\n",
              verdict->derivable ? "yes" : "no");
  std::printf("violated triple: column %d, center row %d, slack %.6f "
              "(= -1/12, the paper's -0.75/9)\n",
              verdict->column, verdict->row, verdict->slack);
  return 0;
}

}  // namespace

int main() { return Run(); }
