// Exact (rational-arithmetic) versions of the paper's two LPs.
//
// When alpha and the loss are rational, the optimal mechanism LP
// (Section 2.5) and the optimal interaction LP (Section 2.4.3) have exact
// rational optima.  This module builds them over lp/exact_simplex.h, so
// Theorem 1 part 2 — "rational interaction with the geometric mechanism
// achieves the per-consumer optimum" — can be verified with exact
// equality, and EXPERIMENTS.md can state optimal losses as fractions
// (e.g. the Table 1 consumer's optimum).
//
// Intended for paper-scale n (the exact tableau costs grow quickly);
// use core/optimal.h for larger numeric instances.

#ifndef GEOPRIV_CORE_OPTIMAL_EXACT_H_
#define GEOPRIV_CORE_OPTIMAL_EXACT_H_

#include <functional>
#include <string>

#include "core/consumer.h"
#include "exact/rational.h"
#include "exact/rational_matrix.h"
#include "lp/exact_simplex.h"
#include "util/result.h"

namespace geopriv {

/// A monotone loss with exact rational values.
class ExactLossFunction {
 public:
  /// l(i, r) = |i - r|.
  static ExactLossFunction AbsoluteError();
  /// l(i, r) = (i - r)^2.
  static ExactLossFunction SquaredError();
  /// l(i, r) = [i != r].
  static ExactLossFunction ZeroOne();
  /// Arbitrary exact loss; caller promises monotonicity in |i - r|.
  static ExactLossFunction FromFunction(
      std::string name, std::function<Rational(int, int)> fn);

  Rational operator()(int i, int r) const { return fn_(i, r); }
  const std::string& name() const { return name_; }

  /// Verifies non-negativity and monotonicity in |i - r| over {0..n}.
  Status ValidateMonotone(int n) const;

 private:
  ExactLossFunction(std::string name, std::function<Rational(int, int)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  std::string name_;
  std::function<Rational(int, int)> fn_;
};

/// Exact minimax loss of a mechanism for (loss, S):
/// max_{i in S} sum_r l(i,r)·x[i][r].
Result<Rational> ExactWorstCaseLoss(const RationalMatrix& mechanism,
                                    const ExactLossFunction& loss,
                                    const SideInformation& side);

/// Exact result of either LP.
struct ExactOptimalResult {
  RationalMatrix matrix;  ///< the mechanism (Sec 2.5) or interaction T (2.4.3)
  Rational loss;          ///< the exact optimal minimax loss
  int lp_iterations = 0;
  int phase1_iterations = 0;  ///< pivots spent finding feasibility
  int phase2_iterations = 0;  ///< pivots spent optimizing
  bool warm_started = false;  ///< solved from a prior family member's basis
  /// The optimal basis, fit to warm-start a structurally identical solve
  /// (ExactSimplexOptions::warm_start).  The mechanism service's solve
  /// cache keeps it per entry so a cache miss can seed from the nearest
  /// cached neighbor instead of solving cold.
  LpBasis basis;
};

/// Section 2.5 LP over Q: the optimal alpha-DP mechanism for the consumer
/// (loss, side).  alpha must lie in [0, 1].
Result<ExactOptimalResult> SolveOptimalMechanismExact(
    int n, const Rational& alpha, const ExactLossFunction& loss,
    const SideInformation& side, const ExactSimplexOptions& options = {});

/// The α/ε-sweep family of the Section 2.5 LP: one result per entry of
/// `alphas`, in order.  All members share one structural shape, so the
/// whole family streams through a single warm-started solver — each
/// solved basis seeds the next solve (ExactSimplexSolver::SolveSequence)
/// instead of every point paying a cold phase 1.  Exact optima are
/// identical to per-point cold solves.
Result<std::vector<ExactOptimalResult>> SolveOptimalMechanismExactSweep(
    int n, const std::vector<Rational>& alphas, const ExactLossFunction& loss,
    const SideInformation& side, const ExactSimplexOptions& options = {});

/// The loss-function-sweep family of the Section 2.5 LP at a fixed alpha
/// (Table 1's absolute/squared/zero-one columns): one result per entry of
/// `losses`, warm-chained exactly like the α-sweep.
Result<std::vector<ExactOptimalResult>> SolveOptimalMechanismExactLossSweep(
    int n, const Rational& alpha,
    const std::vector<ExactLossFunction>& losses, const SideInformation& side,
    const ExactSimplexOptions& options = {});

/// Builds (but does not solve) the Section 2.5 LP over Q.  Shared by
/// SolveOptimalMechanismExact and by benchmarks/tests that want to run the
/// identical model through a specific ExactPivotEngine.
Result<ExactLpProblem> BuildOptimalMechanismLpExact(
    int n, const Rational& alpha, const ExactLossFunction& loss,
    const SideInformation& side);

/// Section 2.4.3 LP over Q: the consumer's optimal interaction with a
/// deployed mechanism.  `deployed` must be (n+1)x(n+1) row-stochastic.
/// The returned matrix is T; the loss is of the induced mechanism
/// deployed·T.  `options` reaches the solver unchanged (deadline, cancel,
/// pool, warm start): interaction LPs over one (n, side) share a shape, so
/// any loss's or alpha's basis can seed another's solve.
///
/// The LP solved is an exact reformulation of min d s.t.
/// sum_r G[i][r] sum_r' l(i,r') T[r][r'] <= d (i in S), T row-stochastic,
/// whose n+1 equality rows would otherwise cost every cold solve a
/// phase 1.  Three steps, each sound for every loss ValidateMonotone
/// admits and every row-stochastic G:
///   1. Outputs are limited to hull(S) = [min S, max S].  Moving the mass
///      T puts on an output below min S up to min S (or above max S down
///      to max S) brings it nearer every i in S, so a monotone loss
///      l(i,·) does not rise for any i in S and the optimum is unchanged.
///   2. One output r0 per row is eliminated (r0 is the median member of
///      S, the lower one when |S| is even): T[r][r0] = 1 - sum_{r' != r0}
///      T[r][r'], so each equality row becomes sum_{r' != r0} T[r][r'] <= 1.
///   3. d = d0 - e with d0 = max_{i in S} l(i, r0), the loss of "every
///      output maps to r0", so the optimum has e >= 0.  Since G's rows sum
///      to 1, loss row i becomes
///        sum_r G[i][r] sum_{r' != r0} (l(i,r') - l(i,r0)) T[r][r'] + e
///            <= d0 - l(i, r0),
///      and the objective is min -e.
/// Every right-hand side is then >= 0, so the slack basis ("every output
/// maps to r0") is feasible and a cold solve starts in phase 2.  T is
/// rebuilt exactly from the solution, and the loss is d0 - e*.  The shape
/// depends only on (n, S), as before.
Result<ExactOptimalResult> SolveOptimalInteractionExact(
    const RationalMatrix& deployed, const ExactLossFunction& loss,
    const SideInformation& side, const ExactSimplexOptions& options = {});

}  // namespace geopriv

#endif  // GEOPRIV_CORE_OPTIMAL_EXACT_H_
