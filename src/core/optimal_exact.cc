#include "core/optimal_exact.h"

#include <cstdlib>
#include <memory>
#include <vector>

#include "lp/exact_simplex.h"
#include "util/thread_pool.h"

namespace geopriv {

ExactLossFunction ExactLossFunction::AbsoluteError() {
  return ExactLossFunction("absolute", [](int i, int r) {
    return Rational(std::abs(i - r));
  });
}

ExactLossFunction ExactLossFunction::SquaredError() {
  return ExactLossFunction("squared", [](int i, int r) {
    int64_t d = i - r;
    return Rational(d * d);
  });
}

ExactLossFunction ExactLossFunction::ZeroOne() {
  return ExactLossFunction("zero-one", [](int i, int r) {
    return Rational(i == r ? 0 : 1);
  });
}

ExactLossFunction ExactLossFunction::FromFunction(
    std::string name, std::function<Rational(int, int)> fn) {
  return ExactLossFunction(std::move(name), std::move(fn));
}

Status ExactLossFunction::ValidateMonotone(int n) const {
  for (int i = 0; i <= n; ++i) {
    for (int r = 0; r <= n; ++r) {
      if ((*this)(i, r).IsNegative()) {
        return Status::InvalidArgument("exact loss must be non-negative");
      }
    }
    for (int r = i; r + 1 <= n; ++r) {
      if ((*this)(i, r + 1) < (*this)(i, r)) {
        return Status::InvalidArgument(
            "exact loss decreases with distance right of i=" +
            std::to_string(i));
      }
    }
    for (int r = i; r - 1 >= 0; --r) {
      if ((*this)(i, r - 1) < (*this)(i, r)) {
        return Status::InvalidArgument(
            "exact loss decreases with distance left of i=" +
            std::to_string(i));
      }
    }
  }
  return Status::OK();
}

Result<Rational> ExactWorstCaseLoss(const RationalMatrix& mechanism,
                                    const ExactLossFunction& loss,
                                    const SideInformation& side) {
  if (mechanism.rows() != mechanism.cols() ||
      mechanism.rows() != static_cast<size_t>(side.n()) + 1) {
    return Status::InvalidArgument("mechanism shape does not match n");
  }
  Rational worst(0);
  bool first = true;
  for (int i : side.members()) {
    Rational acc(0);
    for (size_t r = 0; r < mechanism.cols(); ++r) {
      acc += loss(i, static_cast<int>(r)) *
             mechanism.At(static_cast<size_t>(i), r);
    }
    if (first || acc > worst) {
      worst = std::move(acc);
      first = false;
    }
  }
  return worst;
}

namespace {

constexpr int CellVar(int i, int r, int n) { return i * (n + 1) + r; }

Status ValidateExactArgs(int n, const Rational& alpha,
                         const ExactLossFunction& loss,
                         const SideInformation& side) {
  if (n < 0) return Status::InvalidArgument("n must be non-negative");
  if (alpha.IsNegative() || alpha > Rational(1)) {
    return Status::InvalidArgument("alpha must lie in [0, 1]");
  }
  if (side.n() != n) {
    return Status::InvalidArgument("side information n does not match");
  }
  return loss.ValidateMonotone(n);
}

// Extracts the (n+1)x(n+1) cell block of an exact LP solution.
RationalMatrix ExtractMatrix(const std::vector<Rational>& values, int n) {
  const int size = n + 1;
  RationalMatrix out(static_cast<size_t>(size), static_cast<size_t>(size));
  for (int i = 0; i < size; ++i) {
    for (int r = 0; r < size; ++r) {
      out.At(static_cast<size_t>(i), static_cast<size_t>(r)) =
          values[static_cast<size_t>(CellVar(i, r, n))];
    }
  }
  return out;
}

}  // namespace

Result<ExactLpProblem> BuildOptimalMechanismLpExact(
    int n, const Rational& alpha, const ExactLossFunction& loss,
    const SideInformation& side) {
  GEOPRIV_RETURN_IF_ERROR(ValidateExactArgs(n, alpha, loss, side));

  ExactLpProblem lp;
  const int size = n + 1;
  for (int i = 0; i < size; ++i) {
    for (int r = 0; r < size; ++r) {
      lp.AddVariable("x_" + std::to_string(i) + "_" + std::to_string(r),
                     Rational(0));
    }
  }
  const int d_var = lp.AddVariable("d", Rational(1));

  // Rows are streamed straight into the model's term arena; no intermediate
  // term vectors are materialized.
  const Rational neg_alpha = -alpha;
  for (int i : side.members()) {
    lp.BeginConstraint(RowRelation::kLessEqual, Rational(0));
    for (int r = 0; r < size; ++r) {
      Rational l = loss(i, r);
      if (!l.IsZero()) lp.AddTerm(CellVar(i, r, n), std::move(l));
    }
    lp.AddTerm(d_var, Rational(-1));
  }
  for (int i = 0; i + 1 < size; ++i) {
    for (int r = 0; r < size; ++r) {
      lp.BeginConstraint(RowRelation::kGreaterEqual, Rational(0));
      lp.AddTerm(CellVar(i, r, n), Rational(1));
      lp.AddTerm(CellVar(i + 1, r, n), neg_alpha);
      lp.BeginConstraint(RowRelation::kGreaterEqual, Rational(0));
      lp.AddTerm(CellVar(i + 1, r, n), Rational(1));
      lp.AddTerm(CellVar(i, r, n), neg_alpha);
    }
  }
  for (int i = 0; i < size; ++i) {
    lp.BeginConstraint(RowRelation::kEqual, Rational(1));
    for (int r = 0; r < size; ++r) {
      lp.AddTerm(CellVar(i, r, n), Rational(1));
    }
  }
  return lp;
}

namespace {

// Rejects a solve that certified nothing.  `what` names the LP's matrix in
// messages ("mechanism" or "interaction").
Status RequireOptimal(const ExactLpSolution& solution,
                      const std::string& what) {
  if (solution.status == LpStatus::kCancelled) {
    // A timed-out solve proved nothing about feasibility; reporting it as
    // Infeasible would let a transient deadline masquerade as a property
    // of the LP.
    return Status::DeadlineExceeded("exact optimal-" + what +
                                    " LP hit its solve deadline");
  }
  if (solution.status != LpStatus::kOptimal) {
    return Status::Infeasible("exact optimal-" + what + " LP did not solve");
  }
  return Status::OK();
}

// An optimal solve plus its matrix and loss -> ExactOptimalResult.
Result<ExactOptimalResult> PackResult(ExactLpSolution solution,
                                      RationalMatrix matrix, Rational loss,
                                      const std::string& what) {
  if (!matrix.IsRowStochastic()) {
    return Status::Internal("exact LP produced a non-stochastic " + what);
  }
  return ExactOptimalResult{std::move(matrix),
                            std::move(loss),
                            solution.iterations,
                            solution.phase1_iterations,
                            solution.phase2_iterations,
                            solution.warm_started,
                            std::move(solution.basis)};
}

// Section 2.5 solution -> ExactOptimalResult, shared by the single solve
// and the warm-started sweeps.
Result<ExactOptimalResult> PackMechanism(ExactLpSolution solution, int n) {
  GEOPRIV_RETURN_IF_ERROR(RequireOptimal(solution, "mechanism"));
  RationalMatrix matrix = ExtractMatrix(solution.values, n);
  Rational loss = std::move(solution.objective);
  return PackResult(std::move(solution), std::move(matrix), std::move(loss),
                    "mechanism");
}

}  // namespace

Result<ExactOptimalResult> SolveOptimalMechanismExact(
    int n, const Rational& alpha, const ExactLossFunction& loss,
    const SideInformation& side, const ExactSimplexOptions& options) {
  GEOPRIV_ASSIGN_OR_RETURN(ExactLpProblem lp,
                           BuildOptimalMechanismLpExact(n, alpha, loss, side));
  ExactSimplexSolver solver(options);
  GEOPRIV_ASSIGN_OR_RETURN(ExactLpSolution solution, solver.Solve(lp));
  return PackMechanism(std::move(solution), n);
}

Result<std::vector<ExactOptimalResult>> SolveOptimalMechanismExactSweep(
    int n, const std::vector<Rational>& alphas, const ExactLossFunction& loss,
    const SideInformation& side, const ExactSimplexOptions& options) {
  std::vector<ExactLpProblem> family;
  family.reserve(alphas.size());
  for (const Rational& alpha : alphas) {
    GEOPRIV_ASSIGN_OR_RETURN(
        ExactLpProblem lp, BuildOptimalMechanismLpExact(n, alpha, loss, side));
    family.push_back(std::move(lp));
  }

  if (family.empty()) return std::vector<ExactOptimalResult>{};

  // The cold anchor solve dominates a warm-started sweep (the warm points
  // cost only their basis-load eliminations), and exact cold-solve time
  // varies by an order of magnitude with the bit size of α — α = 1/2 at
  // n = 16 solves ~6x faster cold than α = 9/20.  So: anchor at the α
  // with the smallest denominator (cheapest exact arithmetic), then chain
  // outward through the α-sorted neighbors in both directions so every
  // warm seed comes from an adjacent grid point.  Results return in
  // input order; every optimum is certified exactly as if solved cold.
  const size_t count = alphas.size();
  std::vector<size_t> sorted(count);
  for (size_t k = 0; k < count; ++k) sorted[k] = k;
  std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
    return alphas[a] < alphas[b];
  });
  size_t anchor_pos = 0;
  for (size_t p = 1; p < count; ++p) {
    const size_t best_bits =
        alphas[sorted[anchor_pos]].denominator().BitLength();
    const size_t bits = alphas[sorted[p]].denominator().BitLength();
    // Tie-break toward the middle of the grid: it seeds both chains with
    // the nearest possible neighbor.
    const size_t mid = (count - 1) / 2;
    const size_t best_dist =
        anchor_pos > mid ? anchor_pos - mid : mid - anchor_pos;
    const size_t dist = p > mid ? p - mid : mid - p;
    if (bits < best_bits || (bits == best_bits && dist < best_dist)) {
      anchor_pos = p;
    }
  }

  std::vector<ExactLpSolution> solutions(count);
  ExactSimplexOptions chain_options = options;
  // The whole sweep shares one worker pool: spawn threads once per family,
  // not once per member (see ExactSimplexOptions::pool).
  std::unique_ptr<ThreadPool> sweep_pool = MakeChainPool(chain_options, count);
  if (sweep_pool != nullptr) chain_options.pool = sweep_pool.get();
  {
    GEOPRIV_ASSIGN_OR_RETURN(
        ExactLpSolution anchor,
        ExactSimplexSolver(chain_options).Solve(family[sorted[anchor_pos]]));
    solutions[sorted[anchor_pos]] = std::move(anchor);
  }
  const LpBasis anchor_basis = solutions[sorted[anchor_pos]].basis;
  for (int direction : {+1, -1}) {
    LpBasis seed = anchor_basis;
    for (size_t step = 1;; ++step) {
      const size_t offset = direction > 0 ? anchor_pos + step : step;
      if (direction > 0 ? offset >= count : step > anchor_pos) break;
      const size_t p = direction > 0 ? offset : anchor_pos - step;
      chain_options.warm_start = seed.empty() ? nullptr : &seed;
      GEOPRIV_ASSIGN_OR_RETURN(
          ExactLpSolution solution,
          ExactSimplexSolver(chain_options).Solve(family[sorted[p]]));
      seed = solution.status == LpStatus::kOptimal ? solution.basis
                                                   : LpBasis{};
      solutions[sorted[p]] = std::move(solution);
    }
  }

  std::vector<ExactOptimalResult> out;
  out.reserve(count);
  for (ExactLpSolution& solution : solutions) {
    GEOPRIV_ASSIGN_OR_RETURN(ExactOptimalResult result,
                             PackMechanism(std::move(solution), n));
    out.push_back(std::move(result));
  }
  return out;
}

Result<std::vector<ExactOptimalResult>> SolveOptimalMechanismExactLossSweep(
    int n, const Rational& alpha,
    const std::vector<ExactLossFunction>& losses, const SideInformation& side,
    const ExactSimplexOptions& options) {
  std::vector<ExactLpProblem> family;
  family.reserve(losses.size());
  for (const ExactLossFunction& loss : losses) {
    GEOPRIV_ASSIGN_OR_RETURN(
        ExactLpProblem lp, BuildOptimalMechanismLpExact(n, alpha, loss, side));
    family.push_back(std::move(lp));
  }
  GEOPRIV_ASSIGN_OR_RETURN(std::vector<ExactLpSolution> solutions,
                           ExactSimplexSolver(options).SolveSequence(family));
  std::vector<ExactOptimalResult> out;
  out.reserve(solutions.size());
  for (ExactLpSolution& solution : solutions) {
    GEOPRIV_ASSIGN_OR_RETURN(ExactOptimalResult result,
                             PackMechanism(std::move(solution), n));
    out.push_back(std::move(result));
  }
  return out;
}

Result<ExactOptimalResult> SolveOptimalInteractionExact(
    const RationalMatrix& deployed, const ExactLossFunction& loss,
    const SideInformation& side, const ExactSimplexOptions& options) {
  const int n = side.n();
  if (deployed.rows() != deployed.cols() ||
      deployed.rows() != static_cast<size_t>(n) + 1) {
    return Status::InvalidArgument("deployed mechanism shape mismatch");
  }
  if (!deployed.IsRowStochastic()) {
    return Status::InvalidArgument("deployed mechanism must be stochastic");
  }
  GEOPRIV_RETURN_IF_ERROR(loss.ValidateMonotone(n));

  // The reduced LP of the header comment: outputs limited to
  // [lo, hi] = hull(S), output r0 eliminated from every row of T, and the
  // epigraph variable d replaced by e = d0 - d.  Column r * width + k is
  // T[r][kept[k]].
  const std::vector<int>& members = side.members();
  const int r0 = members[(members.size() - 1) / 2];
  std::vector<int> kept;  // [lo, hi] \ {r0}
  for (int rp = members.front(); rp <= members.back(); ++rp) {
    if (rp != r0) kept.push_back(rp);
  }
  const size_t width = kept.size();
  const size_t size = static_cast<size_t>(n) + 1;

  ExactLpProblem lp;
  for (size_t r = 0; r < size; ++r) {
    for (const int rp : kept) {
      lp.AddVariable("T_" + std::to_string(r) + "_" + std::to_string(rp),
                     Rational(0));
    }
  }
  const int e_var = lp.AddVariable("e", Rational(-1));

  Rational d0(0);
  for (const int i : members) {
    Rational l = loss(i, r0);
    if (l > d0) d0 = std::move(l);
  }
  // Loss rows, streamed with the differences l(i, kept[k]) - l(i, r0)
  // hoisted out of the product with G's row.
  std::vector<Rational> diff(width);
  for (const int i : members) {
    const Rational base = loss(i, r0);
    for (size_t k = 0; k < width; ++k) diff[k] = loss(i, kept[k]) - base;
    lp.BeginConstraint(RowRelation::kLessEqual, d0 - base);
    for (size_t r = 0; r < size; ++r) {
      const Rational& y = deployed.At(static_cast<size_t>(i), r);
      if (y.IsZero()) continue;
      for (size_t k = 0; k < width; ++k) {
        if (!diff[k].IsZero()) {
          lp.AddTerm(static_cast<int>(r * width + k), y * diff[k]);
        }
      }
    }
    lp.AddTerm(e_var, Rational(1));
  }
  // Row r of T: the kept outputs take at most all of its mass; r0 takes
  // the rest.
  for (size_t r = 0; r < size; ++r) {
    lp.BeginConstraint(RowRelation::kLessEqual, Rational(1));
    for (size_t k = 0; k < width; ++k) {
      lp.AddTerm(static_cast<int>(r * width + k), Rational(1));
    }
  }

  GEOPRIV_ASSIGN_OR_RETURN(ExactLpSolution solution,
                           ExactSimplexSolver(options).Solve(lp));
  GEOPRIV_RETURN_IF_ERROR(RequireOptimal(solution, "interaction"));
  RationalMatrix t(size, size);
  for (size_t r = 0; r < size; ++r) {
    Rational rest(1);
    for (size_t k = 0; k < width; ++k) {
      const Rational& v = solution.values[r * width + k];
      t.At(r, static_cast<size_t>(kept[k])) = v;
      rest -= v;
    }
    t.At(r, static_cast<size_t>(r0)) = std::move(rest);
  }
  Rational optimum = d0 + solution.objective;
  return PackResult(std::move(solution), std::move(t), std::move(optimum),
                    "interaction");
}

}  // namespace geopriv
