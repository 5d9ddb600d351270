#pragma once
/// \file numeric_health.h
/// Numerical-health substrate shared by both MNA kernels (DESIGN.md
/// section 15): equilibration, condition estimation, iterative
/// refinement, and the unified singularity diagnostic.
///
/// The estimator is only as trustworthy as the solves behind it, and the
/// PVT corner skews of the statistical subsystem deliberately produce
/// badly scaled systems (kOhm next to GOhm, fF next to uF). This file
/// gives every solve path a quantified answer to "how many digits did
/// that factorization actually deliver?" and the tools to win digits
/// back when the answer is "not enough":
///
///  - EQUILIBRATION: row/column scale factors snapped to powers of two,
///    so applying and removing them is bit-exact — the stamped matrix
///    and RHS can be scaled in place around a factorization and restored
///    without perturbing a single stamp bit.
///  - CONDITION ESTIMATE: Hager's 1-norm estimator (the LAPACK xxCON
///    family algorithm) — a handful of solve / transpose-solve probes
///    against the existing factorization, no refactorization.
///  - ITERATIVE REFINEMENT: fixed-precision residual correction with a
///    residual-based acceptance test; cheap (one matvec + one solve per
///    iteration, factors reused) and only triggered when pivot growth or
///    the condition estimate says the factorization lost digits.
///
/// Everything here is allocation-disciplined: callers own the scratch
/// vectors, so the solver workspaces can fold them into their audited
/// setup bytes (see SolveWorkspace::measured_bytes).
///
/// Layering: this header depends on nothing above src/util and pulls in
/// no ape headers at all, so diagnostics.h can embed NumericHealth in
/// ConvergenceReport and matrix.h can emit the unified singularity
/// message without an include cycle.

#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace ape {

/// Per-solve numerical-health record surfaced through
/// ConvergenceReport/KernelStats (DESIGN.md section 15). Zero-valued
/// gauges mean "not measured" — on healthy systems only pivot growth is
/// tracked, everything else stays off.
struct NumericHealth {
  double cond_estimate = 0.0;    ///< Hager 1-norm estimate (0 = not run)
  double pivot_growth = 0.0;     ///< max|LU| / max|A| of the factorization
  double residual_norm = 0.0;    ///< final relative residual (0 = not run)
  int refinement_iterations = 0; ///< refinement correction steps applied
  bool equilibrated = false;     ///< row/col scaling was applied
  bool recovered = false;        ///< solve needed a recovery rung to land

  /// One-line human-readable form for logs and error messages.
  std::string summary() const;
};

namespace health {

/// Pivot growth beyond this triggers the condition estimate (growth is
/// tracked on every factorization; it is nearly free).
constexpr double kPivotGrowthTrigger = 1e7;
/// Condition estimate beyond this triggers iterative refinement: with
/// cond ~ 1e10 a double solve has ~6 trustworthy digits left.
constexpr double kCondTrigger = 1e10;
/// Refinement acceptance: relative residual at or below this is "solved
/// to working precision" for an MNA system.
constexpr double kResidualTarget = 1e-12;
/// Fixed-precision refinement cap — beyond this the factorization is too
/// damaged for refinement and the caller escalates (equilibrate, switch
/// kernel, gmin bump).
constexpr int kMaxRefineIters = 4;
/// Shared dense/sparse pivot-collapse tolerance: |pivot| <= max|a| * this
/// declares the factorization singular.
constexpr double kSingularRelTol = 1e-300;

}  // namespace health

/// The unified singularity diagnostic (dense and sparse kernels throw
/// the same structured shape, so retry classification and tests never
/// depend on which kernel ran):
///   "<kernel> LU: singular pivot at step K of N (|pivot| <= 1.2e-297;
///    max|a| 1.2e+03, rel_tol 1e-300)"
std::string singular_message(const char* kernel, size_t step, size_t dim,
                             double scale, double rel_tol);

/// Nearest power of two to \p magnitude, inverted — the scale that maps
/// a row/column of that magnitude to O(1). Returns 1.0 for zero or
/// non-finite magnitudes (degenerate rows are left alone).
double pow2_scale(double magnitude);

/// Compute power-of-two row/column equilibration scales for a dense
/// row-major n-by-n matrix (rows first, then columns of the row-scaled
/// matrix). Returns false — and leaves the scales all-ones — when the
/// matrix is empty or any scale would be non-finite (overflow guard);
/// callers then skip equilibration entirely.
template <typename T>
bool compute_equilibration(const T* a, size_t n, std::vector<double>& row_scale,
                           std::vector<double>& col_scale);

/// CSR variant of compute_equilibration (pattern slots + values).
template <typename T>
bool compute_equilibration_csr(const int* row_ptr, const int* cols,
                               const T* vals, size_t n,
                               std::vector<double>& row_scale,
                               std::vector<double>& col_scale);

/// Apply a_ij *= row_scale[i] * col_scale[j] in place. Exact (and thus
/// exactly reversible via unscale_dense) because the scales are powers
/// of two.
template <typename T>
void scale_dense(T* a, size_t n, const std::vector<double>& row_scale,
                 const std::vector<double>& col_scale);

/// Undo scale_dense bit-exactly (divide by the same power-of-two scales).
template <typename T>
void unscale_dense(T* a, size_t n, const std::vector<double>& row_scale,
                   const std::vector<double>& col_scale);

/// CSR variant of scale_dense (no unscale needed: sparse value arrays
/// are regathered from the stamps before every factorization).
template <typename T>
void scale_csr(const int* row_ptr, const int* cols, T* vals, size_t n,
               const std::vector<double>& row_scale,
               const std::vector<double>& col_scale);

/// v_i *= s_i (use with the inverse scales to unscale; powers of two
/// make either direction exact).
template <typename T>
void scale_vector(std::vector<T>& v, const std::vector<double>& s);

/// v_i /= s_i.
template <typename T>
void unscale_vector(std::vector<T>& v, const std::vector<double>& s);

/// 1-norm (max column absolute sum) of a dense row-major n-by-n matrix.
template <typename T>
double norm1_dense(const T* a, size_t n, std::vector<double>& col_sums);

/// 1-norm of a CSR matrix.
template <typename T>
double norm1_csr(const int* row_ptr, const int* cols, const T* vals, size_t n,
                 std::vector<double>& col_sums);

/// The infinity norms below (the refinement residual's) take |z| as
/// |re| + |im| for complex entries, like LAPACK's CABS1: within sqrt(2)
/// of the modulus, and no hypot per entry in the per-solve checks.

/// Infinity norm (max row absolute sum) of a dense row-major matrix.
template <typename T>
double norm_inf_dense(const T* a, size_t n);

/// Infinity norm of a CSR matrix.
template <typename T>
double norm_inf_csr(const int* row_ptr, const T* vals, size_t n);

/// max_i |v_i|.
template <typename T>
double norm_inf_vec(const std::vector<T>& v);

/// Hager's 1-norm condition estimate: ||A||_1 * est(||A^-1||_1), where
/// the inverse norm is probed through the callbacks. \p solve overwrites
/// its argument with A^-1 v; \p solve_t with A^-T v (plain transpose,
/// no conjugation — the complex instantiation conjugates internally to
/// form the A^-H probe Higham's algorithm needs). \p work is
/// caller-owned scratch (resized to n). Returns +inf when a probe solve
/// produces non-finite values.
template <typename T>
double condest_1norm(size_t n, double anorm1,
                     const std::function<void(std::vector<T>&)>& solve,
                     const std::function<void(std::vector<T>&)>& solve_t,
                     std::vector<T>& work);

/// Outcome of one refine_solution run.
struct RefineOutcome {
  double residual = 0.0;  ///< final relative residual
  int iterations = 0;     ///< correction steps applied
  bool converged = false; ///< residual reached health::kResidualTarget
  bool diverged = false;  ///< residual grew — factorization unusable
};

/// One residual measurement without correction: leaves b - A x in
/// \p resid and returns ||b - Ax||_inf / (||A||_inf ||x||_inf + ||b||_inf)
/// (+inf when non-finite). \p matvec(v, y) computes y = A v against the
/// ORIGINAL (unequilibrated) matrix; it is a template parameter so the
/// per-solve checks inline it.
template <typename T, typename MatVec>
double relative_residual(const std::vector<T>& b, const std::vector<T>& x,
                         MatVec&& matvec, double anorm_inf,
                         std::vector<T>& resid) {
  matvec(x, resid);
  for (size_t i = 0; i < b.size(); ++i) resid[i] = b[i] - resid[i];
  const double denom = anorm_inf * norm_inf_vec(x) + norm_inf_vec(b);
  if (!(denom > 0.0)) return 0.0;
  const double r = norm_inf_vec(resid) / denom;
  return std::isfinite(r) ? r : std::numeric_limits<double>::infinity();
}

/// Fixed-precision iterative refinement of A x = b, continuing from a
/// measurement \p r0 = relative_residual(b, x, matvec, anorm_inf, resid)
/// whose b - A x is still in \p resid (so a caller that already checked
/// the residual pays no second matvec). \p correct(r, d) solves A d = r
/// through the current factorization (the caller handles equilibration
/// inside it). Iteration stops at health::kResidualTarget, on
/// stagnation, on divergence (x is then rolled back to its best
/// iterate), or after health::kMaxRefineIters.
template <typename T, typename MatVec, typename Correct>
RefineOutcome refine_from(double r0, const std::vector<T>& b,
                          std::vector<T>& x, MatVec&& matvec,
                          Correct&& correct, double anorm_inf,
                          std::vector<T>& resid, std::vector<T>& dx,
                          std::vector<T>& best_x) {
  RefineOutcome out;
  out.residual = r0;
  double best = out.residual;
  best_x = x;
  if (out.residual <= health::kResidualTarget) {
    out.converged = true;
    return out;
  }
  for (int it = 0; it < health::kMaxRefineIters; ++it) {
    // resid already holds b - A x from the last measurement.
    correct(resid, dx);
    for (size_t i = 0; i < x.size(); ++i) x[i] += dx[i];
    ++out.iterations;
    const double r = relative_residual(b, x, matvec, anorm_inf, resid);
    if (r < best) {
      best = r;
      best_x = x;
    }
    if (r <= health::kResidualTarget) {
      out.residual = r;
      out.converged = true;
      return out;
    }
    // Divergence or stagnation: a correction that does not at least
    // halve the residual will not start converging later in fixed
    // precision — stop and report the best iterate.
    if (!(r < 0.5 * out.residual)) {
      out.diverged = r > 2.0 * out.residual || !std::isfinite(r);
      break;
    }
    out.residual = r;
  }
  x = best_x;
  out.residual = best;
  out.converged = best <= health::kResidualTarget;
  return out;
}

/// Fixed-precision iterative refinement of A x = b: measure the
/// residual, then refine_from() it.
template <typename T, typename MatVec, typename Correct>
RefineOutcome refine_solution(const std::vector<T>& b, std::vector<T>& x,
                              MatVec&& matvec, Correct&& correct,
                              double anorm_inf, std::vector<T>& resid,
                              std::vector<T>& dx, std::vector<T>& best_x) {
  const double r0 = relative_residual(b, x, matvec, anorm_inf, resid);
  return refine_from(r0, b, x, matvec, correct, anorm_inf, resid, dx, best_x);
}

}  // namespace ape
