#include "src/util/poly.h"

#include <cmath>

#include "src/util/error.h"
#include "src/util/matrix.h"

namespace ape {
namespace {

/// Smallest pivot, relative to the largest Hankel entry, that
/// pade_denominator accepts as full rank.
constexpr double kHankelRankTol = 1e-10;

}  // namespace

Complex poly_eval(const std::vector<Complex>& coeffs, Complex x) {
  Complex acc{0.0, 0.0};
  for (size_t i = coeffs.size(); i-- > 0;) acc = acc * x + coeffs[i];
  return acc;
}

std::vector<Complex> poly_roots(const std::vector<Complex>& coeffs_in) {
  // Trim (numerically) zero leading coefficients.
  std::vector<Complex> c = coeffs_in;
  double max_abs = 0.0;
  for (const Complex& v : c) max_abs = std::max(max_abs, std::abs(v));
  if (max_abs == 0.0) throw NumericError("poly_roots: zero polynomial");
  while (c.size() > 1 && std::abs(c.back()) < 1e-14 * max_abs) c.pop_back();
  const int n = static_cast<int>(c.size()) - 1;
  if (n < 1) throw NumericError("poly_roots: constant polynomial");

  // Normalize to monic.
  for (Complex& v : c) v /= c.back();

  // Cauchy bound for |root| gives a starting radius.
  double radius = 0.0;
  for (int i = 0; i < n; ++i) radius = std::max(radius, std::abs(c[i]));
  radius = 1.0 + radius;

  // Durand-Kerner initial guesses: non-real, non-uniform spacing to avoid
  // symmetric stagnation.
  std::vector<Complex> r(n);
  for (int i = 0; i < n; ++i) {
    const double angle = 2.0 * M_PI * i / n + 0.4;
    r[i] = radius * Complex{std::cos(angle), std::sin(angle)} * (0.4 + 0.6 * (i + 1.0) / n);
  }

  for (int iter = 0; iter < 500; ++iter) {
    double worst = 0.0;
    for (int i = 0; i < n; ++i) {
      Complex denom{1.0, 0.0};
      for (int j = 0; j < n; ++j) {
        if (j != i) denom *= (r[i] - r[j]);
      }
      if (std::abs(denom) < 1e-300) denom = Complex{1e-300, 0.0};
      const Complex delta = poly_eval(c, r[i]) / denom;
      r[i] -= delta;
      worst = std::max(worst, std::abs(delta));
    }
    if (worst < 1e-13 * radius) break;
  }
  return r;
}

std::vector<Complex> poly_roots(const std::vector<double>& coeffs) {
  std::vector<Complex> c(coeffs.size());
  for (size_t i = 0; i < coeffs.size(); ++i) c[i] = Complex{coeffs[i], 0.0};
  return poly_roots(c);
}

std::vector<double> pade_denominator(const std::vector<double>& moments, int q) {
  if (q < 1 || moments.size() < static_cast<size_t>(2 * q)) {
    throw NumericError("pade_denominator: need 2q moments");
  }
  // Hankel system: for j = 0..q-1,
  //   sum_k m[j + k] * b[q - k]  = -m[q + j],  k = 0..q-1
  // where D(s) = 1 + b[1] s + ... + b[q] s^q.
  RealMatrix a(static_cast<size_t>(q), static_cast<size_t>(q));
  std::vector<double> rhs(static_cast<size_t>(q));
  for (int j = 0; j < q; ++j) {
    for (int k = 0; k < q; ++k) {
      // column index k corresponds to unknown b[k+1], coefficient m[q + j - (k+1)]
      a(static_cast<size_t>(j), static_cast<size_t>(k)) =
          moments[static_cast<size_t>(q + j - k - 1)];
    }
    rhs[static_cast<size_t>(j)] = -moments[static_cast<size_t>(q + j)];
  }
  LuSolver<double> lu(std::move(a));
  // Moments of a network with fewer than q poles give a Hankel matrix of
  // lower rank, which rounding leaves with a noise-level pivot instead of
  // an exact zero; solving it anyway invents poles.
  if (lu.min_pivot() <= kHankelRankTol * lu.max_abs_scale()) {
    throw NumericError("pade_denominator: moment matrix is rank-deficient");
  }
  return lu.solve(rhs);
}

}  // namespace ape
