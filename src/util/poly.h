#pragma once
/// \file poly.h
/// Polynomial utilities for the AWE (Asymptotic Waveform Evaluation)
/// reduced-order evaluator: root finding and Pade coefficient solves.

#include <complex>
#include <vector>

namespace ape {

using Complex = std::complex<double>;

/// Evaluate a polynomial with coefficients c[0] + c[1] x + ... + c[n] x^n.
Complex poly_eval(const std::vector<Complex>& coeffs, Complex x);

/// All complex roots of the polynomial (coefficients low-to-high order,
/// leading coefficient non-zero after trimming). Uses the Durand-Kerner
/// (Weierstrass) simultaneous iteration, which is robust for the small
/// (order <= ~10) denominators AWE produces.
/// Throws ape::NumericError if the polynomial is constant.
std::vector<Complex> poly_roots(const std::vector<Complex>& coeffs);

/// Real-coefficient convenience overload.
std::vector<Complex> poly_roots(const std::vector<double>& coeffs);

/// Compute the denominator coefficients b[1..q] of a Pade approximation
/// from 2q moments m[0..2q-1]:  the b solve
///   sum_{k=1}^{q} b[k] * m[q - 1 - j + (k-1)] = -m[q + j]   (j = 0..q-1)
/// with b[0] = 1 implied. Returns {b1, ..., bq} such that
///   D(s) = 1 + b1 s + ... + bq s^q  matches the moment series.
/// Throws ape::NumericError on a singular moment matrix, including one that
/// is only numerically rank-deficient (smallest LU pivot at most 1e-10 of
/// its largest entry): the moments then come from fewer than q poles.
std::vector<double> pade_denominator(const std::vector<double>& moments, int q);

}  // namespace ape
