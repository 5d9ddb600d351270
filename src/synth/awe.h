#pragma once
/// \file awe.h
/// Asymptotic Waveform Evaluation (Pillage & Rohrer) - the reduced-order
/// AC evaluator ASTRX/OBLX used inside its annealing loop (paper section
/// 3: "The AWE technique is used to simulate the circuit").
///
/// Given a circuit with a cached DC operating point, the linearized MNA
/// system is (G + sC) X(s) = B. Moments of X are m0 = G^-1 B,
/// m_k = -G^-1 C m_{k-1}; a Pade approximation of order q turns the first
/// 2q moments of the probed output into a rational model whose poles and
/// residues give the full frequency response at negligible cost.

#include <complex>
#include <string>
#include <utility>
#include <vector>

#include "src/spice/circuit.h"

namespace ape::synth {

/// A reduced-order model of one transfer function H(s) = V(out) / stimulus.
class AweModel {
public:
  /// Magnitude/phase of the reduced model at frequency f [Hz].
  std::complex<double> eval(double f_hz) const;

  /// DC value of the transfer function (moment 0).
  double dc_gain() const { return m0_; }

  /// Model poles [rad/s] (negative real parts for a stable circuit).
  const std::vector<std::complex<double>>& poles() const { return poles_; }

  /// Residue of each pole: H(s) = sum_i residues()[i] / (s - poles()[i]).
  const std::vector<std::complex<double>>& residues() const { return residues_; }

  /// First |H| = 1 crossing, found by bisection on the model [Hz];
  /// 0 when the model never crosses unity below f_max.
  double unity_gain_freq(double f_max = 1e12) const;

  /// First |H| = dc/sqrt(2) crossing [Hz].
  double f_3db(double f_max = 1e12) const;

private:
  friend AweModel awe_reduce(
      spice::Circuit&, const std::string&, int,
      const std::vector<std::string>&,
      const std::vector<std::pair<std::string, double>>&);
  double m0_ = 0.0;
  std::vector<std::complex<double>> poles_;
  std::vector<std::complex<double>> residues_;
};

/// Build a q-pole AWE model of the voltage at \p out_node with respect to
/// the circuit's AC stimulus. Requires dc_operating_point() to have run
/// (devices must hold their small-signal caches). Typical q: 2..6.
/// \p exclude lists device names to omit from the linearized system -
/// used to drop DC-feedback bias tricks (huge L / C) so the expansion
/// around s = 0 sees the open loop. \p q is an upper bound: when the
/// network has fewer poles, or the scaled moments of order q overflow,
/// the model uses the largest order whose moments are finite and whose
/// moment matrix is nonsingular, so poles().size() may be below q.
/// Throws NumericError if even order 1 fails.
/// \p ground_ties adds a conductance from each named node to ground in
/// the linearized system (AC-grounding a bias node whose feedback element
/// was excluded, without touching the cached operating point).
AweModel awe_reduce(
    spice::Circuit& ckt, const std::string& out_node, int q = 4,
    const std::vector<std::string>& exclude = {},
    const std::vector<std::pair<std::string, double>>& ground_ties = {});

}  // namespace ape::synth
