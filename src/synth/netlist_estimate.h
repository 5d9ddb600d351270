#pragma once
/// \file netlist_estimate.h
/// Performance estimation for user-level analog netlists - the paper's
/// stated next step ("we are currently incorporating into the APE
/// performance estimation procedures for user-level analog netlists").
///
/// Given an arbitrary SPICE netlist with an AC-stimulated input source,
/// the estimator solves the DC operating point once, builds an AWE
/// reduced-order model of the probed output (milliseconds instead of a
/// full AC sweep), and reports the usual APE attributes.

#include <complex>
#include <optional>
#include <string>
#include <vector>

#include "src/synth/awe.h"

namespace ape::synth {

struct NetlistEstimate {
  double dc_gain = 0.0;              ///< |H(0)| of the reduced model
  std::optional<double> ugf_hz;      ///< |H| = 1 crossing
  std::optional<double> f3db_hz;     ///< -3 dB frequency
  std::vector<std::complex<double>> poles;  ///< reduced-model poles [rad/s]
  double out_dc = 0.0;               ///< DC level of the output node [V]
  double power_w = 0.0;              ///< supply power (0 if no supply named)
  double gate_area_m2 = 0.0;         ///< total MOSFET gate area
  int n_mosfets = 0;
  int n_nodes = 0;
};

struct NetlistEstimateOptions {
  std::string out_node = "out";
  std::string supply_source;   ///< optional VDD source name for power
  int awe_order = 3;  ///< upper bound; awe_reduce may fit fewer poles
  /// Device names excluded from the linearization plus node ground-ties -
  /// the open-loop bias-trick handling of awe_reduce.
  std::vector<std::string> exclude;
  std::vector<std::pair<std::string, double>> ground_ties;
};

/// Estimate a user netlist's small-signal performance.
/// Throws ParseError / NumericError / LookupError on malformed input,
/// non-convergent bias or unknown probe names.
NetlistEstimate estimate_netlist(const std::string& netlist,
                                 const NetlistEstimateOptions& opts = {});

}  // namespace ape::synth
