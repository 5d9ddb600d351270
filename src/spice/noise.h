#pragma once
/// \file noise.h
/// Small-signal noise analysis: sums every device's equivalent noise
/// current source, each shaped by its own transfer function to the probe
/// node, into an output noise spectral density.
///
/// Method: at each frequency the complex MNA matrix is factorized once;
/// then for every noise source a unit current is injected across its
/// terminals and the resulting |V(out)|^2 weights that source's PSD.
/// Requires dc_operating_point() first (device op caches).

#include <string>
#include <vector>

#include "src/spice/circuit.h"
#include "src/util/diagnostics.h"

namespace ape::spice {

struct NoiseResult {
  std::vector<double> freq_hz;
  std::vector<double> out_v2;  ///< output noise PSD [V^2/Hz]
  std::vector<double> in_v2;   ///< input-referred PSD [V^2/Hz] (0 if no gain ref)

  /// RMS output noise integrated over [f1, f2] by trapezoid on the
  /// sampled grid [V].
  double integrated_out_vrms(double f1, double f2) const;
};

/// Sweep output noise at \p out_node over a log grid.
/// If \p in_source names a voltage source carrying AC 1, the input-
/// referred density out_v2/|H|^2 is filled as well.
/// The sweep's kernel counters (fused points, factorizations, multi-RHS
/// solves, sparse symbolic reuse) go to the job context's kernel sink,
/// as ac_analysis's do.
NoiseResult noise_analysis(Circuit& ckt, const std::string& out_node,
                           double f_start, double f_stop,
                           int points_per_decade = 10,
                           const std::string& in_source = "");

}  // namespace ape::spice
