#pragma once
/// \file verify.h
/// Bridge from APE design objects to the simulator substrate: runs a
/// design's testbench through DC + AC analyses and extracts the same
/// quantities the estimator predicted. This produces the "sim" columns of
/// the paper's Tables 2, 3 and 5.

#include <optional>

#include "src/estimator/components.h"
#include "src/estimator/netlist.h"
#include "src/estimator/opamp.h"
#include "src/spice/analysis.h"

namespace ape::est {

/// Raw measurements extracted from one testbench run.
struct SimMeasurement {
  double out_dc = 0.0;                ///< DC voltage of the output node [V]
  double power = 0.0;                 ///< supply power vdd * |I(Vdd)| [W]
  double dc_gain = 0.0;               ///< signed low-frequency gain
  std::optional<double> ugf_hz;       ///< |H| = 1 crossing [Hz]
  std::optional<double> f3db_hz;      ///< -3 dB frequency [Hz]
  std::optional<double> phase_margin; ///< [deg]
  double zout = 0.0;                  ///< 1/|I_ac| when the probe is a source [ohm]
  double out_current = 0.0;           ///< DC current through the probe source [A]
};

/// Run DC + AC on a testbench. \p fstart/fstop bound the AC sweep.
/// Throws (NumericError / ParseError) if the netlist fails to converge.
SimMeasurement simulate(const Testbench& tb, double fstart = 1.0,
                        double fstop = 1e9, int points_per_decade = 20);

/// Table-2 style verification of a basic component: measured power, gain,
/// UGF, output current and CMRR next to the estimates.
struct ComponentSimReport {
  double power = 0.0;
  double gain = 0.0;            ///< signed voltage gain, or Vout for DcVolt
  std::optional<double> ugf_hz;
  double current = 0.0;
  double zout = 0.0;
  std::optional<double> cmrr_db;
};

ComponentSimReport simulate_component(const ComponentDesign& design,
                                      const Process& proc);

/// Table-3 style verification of an opamp: the eight columns of the paper.
struct OpAmpSimReport {
  double power = 0.0;              ///< DC supply power [W]
  double gain = 0.0;               ///< open-loop DC gain (magnitude)
  std::optional<double> ugf_hz;
  std::optional<double> phase_margin;
  double ibias = 0.0;              ///< measured tail current [A]
  double zout = 0.0;               ///< open-loop output impedance [ohm]
  std::optional<double> cmrr_db;
  double slew = 0.0;               ///< unity-gain step slew rate [V/s]
  double out_dc = 0.0;             ///< output DC level in unity feedback [V]
};

/// Run the full opamp verification suite: open-loop AC, common-mode AC,
/// output-impedance AC and a unity-gain transient step.
/// \p with_transient can be disabled to save time in sweeps.
OpAmpSimReport simulate_opamp(const OpAmpDesign& design, const Process& proc,
                              bool with_transient = true);

/// The grid of simulate_opamp's unity-gain step: the testbench pulses the
/// input for pw (sized from the estimated slew) from t = 1 us, sampled
/// every pw / 200 up to 1 us + 2 pw; the input falls at fall_edge.
struct UnityStepGrid {
  double t_step = 0.0;     ///< [s]
  double t_stop = 0.0;     ///< [s]
  double fall_edge = 0.0;  ///< [s]
};
UnityStepGrid unity_step_grid(const OpAmpDesign& design);

/// The slew rate simulate_opamp reports for a unity-step waveform at
/// \p out: the slower of the rising and falling 20-80% edges (split at
/// \p fall_edge; the textbook min() composition), the one measurable edge
/// when only one is, and spice::slew_rate as the last resort.
double unity_step_slew(const spice::TranResult& tr, spice::NodeId out,
                       double fall_edge);

}  // namespace ape::est
