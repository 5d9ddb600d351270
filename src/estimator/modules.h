#pragma once
/// \file modules.h
/// Level 4 of the APE hierarchy: the analog module library (paper section
/// 4, item 4, and Table 5). Modules are built from level-3 opamps plus
/// passives; their performance estimates combine the ideal RC behaviour
/// with the sized opamp's non-ideal attributes (finite gain, UGF, Rout,
/// slew), evaluated on a VCVS macromodel - the numeric form of the
/// paper's "equations which relate the ideal behavior of the component
/// with the non-ideal characteristics of the opamp".
///
/// Realization notes (documented substitutions, see DESIGN.md):
///  * the audio amplifier is realized as a resistive-feedback
///    non-inverting stage (a two-stage opamp cannot hold an open-loop
///    gain as low as 100 in a process with healthy Early voltage);
///  * the band-pass biquad uses the multiple-feedback (MFB) single-amp
///    realization; the low-pass uses genuine Sallen-Key stages;
///  * module testbenches use an ideal mid-rail reference source where a
///    production design would drop in the level-2 DCVolt component.

#include <string>
#include <vector>

#include "src/estimator/netlist.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/spice/measure.h"

namespace ape::est {

enum class ModuleKind {
  AudioAmp,       ///< gain-of-N audio amplifier (non-inverting)
  SampleHold,     ///< switch + hold cap + gain-of-2 buffer
  FlashAdc,       ///< N-bit flash converter (ladder + comparators)
  LowPassFilter,  ///< Sallen-Key Butterworth low-pass (even order)
  BandPassFilter, ///< MFB band-pass biquad
  InvertingAmp,   ///< R2/R1 inverting amplifier
  Integrator,     ///< lossy RC integrator (finite DC gain)
  Comparator,     ///< open-loop comparator with delay budget
  Adder,          ///< two-input inverting summer
  R2RDac,         ///< N-bit R-2R ladder DAC with output buffer
};

const char* to_string(ModuleKind kind);

/// Module requirements (Table 5 columns 1-3).
struct ModuleSpec {
  ModuleKind kind = ModuleKind::AudioAmp;
  double gain = 100.0;    ///< closed-loop gain (amp / S&H)
  double bw_hz = 20e3;    ///< bandwidth (amp / S&H)
  double f0_hz = 1e3;     ///< corner / center frequency (filters)
  int order = 4;          ///< filter order (2/4), converter bits, or adder inputs
  double delay_s = 5e-6;  ///< conversion/response delay budget (ADC, comparator, DAC)
  double slew = 1e4;      ///< slew-rate requirement [V/s] (S&H)
  double area_budget = 0.0;  ///< informational [m^2]
};

/// Estimated module performance (Table 5 column 5).
struct ModulePerf {
  double gain = 0.0;       ///< passband / DC gain
  double bw_hz = 0.0;      ///< -3 dB bandwidth (amp / S&H / BPF)
  double f3db_hz = 0.0;    ///< low-pass corner
  double f20db_hz = 0.0;   ///< low-pass -20 dB frequency
  double f0_hz = 0.0;      ///< band-pass center
  double delay_s = 0.0;    ///< ADC/comparator/DAC response delay
  double slew = 0.0;       ///< [V/s]
  double gate_area = 0.0;  ///< [m^2]
  double dc_power = 0.0;   ///< [W]
  double f_unity_hz = 0.0; ///< integrator unity-gain frequency
  double lsb_v = 0.0;      ///< DAC step size [V]
};

/// One passive element of a sized module (for reporting).
struct PassiveValue {
  std::string name;
  double value = 0.0;  ///< ohm or farad depending on the name prefix
};

/// A sized analog module.
struct ModuleDesign {
  ModuleSpec spec;
  ModulePerf perf;
  std::vector<OpAmpDesign> opamps;        ///< constituent opamps
  std::vector<TransistorDesign> switches; ///< S&H switch etc.
  std::vector<PassiveValue> passives;
  double vref = 0.0;                      ///< mid-rail reference used [V]

  /// Emit the full transistor-level verification testbench.
  Testbench testbench(const Process& proc) const;
};

/// VCVS-macromodel testbench of a module: the same wiring as the full
/// transistor testbench but with each opamp replaced by its level-3
/// attributes (gain, UGF, Zout). This is the estimator's own evaluation
/// view; the synthesis engine reuses it as a fast cost evaluator.
Testbench macro_testbench(const ModuleDesign& d, const Process& proc);

/// Macromodel Bode of a module design at its "out" node: macro_testbench
/// parsed, solved at DC, then swept from \p f_lo to \p f_hi at
/// \p points_per_decade.
spice::Bode macro_bode(const ModuleDesign& d, const Process& proc, double f_lo,
                       double f_hi, int points_per_decade);

/// Summed gate area [m^2] and dc power [W] of a module's opamps.
double amp_area(const ModuleDesign& d);
double amp_power(const ModuleDesign& d);

/// Sizes analog modules against a process.
class ModuleEstimator {
public:
  explicit ModuleEstimator(const Process& proc)
      : proc_(proc), xtor_(proc), opamp_(proc) {}

  /// Size a module and estimate its performance.
  ModuleDesign estimate(const ModuleSpec& spec) const;

  const Process& process() const { return proc_; }

private:
  ModuleDesign audio_amp(const ModuleSpec& s) const;
  ModuleDesign sample_hold(const ModuleSpec& s) const;
  ModuleDesign flash_adc(const ModuleSpec& s) const;
  ModuleDesign low_pass(const ModuleSpec& s) const;
  ModuleDesign band_pass(const ModuleSpec& s) const;
  ModuleDesign inverting_amp(const ModuleSpec& s) const;
  ModuleDesign integrator(const ModuleSpec& s) const;
  ModuleDesign comparator(const ModuleSpec& s) const;
  ModuleDesign adder(const ModuleSpec& s) const;
  ModuleDesign r2r_dac(const ModuleSpec& s) const;

  const Process& proc_;
  TransistorEstimator xtor_;
  OpAmpEstimator opamp_;
};

}  // namespace ape::est
