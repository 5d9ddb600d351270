#pragma once
/// \file opamp.h
/// Level 3 of the APE hierarchy: operational amplifiers (paper section 4,
/// item 3, Tables 1/3/4).
///
/// The general opamp template follows the paper's three-stage structure:
/// (1) differential input amplifier, (2) differential-to-single-ended
/// conversion + gain stage, (3) optional output buffer for heavy loads -
/// a two-stage Miller-compensated CMOS opamp with an NMOS source-follower
/// buffer. The tail current source comes from the level-2 library in
/// either "Mirror" (simple) or "Wilson" flavour, matching Table 1's
/// CurrSrc column.

#include <string>
#include <vector>

#include "src/estimator/components.h"
#include "src/estimator/netlist.h"
#include "src/estimator/process.h"
#include "src/estimator/transistor.h"
#include "src/util/json.h"

namespace ape::est {

/// Tail current-source topology (Table 1 "CurrSrc" column).
enum class CurrentSourceKind { Mirror, Wilson };

/// Requirements for an operational amplifier (Table 1 columns).
struct OpAmpSpec {
  double gain = 200.0;       ///< DC differential gain target (absolute)
  double ugf_hz = 1e6;       ///< unity-gain frequency target [Hz]
  double ibias = 1e-6;       ///< available reference current [A]
  double cload = 10e-12;     ///< load capacitance [F]
  CurrentSourceKind source = CurrentSourceKind::Mirror;
  bool buffer = false;       ///< include the output source-follower
  double zout = 0.0;         ///< output impedance target when buffered [ohm]
  double area_budget = 0.0;  ///< informational gate-area budget [m^2] (0 = none)

  /// The serve request's "spec" members (src/serve/protocol.h).
  void to_json(json::Writer& w) const;
};

/// Estimated opamp performance (Table 3 columns).
struct OpAmpPerf {
  double gain = 0.0;        ///< DC differential gain
  double ugf_hz = 0.0;      ///< unity-gain frequency [Hz]
  double phase_margin = 0.0;///< [deg]
  double dc_power = 0.0;    ///< [W]
  double gate_area = 0.0;   ///< [m^2]
  double ibias = 0.0;       ///< tail current [A]
  double zout = 0.0;        ///< open-loop output impedance [ohm]
  double cmrr_db = 0.0;
  double slew = 0.0;        ///< [V/s]
  double input_noise_v2 = 0.0;  ///< input-referred white noise PSD [V^2/Hz]
  double cc = 0.0;          ///< compensation capacitor [F]
  double rz = 0.0;          ///< zero-nulling resistor [ohm]
  double input_cm = 0.0;    ///< input common-mode bias for testbenches [V]

  /// Every field, keyed by its name (json.h).
  void to_json(json::Writer& w) const;
};

/// The small-signal numbers of one device that compose_two_stage reads.
struct SmallSignal {
  double gm = 0.0, gds = 0.0, gmb = 0.0, cgd = 0.0, cdb = 0.0;
};
SmallSignal small_signal(const TransistorDesign& t);
SmallSignal small_signal(const spice::MosEval& e);

/// Load on the second stage: the follower's gate when buffered [F].
double second_stage_load(bool buffered, double cload);

/// The operating point of the two-stage Miller opamp, with its optional
/// NMOS follower buffer. The estimator fills it from its sized devices
/// and target gm1, the synthesis evaluator from its solved bias point.
struct TwoStagePoint {
  SmallSignal m1, m4;   ///< input device, mirror-load output
  SmallSignal m6, m7;   ///< second-stage PMOS and sink
  SmallSignal m9, m10;  ///< follower and its sink (read when buffered)
  bool buffered = false;
  double gm_ugf = 0.0;  ///< transconductance that sets the UGF [S]
  double cc = 0.0, cl2 = 0.0, cload = 0.0;  ///< Miller, stage-2, load [F]
  double vdd = 0.0;
  /// Branch currents [A]: reference, tail, stage 2, follower (or 0).
  double ibias = 0.0, itail = 0.0, i6 = 0.0, i9 = 0.0;
};

/// The one two-stage performance composition: gain, UGF (Cc plus M6's
/// Miller overlap, with the second-pole and buffer-pole magnitude
/// droops), phase margin, dc_power, slew and zout. The other OpAmpPerf
/// fields stay 0 for the caller.
OpAmpPerf compose_two_stage(const TwoStagePoint& p);

/// Testbench flavours an opamp design can emit.
enum class OpAmpTb {
  OpenLoop,    ///< AC differential drive, inductive DC feedback
  CommonMode,  ///< AC common-mode drive (CMRR)
  ZoutProbe,   ///< AC current injection at the output
  UnityStep,   ///< unity-gain transient step (slew rate)
};

/// A fully sized opamp.
struct OpAmpDesign {
  OpAmpSpec spec;
  OpAmpPerf perf;
  std::vector<TransistorDesign> transistors;
  std::vector<std::string> roles;

  /// Emit a verification testbench of the requested flavour.
  Testbench testbench(const Process& proc, OpAmpTb mode = OpAmpTb::OpenLoop) const;

  /// Emit the bare opamp as a reusable subcircuit into \p nb.
  /// Nodes: \p inp, \p inn, \p out, \p vdd_node; the bias reference
  /// current source is included (from vdd to the bias node).
  /// \p prefix uniquifies internal node names.
  void emit(NetlistBuilder& nb, const Process& proc, const std::string& prefix,
            const std::string& inp, const std::string& inn,
            const std::string& out, const std::string& vdd_node) const;
};

/// Sizes two-stage (optionally buffered) opamps against a process.
class OpAmpEstimator {
public:
  explicit OpAmpEstimator(const Process& proc)
      : proc_(proc), xtor_(proc), comp_(proc) {}

  /// Size an opamp and estimate its performance.
  /// Throws SpecError when the (gain, UGF, Ibias, CL) combination is
  /// infeasible in this process.
  OpAmpDesign estimate(const OpAmpSpec& spec) const;

  const Process& process() const { return proc_; }

private:
  /// One sizing pass with the first-stage gm scaled by \p ugf_margin;
  /// estimate() iterates the margin until the parasitic-corrected UGF
  /// lands on the spec.
  OpAmpDesign build(const OpAmpSpec& spec, double ugf_margin) const;

  const Process& proc_;
  TransistorEstimator xtor_;
  ComponentEstimator comp_;
};

}  // namespace ape::est
