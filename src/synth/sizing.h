#pragma once
/// \file sizing.h
/// The circuit-sizing problem the ASTRX/OBLX-like engine optimizes: a
/// fixed opamp topology whose device geometries and compensation are the
/// unknowns (paper section 3: "the circuit topology is already selected;
/// the transistor sizes and bias points are set as unknowns; the user
/// provides intervals to establish ranges of allowable values").
///
/// Candidate points are scored by an analytic evaluation: the DC bias is
/// solved per branch from the model cards (including the second stage's
/// operating-point consistency, which is where blind search most often
/// produces non-functional designs), then the small-signal performance
/// composition. Final designs are always re-verified on the full MNA
/// simulator.

#include <memory>
#include <string>
#include <vector>

#include "src/estimator/opamp.h"
#include "src/estimator/process.h"

namespace ape::synth {

/// Phase-margin floor of the synthesis cost [deg].
inline constexpr double kMinPhaseMargin = 45.0;
/// Cost of a non-functional candidate, before its imbalance hint.
inline constexpr double kNonFunctionalCost = 1e3;

/// The unknown vector of the two-stage (optionally buffered) opamp.
struct OpAmpVars {
  double w1 = 10e-6, l1 = 2.4e-6;  ///< input pair
  double w3 = 10e-6, l3 = 2.4e-6;  ///< PMOS mirror load (and M6's Vov ref)
  double w5 = 10e-6, l5 = 4.8e-6;  ///< tail device
  double w6 = 20e-6, l6 = 2.4e-6;  ///< second-stage PMOS
  double w7 = 10e-6, l7 = 2.4e-6;  ///< second-stage sink
  double w8 = 5e-6;                ///< bias diode
  double l8 = 4.8e-6;              ///< bias diode length
  double w9 = 0.0, w10 = 0.0;      ///< buffer devices (0 = unbuffered)
  double cc = 2e-12;               ///< Miller capacitor

  bool buffered() const { return w9 > 0.0; }

  /// Flatten to the optimizer vector (13 entries, 15 when buffered).
  std::vector<double> pack() const;
  static OpAmpVars unpack(const std::vector<double>& x, bool buffered);
  static std::vector<std::string> names(bool buffered);
};

/// Analytic performance evaluation at a candidate point.
struct OpAmpEval {
  bool functional = false;  ///< bias point exists with all devices saturated
  double gain = 0.0;
  double ugf_hz = 0.0;
  double phase_margin = 0.0;
  double gate_area = 0.0;   ///< [m^2]
  double dc_power = 0.0;    ///< [W]
  double slew = 0.0;        ///< [V/s]
  double zout = 0.0;
  double itail = 0.0;
  double imbalance = 0.0;   ///< second-stage current mismatch when stuck
};

/// Evaluate an opamp candidate against the process at (ibias, cload).
OpAmpEval evaluate_opamp_vars(const est::Process& proc, const OpAmpVars& v,
                              double ibias, double cload);

/// Work counters of a BiasMemo: bias-solve stages solved, and stages
/// taken from the memo because their inputs matched a remembered solve.
struct BiasStageCounts {
  long solved = 0;
  long reused = 0;
};

/// A memo of the bias solve's stages for one annealer restart, bound to
/// its (process, ibias) (DESIGN.md section 7, "Incremental bias solve").
/// An anneal move changes one coordinate, and the walk returns to the
/// current point after every rejected candidate, so most stages of a
/// candidate read inputs a recent evaluation already solved. Each stage
/// is a pure function of the inputs it reads and is looked up by their
/// exact bits, so evaluating through the memo returns the same bits as
/// evaluating without one. Not thread-safe: every restart owns its own.
/// The process must outlive the memo.
class BiasMemo {
 public:
  /// Stage work is tallied into \p counts (not owned).
  BiasMemo(const est::Process& proc, double ibias, BiasStageCounts& counts);
  /// A copy (a cost closure is a copyable std::function) starts from the
  /// same entries and tallies into the same counts.
  BiasMemo(const BiasMemo& other);
  BiasMemo& operator=(const BiasMemo&) = delete;
  ~BiasMemo();

  struct Stages;  ///< the per-stage entries (sizing.cpp)

 private:
  friend OpAmpEval evaluate_opamp_vars(BiasMemo& memo, const OpAmpVars& v,
                                       double cload);
  const est::Process* proc_;
  double ibias_;
  std::unique_ptr<Stages> stages_;
};

/// evaluate_opamp_vars(proc, v, ibias, cload) for the memo's (proc,
/// ibias), bit for bit, solving only the stages the memo does not hold.
OpAmpEval evaluate_opamp_vars(BiasMemo& memo, const OpAmpVars& v,
                              double cload);

/// Scalarized ASTRX-style cost: sum of squared relative constraint
/// violations (gain/UGF/area/phase margin) plus a small power objective;
/// non-functional points get a large plateau plus an imbalance hint.
double opamp_cost(const OpAmpEval& e, const est::OpAmpSpec& spec);

/// Search box helpers.
/// Blind (Table 1): the full technology-legal ranges.
std::vector<std::pair<double, double>> blind_bounds(const est::Process& proc,
                                                    bool buffered);
/// APE-seeded (Table 4): +/- frac around the seed point.
std::vector<std::pair<double, double>> seeded_bounds(
    const std::vector<double>& seed, double frac,
    const est::Process& proc, bool buffered);
/// The narrowing seeded_bounds applies: +/- frac around each \p seed
/// coordinate, clipped to \p outer (same size); a coordinate whose seed
/// lies outside \p outer is pinned to the nearest legal point.
std::vector<std::pair<double, double>> narrow_box(
    const std::vector<double>& seed, double frac,
    const std::vector<std::pair<double, double>>& outer);

/// Extract the unknown vector from an APE design (the seed point).
OpAmpVars vars_from_design(const est::OpAmpDesign& d);

/// Materialize a full OpAmpDesign (for netlisting / SPICE verification)
/// from a candidate point; perf fields come from the analytic evaluation.
/// \p functional (optional) receives evaluate_opamp_vars' verdict on the
/// point, from the same bias solve.
est::OpAmpDesign design_from_vars(const est::Process& proc, const OpAmpVars& v,
                                  const est::OpAmpSpec& spec,
                                  bool* functional = nullptr);

}  // namespace ape::synth
