#pragma once
/// \file analysis.h
/// DC operating point, AC small-signal sweep and transient analysis.
///
/// The solver's tolerances, damping, ladders and iteration caps are the
/// constants below, not options: every caller runs with the same values,
/// and the supervision ladder's relaxed rung (JobContext::relaxed) is the
/// one place they change, by the kRelaxed* scalings. The options structs
/// carry only what a caller asks back: the ConvergenceReport.

#include <array>
#include <complex>
#include <vector>

#include "src/spice/circuit.h"
#include "src/util/diagnostics.h"

namespace ape::spice {

/// Newton-Raphson tolerances shared by the DC and transient solves (and
/// by the reference solver the tests compare against). A DC iteration
/// has converged when every node entry of successive iterates agrees to
/// kVntol + kReltol * |x| and every branch-current entry to
/// kAbstol + kReltol * |x|; a transient one holds every entry to
/// kVntol + kReltol * |x|.
inline constexpr double kReltol = 1e-4;
inline constexpr double kVntol = 1e-6;   ///< absolute node-voltage tolerance [V]
inline constexpr double kAbstol = 1e-9;  ///< absolute branch-current tolerance [A]

/// Newton iterations one DC ladder rung may spend.
inline constexpr int kDcMaxIterations = 300;
/// Max per-iteration node update [V] before a DC Newton step is damped.
inline constexpr double kVstepLimit = 0.6;
/// Cap on the damping divisor: each DC Newton step always closes at
/// least 1/kMaxDampingRatio of the remaining distance (keeps convergence
/// geometric for circuits with large legitimate internal swings).
inline constexpr double kMaxDampingRatio = 10.0;
/// gmin stepping ladder (diagonal conductance to ground on node rows).
/// Dense: each rung starts warm from the previous solution, so extra
/// rungs cost little and buy robustness on high-gain circuits.
inline constexpr std::array<double, 11> kGminSteps{
    1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12};
/// Source-stepping ladder tried if plain gmin stepping fails.
inline constexpr std::array<double, 6> kSourceSteps{0.1, 0.25, 0.5,
                                                    0.75, 0.9, 1.0};

/// Newton iterations one transient step attempt may spend.
inline constexpr int kTranMaxIterations = 100;
/// Local dt halvings a transient step may take on Newton failure.
inline constexpr int kMaxStepHalvings = 8;

/// The supervision ladder's relaxed rung (JobContext::relaxed, DESIGN.md
/// section 10): a re-run of a non-convergent job multiplies kReltol,
/// kVntol and kAbstol by kRelaxedTolFactor, stops the gmin ladder at
/// kRelaxedGminFloor (a slightly damped but solvable system) instead of
/// descending to the ideal 1e-12 rung, and lets a transient step take
/// kRelaxedExtraStepHalvings more halvings.
inline constexpr double kRelaxedTolFactor = 10.0;
inline constexpr double kRelaxedGminFloor = 1e-10;
inline constexpr int kRelaxedExtraStepHalvings = 4;

/// The caller's side of a DC solve.
struct DcOptions {
  /// When set, filled with which recovery plan converged and the solve's
  /// iteration / failure counters (reset at the start of each call).
  ConvergenceReport* report = nullptr;
};

/// Newton iterations the Seeded plan of dc_operating_point() may spend
/// before it gives up on the .nodeset guess and climbs the ladders from
/// zero. A seed near the answer converges in a handful; a bad one must
/// not cost more than a few ladder rungs.
inline constexpr int kSeededMaxIterations = 20;

/// Every analysis below polls the job context's budget (JobContext::budget,
/// installed by ScopedBudget) between units of work: DC ladder rungs,
/// dc_sweep points, blocks of AC points and transient steps. An exhausted
/// budget aborts the analysis with a NumericError naming where it stopped
/// and why (never mid-iteration, so no solution vector is left
/// half-updated).

/// Solve the DC operating point. Plans run in order until one converges
/// (ConvergenceReport::plan records which):
///   1. Seeded: when the circuit carries .nodeset guesses
///      (Circuit::nodesets()), one damped Newton solve at the final gmin
///      rung from those voltages, capped at a fixed iteration count. On
///      failure x resets to zero, so the ladders below are unchanged.
///   2. GminLadder (Plan A): Newton down kGminSteps from zero.
///   3. SourceStepping (Plan B): source ramp at gmin 1e-9, then the ladder.
/// On success every device has its operating point cached
/// (Device::save_op) so AC / transient analyses can follow. Throws
/// NumericError if Newton fails to converge; the message carries the
/// ErrorContext provenance chain and the ConvergenceReport summary of
/// how far the recovery ladder got. transient() and dc_sweep() solve
/// their initial points through this function, so they honour the seed.
Solution dc_operating_point(Circuit& ckt, const DcOptions& opts = {});

/// Node voltage by name from a solution.
double node_voltage(const Circuit& ckt, const Solution& sol, const std::string& node);

/// Current through a named voltage source (positive current flows into
/// the + terminal through the source, SPICE convention).
double source_current(Circuit& ckt, const Solution& sol, const std::string& vsource);

/// DC transfer sweep: steps a named source's DC value and re-solves the
/// operating point, warm-starting each point from the previous solution.
struct DcSweepResult {
  std::vector<double> values;      ///< swept source values
  std::vector<Solution> solutions; ///< converged operating points

  double voltage(NodeId node, size_t k) const { return solutions.at(k).at(node); }
};

/// Sweep \p vsource from \p start to \p stop (inclusive) in steps of
/// \p step. Devices keep the op cache of the LAST point. A mid-sweep
/// convergence failure throws a NumericError naming the failing sweep
/// value; the swept source's DC value is restored first.
DcSweepResult dc_sweep(Circuit& ckt, const std::string& vsource, double start,
                       double stop, double step, const DcOptions& opts = {});

// ---------------------------------------------------------------------------

/// One AC sweep: complex node voltages at each frequency point.
struct AcResult {
  std::vector<double> freq_hz;
  /// solutions[k] is the complex MNA solution at freq_hz[k].
  std::vector<std::vector<std::complex<double>>> solutions;

  /// Complex voltage of a node at sweep index k.
  std::complex<double> voltage(NodeId node, size_t k) const {
    if (node == kGround) return {0.0, 0.0};
    return solutions.at(k).at(static_cast<size_t>(node));
  }
};

/// Logarithmic AC sweep. Requires a previous dc_operating_point() so the
/// devices have cached small-signal parameters. The compiled AC kernel's
/// counters for the sweep (fused points, factorizations, workspace
/// footprint) go to the job context's kernel sink (JobContext::kernel_sink).
AcResult ac_analysis(Circuit& ckt, double f_start, double f_stop,
                     int points_per_decade = 20);

// ---------------------------------------------------------------------------

/// Transient analysis result: node voltages over time.
struct TranResult {
  std::vector<double> time_s;
  std::vector<Solution> solutions;

  double voltage(NodeId node, size_t k) const { return solutions.at(k).at(node); }
};

/// The caller's side of a transient run.
struct TranOptions {
  /// When set, filled with step-halving / failure counters for the run;
  /// report->kernel carries the work counters (device_bypasses,
  /// factor_reuses, factorizations, solves).
  ConvergenceReport* report = nullptr;
};

/// Fixed-step transient from the DC operating point at t = 0.
/// Runs dc_operating_point() internally to establish initial conditions,
/// so the job's budget bounds that ladder as well as the time steps.
/// The output grid is exactly the user grid (0, t_step, 2*t_step, ...,
/// t_stop) even when Newton failures force internal sub-stepping;
/// sub-step solutions are used for integration but never recorded.
///
/// Each Newton iteration redoes only the work whose inputs changed
/// (DESIGN.md section 8): the charge companions are stamped once per
/// step attempt into the linear baseline; a MOSFET whose vgs, vds and vbs
/// each moved at most kVntol since its last evaluation, with a predicted
/// current change of at most kReltol * |ids| + 1e-12 A, stamps that
/// evaluation again instead of re-evaluating (and an accepted step keeps
/// its capacitances under the same voltage rule); and a solve whose
/// matrix is bitwise the one last factored reuses the factors. The
/// result differs from a full-Newton transient by second-order terms in
/// a move of at most kVntol. The bypass window is the Newton tolerance,
/// so the relaxed rung's kRelaxedTolFactor widens both alike.
TranResult transient(Circuit& ckt, double t_step, double t_stop,
                     const TranOptions& opts = {});

}  // namespace ape::spice
