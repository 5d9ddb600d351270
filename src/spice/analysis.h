#pragma once
/// \file analysis.h
/// DC operating point, AC small-signal sweep and transient analysis.

#include <complex>
#include <functional>
#include <vector>

#include "src/spice/circuit.h"
#include "src/util/diagnostics.h"

namespace ape::spice {

/// Knobs for the Newton-Raphson DC solve.
struct DcOptions {
  int max_iterations = 300;
  double reltol = 1e-4;
  double vntol = 1e-6;     ///< absolute node-voltage tolerance [V]
  double abstol = 1e-9;    ///< absolute branch-current tolerance [A]
  double vstep_limit = 0.6;///< max per-iteration node update [V] (damping)
  /// Cap on the damping divisor: each Newton step always closes at least
  /// 1/max_damping_ratio of the remaining distance (keeps convergence
  /// geometric for circuits with large legitimate internal swings).
  double max_damping_ratio = 10.0;
  /// gmin stepping ladder (diagonal conductance to ground on node rows).
  /// Dense by default: each rung starts warm from the previous solution,
  /// so extra rungs cost little and buy robustness on high-gain circuits.
  std::vector<double> gmin_steps{1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7,
                                 1e-8, 1e-9, 1e-10, 1e-11, 1e-12};
  /// Source-stepping ladder tried if plain gmin stepping fails.
  std::vector<double> source_steps{0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
  /// When set, filled with which recovery plan converged and the solve's
  /// iteration / failure counters (reset at the start of each call).
  ConvergenceReport* report = nullptr;
  /// Cooperative deadline: checked between ladder rungs; an exhausted
  /// budget aborts the solve with a NumericError (never mid-iteration).
  /// The job context's budget (JobContext::budget) is polled at the
  /// same sites, so a supervisor deadline needs no options plumbing.
  const RunBudget* budget = nullptr;
  /// Invoked on the finalized circuit before the first Newton iteration;
  /// throwing from the hook aborts the solve. The lint layer plugs its
  /// structural-solvability gate in here (lint::preflight(), DESIGN.md
  /// section 9) so singular topologies fail fast with a named rule
  /// instead of burning the whole gmin / source-stepping ladder.
  std::function<void(const Circuit&)> preflight;
};

/// Newton iterations the Seeded plan of dc_operating_point() may spend
/// before it gives up on the .nodeset guess and climbs the ladders from
/// zero. A seed near the answer converges in a handful; a bad one must
/// not cost more than a few ladder rungs.
inline constexpr int kSeededMaxIterations = 20;

/// Solve the DC operating point. Plans run in order until one converges
/// (ConvergenceReport::plan records which):
///   1. Seeded: when the circuit carries .nodeset guesses
///      (Circuit::nodesets()), one damped Newton solve at the final gmin
///      rung from those voltages, capped at a fixed iteration count. On
///      failure x resets to zero, so the ladders below are unchanged.
///   2. GminLadder (Plan A): Newton down DcOptions::gmin_steps from zero.
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
/// devices have cached small-signal parameters. When \p kstats is set it
/// receives the compiled AC kernel's counters for the sweep (fused
/// points, factorizations, workspace footprint). Polls the
/// thread's ambient job budget per point (there is no per-call budget
/// knob) so supervisor deadlines reach frequency sweeps too.
AcResult ac_analysis(Circuit& ckt, double f_start, double f_stop,
                     int points_per_decade = 20, KernelStats* kstats = nullptr);

// ---------------------------------------------------------------------------

/// Transient analysis result: node voltages over time.
struct TranResult {
  std::vector<double> time_s;
  std::vector<Solution> solutions;

  double voltage(NodeId node, size_t k) const { return solutions.at(k).at(node); }
};

struct TranOptions {
  int max_iterations = 100;
  double reltol = 1e-4;
  double vntol = 1e-6;
  int max_step_halvings = 8;  ///< local dt refinement on Newton failure
  /// When set, filled with step-halving / failure counters for the run.
  ConvergenceReport* report = nullptr;
  /// Cooperative deadline: checked between time steps; an exhausted
  /// budget aborts with a NumericError naming the time reached. The
  /// job context's budget (JobContext::budget) is polled at the same sites.
  const RunBudget* budget = nullptr;
};

/// Fixed-step transient from the DC operating point at t = 0.
/// Runs dc_operating_point() internally to establish initial conditions.
/// The output grid is exactly the user grid (0, t_step, 2*t_step, ...,
/// t_stop) even when Newton failures force internal sub-stepping;
/// sub-step solutions are used for integration but never recorded.
TranResult transient(Circuit& ckt, double t_step, double t_stop,
                     const TranOptions& opts = {});

}  // namespace ape::spice
