#pragma once
/// \file prove.h
/// Feasibility proving over the analytic performance equations — the
/// APE-F rule family (DESIGN.md §14).
///
/// ape-lint (lint.h) proves MNA *solvability*: the circuit has a unique
/// DC solution. This layer proves (or refutes) *achievability*: can any
/// sizing inside the technology box meet the spec at all? The level-1
/// square-law performance equations of the two-stage Miller opamp
/// (gain, UGF, phase-margin surrogate, slew, power, area, input noise)
/// are evaluated once, templated on the numeric type — `double` for a
/// point sample, `util::Interval` for a guaranteed outer enclosure over
/// the whole sizing box. A spec the enclosure *excludes* is provably
/// unreachable by the topology in this process (at this corner), so the
/// verdict is sound by construction: no retry ladder, anneal restart or
/// simulator minute can ever rescue such a job.
///
/// Rule catalog (stable ids, severities in parentheses):
///
///   APE-F001 infeasible-spec (error) a proven metric bound excludes the
///                                    spec; the finding carries the
///                                    violated inequality and interval
///   APE-F002 tight-spec      (warn)  the spec sits within a configurable
///                                    margin of the proven bound
///   APE-F003 vacuous-spec    (note)  the spec is satisfied over the
///                                    entire box (the constraint cannot
///                                    bind the search)
///
/// Consumers: `BatchOptions::lint_first` classifies APE-F001 jobs as
/// ErrorClass::Permanent pre-solve (LintError), `ape_serve` rejects
/// infeasible synthesize requests at admission with the proof,
/// `run_corner_sweep` skips provably-infeasible corners, and
/// `SynthesisOptions.{feasible_box, cost_lower_bound}` seed the
/// multi-start annealer and its early-termination bound.

#include <string>
#include <utility>
#include <vector>

#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/lint/lint.h"
#include "src/util/interval.h"

namespace ape::lint {

/// Knobs for the prover. The defaults are what every lint-first gate
/// uses; tests tighten `tight_margin` and pass explicit boxes.
struct ProveOptions {
  /// APE-F002 fires when the spec is within this relative distance of
  /// the proven bound (0.25 = within 25%).
  double tight_margin = 0.25;
  /// Box-contraction sweep: geometric segments per variable and passes
  /// over the variable list. 0 segments disables contraction.
  int contraction_segments = 8;
  int contraction_passes = 2;
  /// Optional explicit sizing box: 13 [lo, hi] pairs in
  /// synth::OpAmpVars::pack order (w1 l1 w3 l3 w5 l5 w6 l6 w7 l7 w8 l8
  /// cc, unbuffered layout). Empty = the synthesizer's blind box,
  /// synth::blind_bounds(proc, false).
  std::vector<std::pair<double, double>> box;
};

/// Outer enclosures of every estimated metric over the sizing box.
struct MetricBounds {
  util::Interval gain;
  util::Interval ugf_hz;
  util::Interval phase_margin;  ///< [deg]
  util::Interval slew;          ///< [V/s]
  util::Interval dc_power;      ///< [W]
  util::Interval gate_area;     ///< [m^2]
  util::Interval input_noise_v2;  ///< [V^2/Hz]
};

/// Point twin of MetricBounds: the same equations instantiated at
/// `double`. The soundness property — tested over randomized (spec,
/// box, corner) cases — is that for any x inside the box every field
/// here lies inside the matching interval of the box's MetricBounds.
struct PointMetrics {
  double gain = 0.0;
  double ugf_hz = 0.0;
  double phase_margin = 0.0;
  double slew = 0.0;
  double dc_power = 0.0;
  double gate_area = 0.0;
  double input_noise_v2 = 0.0;
};

/// A feasibility verdict with its evidence.
struct FeasibilityProof {
  Report report;            ///< APE-F findings (also carries provenance)
  bool infeasible = false;  ///< some APE-F001 fired
  MetricBounds bounds;      ///< enclosures over the *input* box
  /// Contracted per-variable hull: every sizing inside the input box
  /// that satisfies the spec provably lies inside this box (it is never
  /// empty unless `infeasible`). Same layout as ProveOptions::box.
  std::vector<std::pair<double, double>> feasible_box;
  /// Proven lower bound on synth::opamp_cost over the input box: the
  /// cost function itself at the box's best corner, capped by the
  /// non-functional plateau. Sound for early termination: no point in
  /// the box can score below it.
  double cost_lower_bound = 0.0;
  std::string corner;  ///< Process::variant the proof was run at

  /// Verdict, "bounds" ([lo, hi] per metric, null for an unbounded end),
  /// box, floor and "report" (json.h); what `ape_lint --prove` prints.
  void to_json(json::Writer& w) const;
};

/// Evaluate the prover's performance equations at one sizing point
/// \p x (13 values, OpAmpVars::pack order). Used by the soundness
/// property test and by anyone wanting the analytic point model.
PointMetrics prove_point_metrics(const est::Process& proc,
                                 const est::OpAmpSpec& spec,
                                 const std::vector<double>& x);

/// Prove (or refute) feasibility of \p spec over the sizing box.
/// Never throws on an infeasible spec — the verdict is data; use
/// require_feasible() for the throwing lint-first form.
FeasibilityProof prove_opamp_feasibility(const est::Process& proc,
                                         const est::OpAmpSpec& spec,
                                         const ProveOptions& opts = {});

/// Throw LintError (ErrorClass::Permanent) when \p proof is infeasible;
/// \p what names the gated operation. The proof's findings ride along
/// in the error's report.
void require_feasible(const FeasibilityProof& proof, const std::string& what);

}  // namespace ape::lint
