#pragma once
/// \file astrx.h
/// The ASTRX/OBLX-like synthesis driver: simulated-annealing sizing of a
/// fixed topology, run either blind over the full technology-legal box
/// (Table 1) or seeded at the APE estimate with narrow intervals
/// (Table 4 / Table 5). Final candidates are verified on the MNA
/// simulator, mirroring the paper's SPICE check of synthesis output.

#include <string>
#include <vector>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/verify.h"
#include "src/synth/anneal.h"
#include "src/synth/sizing.h"

namespace ape::synth {

struct SynthesisOptions {
  bool use_ape_seed = false;   ///< seed + narrow intervals from APE
  double interval_frac = 0.2;  ///< +/- fraction around the seed (paper: 20%)
  /// Design margin applied to the gain/UGF targets inside the cost
  /// function (the analytic evaluator sits a few percent optimistic of
  /// the simulator, exactly as ASTRX's AWE models did).
  double target_margin = 1.15;
  AnnealOptions anneal;

  /// Independent annealing restarts (multi-start). Restart 0 uses
  /// anneal.seed unchanged (so restarts = 1 reproduces the single-start
  /// result exactly); restart r > 0 anneals with the decorrelated stream
  /// Rng::derive_stream(anneal.seed, r). The best restart is selected by
  /// lowest cost with the lowest restart index as the fixed tie-break —
  /// a pure function of the seeds, identical at any thread count.
  int restarts = 1;
  /// Worker threads for the restarts: 0 = min(restarts, hardware
  /// concurrency); 1 forces serial execution on the calling thread.
  /// Pool workers run under JobContext::fork() of the caller's context:
  /// the job's budget, provenance and solver policy follow each restart,
  /// but a FaultInjector does not (fault tests run serially). The job's
  /// budget is shared by every restart, so one that expires mid-search
  /// makes the outcome scheduling-dependent.
  int restart_threads = 0;

  /// Optional precomputed APE seed design (used when use_ape_seed is
  /// true): the batch runtime passes its cache entry here so N jobs with
  /// the same spec estimate once. Not owned; nullptr = estimate inline.
  const est::OpAmpDesign* seed_design = nullptr;
  /// Same for module synthesis: the topology/sizing prototype normally
  /// produced by ModuleEstimator::estimate. Not owned.
  const est::ModuleDesign* module_proto = nullptr;

  /// Yield-aware cost (opamp synthesis only; DESIGN.md section 12).
  /// When yield_weight > 0 and corner_procs is non-empty, every
  /// candidate is additionally scored at each corner process and the
  /// *worst-corner* cost, weighted by yield_weight, is added to the
  /// nominal cost — so the annealer trades nominal optimality for
  /// designs that keep working across PVT. Callers realize the corner
  /// cards once (stat::CornerSet::realize) and pass them here; synth
  /// stays independent of the stat layer. A corner where a candidate
  /// cannot be evaluated scores the skipped-candidate plateau, exactly
  /// like a nominal evaluation failure.
  double yield_weight = 0.0;
  std::vector<est::Process> corner_procs;

  /// Externally-proven feasibility artifacts (src/lint/prove.h), passed
  /// in by the lint-first runtime — synthesis itself stays independent
  /// of the lint layer. When feasible_box has the search's
  /// dimensionality (13 pairs, unbuffered opamp layout), the anneal
  /// bounds are intersected with it so every restart is seeded inside
  /// the proven-feasible region instead of the blind technology box.
  std::vector<std::pair<double, double>> feasible_box;
  /// Proven lower bound on the nominal cost over the box (> 0 enables
  /// early termination): serial multi-start stops launching further
  /// restarts once the best cost is within early_stop_frac of the
  /// bound — no restart can beat a proven floor by more than the
  /// tolerance. Parallel restart pools ignore it so their aggregate
  /// stays thread-count invariant.
  double cost_lower_bound = 0.0;
  double early_stop_frac = 0.05;
};

/// Outcome of one opamp synthesis run.
struct SynthesisOutcome {
  est::OpAmpDesign design;       ///< best point found
  double cost = 0.0;             ///< final annealing cost
  bool functional = false;       ///< analytic bias point exists
  est::OpAmpSimReport sim;       ///< full simulator verification
  double cpu_seconds = 0.0;      ///< wall-clock of the search
  bool meets_spec = false;       ///< simulator-verified constraint check
  std::string comment;           ///< Table-1 style diagnosis
  /// Candidates whose evaluation threw an ape::Error: scored with a
  /// large penalty and skipped, never dropped silently.
  int skipped_candidates = 0;
  int rejected_nonfinite = 0;    ///< NaN/inf costs rejected by the annealer
  bool budget_exhausted = false; ///< search stopped early on RunBudget expiry
  int evaluations = 0;           ///< cost evaluations actually performed
  /// Bias-solve stages the search solved and reused from its restarts'
  /// memos (nominal and corner), summed over restarts.
  BiasStageCounts bias_stages;
  int restarts_run = 1;          ///< anneal restarts executed (multi-start)
  int best_restart = 0;          ///< index of the winning restart
  /// The winning annealer point (packed OpAmpVars). design/sim/comment
  /// are pure functions of (proc, spec, best_x), which is what makes a
  /// checkpointed outcome reconstructible bit-identically on resume.
  std::vector<double> best_x;
  /// True when the final simulator verification threw: the design and
  /// cost are still the search's best, but sim is empty and the comment
  /// reads "doesn't work". The supervision ladder retries these when
  /// RetryPolicy::retry_sim_failures is set.
  bool sim_failed = false;
};

/// Size a two-stage opamp to \p spec. Blind mode ignores APE entirely;
/// seeded mode calls the APE internally for the starting point.
SynthesisOutcome synthesize_opamp(const est::Process& proc,
                                  const est::OpAmpSpec& spec,
                                  const SynthesisOptions& opts);

/// Rebuild the verified tail of an opamp synthesis outcome from its
/// winning point: unpack \p best_x, re-derive the design, re-run the
/// simulator verification and the Table-1 diagnosis. Deterministic given
/// (proc, spec, best_x), so a checkpoint need only persist best_x and the
/// search counters — used by synthesize_opamp itself and by the
/// supervisor's --resume path. Search counters and cpu_seconds are left
/// at their defaults for the caller to fill.
SynthesisOutcome finalize_opamp_outcome(const est::Process& proc,
                                        const est::OpAmpSpec& spec,
                                        const std::vector<double>& best_x,
                                        double best_cost);

/// Outcome of one analog-module synthesis run.
struct ModuleSynthesisOutcome {
  est::ModuleDesign design;
  double cost = 0.0;
  bool functional = false;
  double cpu_seconds = 0.0;
  bool meets_spec = false;
  std::string comment;
  /// Per-candidate failures absorbed during the search (see
  /// SynthesisOutcome for field semantics).
  int skipped_candidates = 0;
  int rejected_nonfinite = 0;
  bool budget_exhausted = false;
  int evaluations = 0;
  int restarts_run = 1;
  int best_restart = 0;
  std::vector<double> best_x;    ///< winning annealer point (see SynthesisOutcome)
  bool sim_failed = false;       ///< simulator verification threw
  // Simulator-verified module metrics (meaning depends on the kind).
  double sim_gain = 0.0;
  double sim_bw_hz = 0.0;
  double sim_f3db_hz = 0.0;
  double sim_f20db_hz = 0.0;
  double sim_f0_hz = 0.0;
  double sim_delay_s = 0.0;
  double sim_slew = 0.0;
  double sim_area = 0.0;   ///< est area of the found sizes (geometry-derived)
};

/// Size an analog module (Table 5): the unknowns are every constituent
/// opamp's geometry plus the passive values.
ModuleSynthesisOutcome synthesize_module(const est::Process& proc,
                                         const est::ModuleSpec& spec,
                                         const SynthesisOptions& opts);

/// Simulator verification of a module design (fills the sim_* fields of
/// a ModuleSynthesisOutcome; also used for APE-only rows of Table 5).
void verify_module(const est::Process& proc, const est::ModuleDesign& d,
                   ModuleSynthesisOutcome& out);

}  // namespace ape::synth
