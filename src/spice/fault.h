#pragma once
/// \file fault.h
/// Deterministic fault injection for the estimate -> verify -> synthesize
/// pipeline.
///
/// A FaultInjector is installed as the JobContext's fault_injector
/// (ScopedJobContext, src/util/diagnostics.h); instrumented code
/// (newton_dc, the MNA LU call sites, the transient stepper, the
/// synthesis cost wrappers) reads job_context().fault_injector, which is
/// nullptr in production. The probe sites reduce to a single
/// thread-local pointer load plus branch when no injector is installed
/// — zero observable overhead — and the injector itself is
/// deterministic: faults fire on configured call ordinals (and, for the
/// randomized knobs, from an explicitly seeded Rng), so a failing
/// robustness test replays exactly. Its counters and Rng are
/// unsynchronized, so an injector never follows a job into a pool
/// (JobContext::fork drops it).
///
/// Faults supported:
///  - forced singular LU factorization on chosen solve ordinals;
///  - non-finite (NaN) poisoning of assembled MNA stamps;
///  - convergence veto at a chosen gmin rung (forces the DC recovery
///    ladder onto its next plan);
///  - transient Newton veto (forces step halvings / sub-stepping);
///  - transient stall (sleeps per step — a "hanging spec" for deadline
///    and cancellation tests of the supervised runtime);
///  - SpecError thrown from the synthesis cost evaluation (simulates an
///    estimator failure mid-synthesis);
///  - random LU failures with configured probability (seeded);
///  - numerical-health faults (DESIGN.md section 15): diverging iterative
///    refinement, overflowing equilibration scales, and failing condition
///    estimates, each on chosen probe ordinals.

#include <cstdint>
#include <limits>

#include "src/spice/device.h"
#include "src/util/rng.h"

namespace ape::spice {

class FaultInjector {
public:
  /// Counters of probe traffic and injected faults (for assertions).
  struct Counts {
    long lu_solves = 0;          ///< LU probe calls seen
    long assemblies = 0;         ///< MNA assembly probe calls seen
    long cost_evals = 0;         ///< synthesis cost-eval probe calls seen
    long tran_steps = 0;         ///< transient Newton probe calls seen
    long refinements = 0;        ///< iterative-refinement probe calls seen
    long equilibrations = 0;     ///< equilibration probe calls seen
    long cond_estimates = 0;     ///< condition-estimate probe calls seen
    int injected_singular = 0;   ///< forced-singular LU faults fired
    int injected_nonfinite = 0;  ///< NaN stamp poisonings fired
    int injected_vetoes = 0;     ///< convergence vetoes fired
    int injected_spec_errors = 0;///< cost-eval SpecErrors fired
    int injected_refine_diverge = 0;      ///< refinement divergences fired
    int injected_equilibrate_overflow = 0;///< equilibration overflows fired
    int injected_cond_fails = 0; ///< condition-estimate failures fired
  };

  explicit FaultInjector(uint64_t seed = 1) : rng_(seed) {}

  // --- configuration -------------------------------------------------------

  /// Force the LU solves with 0-based ordinals in [first, first + count)
  /// to fail as singular.
  void fail_lu(long first, long count = 1) {
    lu_fail_first_ = first;
    lu_fail_count_ = count;
  }

  /// Force every LU solve from 0-based ordinal \p first on to fail.
  void fail_lu_from(long first) {
    lu_fail_first_ = first;
    lu_fail_count_ = std::numeric_limits<long>::max();
  }

  /// Each LU solve fails independently with probability \p p (seeded).
  void fail_lu_randomly(double p) { lu_fail_prob_ = p; }

  /// Poison one stamp of the MNA assembly with 0-based ordinal \p nth
  /// (and the following count - 1 assemblies) with a NaN.
  void poison_stamp(long nth, long count = 1) {
    poison_first_ = nth;
    poison_count_ = count;
  }

  /// Veto Newton convergence at gmin rung \p gmin (full source scale)
  /// for the first \p times visits to that rung.
  void veto_gmin_rung(double gmin, int times = 1) {
    veto_gmin_ = gmin;
    veto_gmin_left_ = times;
  }

  /// Veto the first \p times transient Newton solves (each veto forces a
  /// step halving, i.e. sub-stepping below the user grid).
  void veto_transient(int times) { veto_tran_left_ = times; }

  /// Sleep \p seconds in every transient Newton probe — the "hanging
  /// spec" fault for supervisor deadline tests. The stall happens at a
  /// probe site, so the solver state stays consistent and the ambient
  /// budget check at the top of the next sub-step observes the deadline.
  void stall_transient(double seconds) { tran_stall_s_ = seconds; }

  /// Throw ape::SpecError from every \p n-th synthesis cost evaluation
  /// (1-based period; n = 3 faults evals 3, 6, 9, ...).
  void throw_spec_error_every(long n) { spec_error_period_ = n; }

  /// Force iterative refinement with 0-based ordinals in
  /// [first, first + count) to diverge (the kernel keeps the factored
  /// solution and escalates along the recovery ladder).
  void refine_diverge(long first, long count = 1) {
    refine_fail_first_ = first;
    refine_fail_count_ = count;
  }

  /// Force equilibration-scale computations with 0-based ordinals in
  /// [first, first + count) to report overflow (the kernel skips
  /// equilibration for that solve and moves to the next rung).
  void equilibrate_overflow(long first, long count = 1) {
    equil_fail_first_ = first;
    equil_fail_count_ = count;
  }

  /// Force condition estimates with 0-based ordinals in
  /// [first, first + count) to fail; the kernel records +inf and treats
  /// the system as suspect (refinement triggers).
  void cond_estimate_fail(long first, long count = 1) {
    cond_fail_first_ = first;
    cond_fail_count_ = count;
  }

  // --- probes (called from instrumented code; cheap when not configured) ---

  /// LU solve probe. Returns true when this solve must fail as singular.
  bool on_lu_solve();

  /// MNA assembly probe; may write a NaN into the system. Returns true
  /// when the system was poisoned.
  bool on_assembly(MnaReal& mna);

  /// Convergence-veto probe, called by newton_dc after a converged
  /// iteration at (gmin, src_scale). Returns true to discard the
  /// convergence and report failure for this rung.
  bool on_dc_convergence(double gmin, double src_scale);

  /// Transient Newton probe. Returns true to veto this solve attempt.
  bool on_transient_step();

  /// Synthesis cost-eval probe. Throws ape::SpecError when configured.
  void on_cost_eval();

  /// Iterative-refinement probe. Returns true when this refinement must
  /// be treated as diverged.
  bool on_refinement();

  /// Equilibration probe. Returns true when the scale computation must
  /// be treated as overflowed (equilibration skipped).
  bool on_equilibrate();

  /// Condition-estimate probe. Returns true when the estimate must fail
  /// (reported as +inf by the kernel).
  bool on_cond_estimate();

  const Counts& counts() const { return counts_; }

private:
  Rng rng_;
  Counts counts_;

  long lu_fail_first_ = -1;
  long lu_fail_count_ = 0;
  double lu_fail_prob_ = 0.0;
  long poison_first_ = -1;
  long poison_count_ = 0;
  double veto_gmin_ = -1.0;
  int veto_gmin_left_ = 0;
  int veto_tran_left_ = 0;
  double tran_stall_s_ = 0.0;
  long spec_error_period_ = 0;
  long refine_fail_first_ = -1;
  long refine_fail_count_ = 0;
  long equil_fail_first_ = -1;
  long equil_fail_count_ = 0;
  long cond_fail_first_ = -1;
  long cond_fail_count_ = 0;
};

}  // namespace ape::spice
