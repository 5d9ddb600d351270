#pragma once
/// \file diagnostics.h
/// Provenance, convergence and budget diagnostics shared by every layer.
///
/// Small tools that make failures diagnosable and runs bounded:
///
/// - ErrorContext: an RAII scope stack. Each layer that starts a logical
///   unit of work (module -> component -> device -> solver plan) opens a
///   scope; every ape::Error constructed while scopes are open is
///   automatically prefixed with the full chain, so a deep numerical
///   failure names the synthesis candidate, circuit and plan it occurred
///   in without any layer having to re-wrap exceptions.
/// - ConvergenceReport: a record of which recovery plan a DC / transient
///   solve used (gmin rung reached, source steps, Newton iterations,
///   step halvings), filled in when the caller asks for it.
/// - RunBudget: a cooperative budget (wall-clock deadline and/or max
///   cost evaluations, optionally wired to a CancelToken). Long-running
///   loops poll the job context's budget and return their best-so-far
///   result instead of overrunning. ScopedBudget installs one, chained
///   to the budget around it.
/// - CancelToken: a sticky, thread-safe cancellation flag. A RunBudget
///   with an attached token reports exhausted() as soon as the token
///   fires, so every budget poll site doubles as a cancellation point.
/// - JobContext: everything a job carries ambiently down the layers (the
///   ErrorContext frames, a job-wide RunBudget, the relaxed-rung flag, a
///   kernel-stats sink, the numerical-health mode, a test
///   FaultInjector), installed by one RAII
///   scope, ScopedJobContext. A supervisor imposes a deadline on an
///   entire job (estimate -> anneal -> simulator verification) this way
///   without threading a pointer through every layer.
///
/// THREAD-SAFETY RULE (binding for all estimation / simulation /
/// synthesis paths, enforced since the batch runtime runs them on pool
/// threads — see DESIGN.md section 7): any mutable state reachable from
/// those paths must be (a) owned by the job (locals / value members
/// passed explicitly), (b) the calling thread's JobContext — the one
/// thread_local in src/ (CI fails on any other), a deliberate exception
/// to the "no global mutable state" convention (DESIGN.md section 5)
/// because provenance and job policy must cross layers that do not know
/// about each other — or (c) an explicitly synchronized shared object
/// whose header documents that property (runtime::MemoCache, RunBudget,
/// CancelToken, runtime::QuarantineRegistry).
///
/// A raw thread starts with an empty JobContext. The fan-outs that join
/// before returning (the batch runner and the multi-start anneal) hand
/// each pool job JobContext::fork() of the caller's context:
///
///   field          | follows a job into the pool? | why
///   ---------------+------------------------------+---------------------
///   frames         | yes (copied)                 | provenance chains
///   budget         | yes                          | RunBudget is thread-safe
///   relaxed        | yes                          | a value
///   health_mode    | yes                          | a value
///   kernel_sink    | no: each job keeps its own   | KernelStats is unsynchronized
///   fault_injector | no: install one per job      | counters and Rng unsynchronized
///
/// Long-lived pools (the serve daemon's Executor) open their own scopes.
///
/// RunBudget is in category (c): charge()/exhausted() are safe to call
/// concurrently from every job of a batch sharing one budget (the
/// evaluation counter is atomic). Note that a *shared* deadline or cap
/// makes results depend on scheduling; deterministic runs use per-job
/// budgets or none (DESIGN.md section 7, "seeding discipline").

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/numeric_health.h"

namespace ape {

/// Prefix \p what with the currently open ErrorContext chain (no-op when
/// no scope is open). Called by the ape::Error constructor.
std::string annotate_with_context(const std::string& what);

/// RAII frame on the job context's provenance stack (JobContext::frames).
///
///   ErrorContext scope("dc_operating_point('" + ckt.title() + "')");
///
/// Any ape::Error thrown (by any layer) while the scope is alive carries
/// "[outer -> ... -> dc_operating_point('rc')] original message".
class ErrorContext {
public:
  explicit ErrorContext(std::string frame);
  ~ErrorContext();

  ErrorContext(const ErrorContext&) = delete;
  ErrorContext& operator=(const ErrorContext&) = delete;

  /// The chain of open frames joined with " -> " ("" when empty).
  static std::string chain();

  /// Number of open frames on this thread.
  static size_t depth();
};

// ---------------------------------------------------------------------------

/// Counters from the compiled MNA kernel (src/spice/kernel.h): how much
/// work the stamp-program/workspace machinery avoided relative to the
/// naive restamp-everything-and-reallocate path, plus the workspace
/// footprint. Accumulated per analysis call and surfaced through
/// ConvergenceReport (DC/transient) or directly (AC), then aggregated by
/// bench_ape_speed / bench_spice_kernel into the BENCH_*.json records.
struct KernelStats {
  long baseline_builds = 0;      ///< linear (G0, RHS0) baselines stamped
  long baseline_restores = 0;    ///< memcpy restorations of a baseline
  long linear_stamps_skipped = 0;///< per-device restamps avoided by restores
  long nonlinear_stamps = 0;     ///< per-iteration nonlinear device restamps
  long device_bypasses = 0;      ///< transient nonlinear restamps that reused
                                 ///< the device's last linearization
  long factorizations = 0;       ///< numeric LU factorizations: first
                                 ///< orderings, replays and re-orderings
  long factor_reuses = 0;        ///< transient solves on the live factors of
                                 ///< bitwise-equal values (no factorization)
  long solves = 0;               ///< forward/back substitution passes
  long ac_points_fused = 0;      ///< AC points assembled as fused G + jwC
  long ac_points_virtual = 0;    ///< retired: no AC point is restamped per
                                 ///< device any more, so this stays 0
  size_t workspace_bytes = 0;    ///< bytes of preallocated solver workspace
  long workspace_regrowths = 0;  ///< times a workspace buffer grew after
                                 ///< setup (0 == allocation-free inner loops)
  // Sparse LU counters (src/util/sparse.h).
  long symbolic_analyses = 0;    ///< Markowitz order-and-factor passes
  long symbolic_reuses = 0;      ///< refactors replaying a cached program
  long numeric_refactors = 0;    ///< sparse numeric factorizations (total)
  long sparse_fallbacks = 0;     ///< replays whose pivots collapsed, rescued
                                 ///< by re-ordering on the current values
  size_t sparse_nnz = 0;         ///< structural nonzeros (max over workspaces)
  size_t sparse_fill_in = 0;     ///< L+U fill entries (max over workspaces)
  // Numerical-health counters (DESIGN.md section 15; 0 on healthy runs).
  long refinement_solves = 0;    ///< solves that ran iterative refinement
  long refinement_iterations = 0;///< total refinement correction steps
  long equilibrated_solves = 0;  ///< solves (DC / transient) or factorizations
                                 ///< (AC: one per point, however many noise
                                 ///< solves share it) under row/column
                                 ///< equilibration
  long numeric_recoveries = 0;   ///< solves (DC / transient) or factorizations
                                 ///< (AC) that landed only via a recovery
                                 ///< rung (equilibrate / re-order)
  double cond_estimate_max = 0.0;///< worst Hager 1-norm estimate (gauge)
  double pivot_growth_max = 0.0; ///< worst pivot growth factor (gauge)
  double residual_norm_max = 0.0;///< worst measured relative residual (gauge)

  /// Merge counters from another analysis (max of workspace footprints,
  /// sparse pattern sizes and health gauges; everything else sums).
  void accumulate(const KernelStats& o);

  /// One-line human-readable summary for logs / bench output.
  std::string summary() const;
  /// Every counter, keyed by its field name (json.h).
  void to_json(json::Writer& w) const;
};

// ---------------------------------------------------------------------------

/// Which plan finally converged a DC operating-point solve.
enum class DcPlan {
  None,            ///< no solve recorded / nothing converged
  Seeded,          ///< one Newton solve from the circuit's .nodeset guess
  GminLadder,      ///< plain gmin stepping (Plan A)
  SourceStepping,  ///< source stepping then the gmin ladder (Plan B)
};

const char* to_string(DcPlan plan);

/// Filled by dc_operating_point() / transient() when the caller passes a
/// report pointer in the options. All counters are totals for the call.
struct ConvergenceReport {
  bool converged = false;
  DcPlan plan = DcPlan::None;
  double final_gmin = 0.0;          ///< last gmin rung that converged
  int gmin_rungs_completed = 0;     ///< rungs of the final ladder that converged
  int source_steps_completed = 0;   ///< source-stepping rungs that converged
  long newton_iterations = 0;       ///< Newton iterations across all rungs
  int lu_failures = 0;              ///< singular-matrix LU solves observed
  int nonfinite_rejections = 0;     ///< fail-fast aborts on non-finite solutions
  int step_halvings = 0;            ///< transient local dt refinements
  int convergence_vetoes = 0;       ///< injected non-convergence (tests only)
  /// True when the solve ran on the supervision ladder's relaxed rung
  /// (JobContext::relaxed): tolerances were widened and the gmin ladder
  /// stopped at the relaxed floor (spice/analysis.h, kRelaxed*).
  bool relaxed_tolerances = false;
  /// Compiled-kernel counters for the call (stamps skipped, in-place
  /// factorizations, workspace bytes); see KernelStats.
  KernelStats kernel;
  /// Numerical health of the final solve (condition estimate, pivot
  /// growth, refinement outcome; see numeric_health.h). Zero gauges mean
  /// the solve was healthy enough that nothing beyond pivot-growth
  /// monitoring ran.
  NumericHealth health;

  /// One-line human-readable summary for logs / error messages.
  std::string summary() const;
};

// ---------------------------------------------------------------------------

/// Monotonic (steady_clock) time in seconds — the one clock behind every
/// wall-time field (batch stats, synthesis cpu_seconds, serve deadlines).
double now_seconds();

/// Sticky, thread-safe cancellation flag. cancel() may be called from any
/// thread (a signal handler, a supervisor, a UI); workers observe it
/// cooperatively through an attached RunBudget or by polling cancelled()
/// directly. Once fired it never resets — create a new token per run.
class CancelToken {
public:
  void cancel() { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }

private:
  std::atomic<bool> flag_{false};
};

/// Cooperative run budget: a wall-clock deadline and/or a cap on cost
/// evaluations, optionally wired to a CancelToken. Unlimited by default.
/// Loops stop (returning best-so-far) once exhausted() is true; nothing
/// is enforced preemptively, so a budget can never corrupt state
/// mid-operation.
///
/// A budget reaches the solver and annealer loops only as the job
/// context's budget, installed by ScopedBudget. A budget installed while
/// another is ambient is linked to that enclosing budget for the scope,
/// and every query below then covers the whole chain: the earliest
/// deadline, any fired token, any reached cap.
class RunBudget {
public:
  RunBudget() = default;  ///< unlimited

  /// Budget that expires \p seconds from now.
  static RunBudget with_deadline(double seconds);
  /// Budget allowing at most \p n charged evaluations.
  static RunBudget with_evaluations(long n);

  void set_deadline_in(double seconds);
  void set_max_evaluations(long n);

  /// Attach a cancellation token (not owned; must outlive the budget):
  /// exhausted() also returns true once the token fires, so every budget
  /// poll site becomes a cancellation point.
  void attach_cancel(const CancelToken* token) { cancel_ = token; }

  /// Record \p n units of work here and on every enclosing budget.
  /// Returns true while no evaluation cap in the chain is reached; it
  /// reads no clock (loops poll exhausted() for the deadline).
  /// Thread-safe: concurrent jobs may charge one shared budget.
  bool charge(long n = 1) const;

  /// True once a deadline in the chain passed, a cap is reached, or an
  /// attached CancelToken fired.
  bool exhausted() const;

  /// Why exhausted() holds: "cancelled", "deadline exceeded" or
  /// "evaluation cap reached" ("within budget" otherwise). Checked in
  /// that priority order so a cancelled run reports the cancellation
  /// even when its deadline also lapsed.
  const char* exhaust_reason() const;

  /// True when a CancelToken in the chain fired (regardless of deadline).
  bool cancelled() const;

  /// Evaluations charged to this budget (including through nested ones).
  long evaluations_used() const { return used_.load(std::memory_order_relaxed); }
  long max_evaluations() const { return max_evals_; }

  /// Seconds until the earliest deadline in the chain (+inf when none;
  /// <= 0 when expired).
  double seconds_left() const;

  /// Copyable so factory functions return by value: the configuration
  /// and the usage counter snapshot carry over, the link to an enclosing
  /// budget does not. Copying a budget that other threads are actively
  /// charging is not supported.
  RunBudget(const RunBudget& o)
      : deadline_(o.deadline_),
        max_evals_(o.max_evals_),
        cancel_(o.cancel_),
        used_(o.used_.load(std::memory_order_relaxed)) {}

private:
  friend class ScopedBudget;
  using Clock = std::chrono::steady_clock;

  /// The earliest deadline in the chain (Clock::time_point::max() = none).
  Clock::time_point deadline() const;
  bool deadline_passed() const;
  bool cap_reached() const;

  Clock::time_point deadline_ = Clock::time_point::max();
  long max_evals_ = -1;  ///< -1 = uncapped
  const CancelToken* cancel_ = nullptr;  ///< optional, not owned
  const RunBudget* enclosing_ = nullptr; ///< set by ScopedBudget
  mutable std::atomic<long> used_{0};
};

// ---------------------------------------------------------------------------
// The job context.

/// How aggressively the solver workspaces run the numerical-health layer
/// (numeric_health.h, DESIGN.md section 15).
enum class NumericHealthMode {
  Off,   ///< no monitoring at all (bench baseline arm)
  Auto,  ///< monitor pivot growth; when growth / condition thresholds
         ///< trip, DC and transient solves estimate condition and refine,
         ///< while AC solves check their residual and refine only those
         ///< that miss health::kResidualTarget (the default)
  Force, ///< always equilibrate, estimate condition and refine — the
         ///< supervision ladder's numeric-recovery rung
};

namespace spice {
class FaultInjector;
}  // namespace spice

/// The calling thread's ambient job state (see the THREAD-SAFETY RULE
/// above for the fork table). Pointers are not owned: whoever installs
/// one keeps the object alive for the scope.
struct JobContext {
  /// The ErrorContext stack, outermost frame first.
  std::vector<std::string> frames;
  /// The job's one stop signal, installed by ScopedBudget: every solver
  /// loop (Newton ladders, dc_sweep, transient stepping, ac_analysis
  /// points, the anneal loop, the corner-sweep samples) polls it through
  /// exhausted_budget(), and the annealer charges it per evaluation.
  const RunBudget* budget = nullptr;
  /// Set on the supervision ladder's relaxed rung: dc_operating_point
  /// and transient() widen their tolerances and stop the gmin ladder at
  /// the relaxed floor (the kRelaxed* constants of spice/analysis.h).
  bool relaxed = false;
  /// Every solver workspace (src/spice/kernel.h) adds its counters here
  /// when it is destroyed — how the batch runtime attributes kernel work
  /// to jobs whose entry points never expose a ConvergenceReport.
  KernelStats* kernel_sink = nullptr;
  /// Force on the numeric-recovery rung; Off in bench baseline arms.
  NumericHealthMode health_mode = NumericHealthMode::Auto;
  /// Deterministic fault injection (src/spice/fault.h); null in
  /// production, so each probe site is one load plus a branch.
  spice::FaultInjector* fault_injector = nullptr;

  /// The context a pool job running on behalf of this one starts with:
  /// a copy without the kernel sink and the fault injector.
  JobContext fork() const;
};

/// The calling thread's context (empty on a fresh thread).
const JobContext& job_context();

/// RAII installation of a JobContext on the calling thread. Nesting
/// replaces the whole context; scope exit (normal or by exception)
/// restores the previous one.
///
///   ScopedJobContext scope([&](JobContext& c) { c.kernel_sink = &stats; });
///
/// Budgets are the exception: install them with ScopedBudget, which
/// keeps the enclosing one.
class ScopedJobContext {
public:
  /// Install \p ctx.
  explicit ScopedJobContext(JobContext ctx);
  /// Install the current context as edited by \p edit.
  template <class Edit>
    requires std::invocable<Edit&, JobContext&>
  explicit ScopedJobContext(Edit edit)
      : ScopedJobContext(edited(job_context(), edit)) {}
  ~ScopedJobContext();

  ScopedJobContext(const ScopedJobContext&) = delete;
  ScopedJobContext& operator=(const ScopedJobContext&) = delete;

private:
  template <class Edit>
  static JobContext edited(JobContext ctx, Edit& edit) {
    edit(ctx);
    return ctx;
  }

  JobContext previous_;
};

/// Installs \p budget as the job context's budget for a scope, linked to
/// the budget it replaces, so the enclosing deadline, cancel token and
/// evaluation cap still bound everything the scope runs. The one way a
/// budget is installed; a budget is installed at most once at a time.
///
///   RunBudget budget = RunBudget::with_deadline(2.0);
///   ScopedBudget job(budget);
class ScopedBudget {
public:
  explicit ScopedBudget(RunBudget& budget);
  ~ScopedBudget() { budget_.enclosing_ = nullptr; }

  ScopedBudget(const ScopedBudget&) = delete;
  ScopedBudget& operator=(const ScopedBudget&) = delete;

private:
  RunBudget& budget_;
  ScopedJobContext scope_;
};

/// The job context's budget when it (or one it is linked to) is
/// exhausted, else nullptr. Poll sites use the returned budget's
/// exhaust_reason() to name why they stopped.
const RunBudget* exhausted_budget();

/// Sets the job context's kernel-stats sink for a scope. Kept for the
/// standalone benchmark harness; code under src/ uses ScopedJobContext.
class ScopedKernelStatsSink {
public:
  explicit ScopedKernelStatsSink(KernelStats& sink)
      : scope_([&sink](JobContext& c) { c.kernel_sink = &sink; }) {}

private:
  ScopedJobContext scope_;
};

}  // namespace ape
