#pragma once
/// \file diagnostics.h
/// Provenance, convergence and budget diagnostics shared by every layer.
///
/// Three small tools that make failures diagnosable and runs bounded:
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
///   loops poll it and return their best-so-far result instead of
///   overrunning.
/// - CancelToken: a sticky, thread-safe cancellation flag. A RunBudget
///   with an attached token reports exhausted() as soon as the token
///   fires, so every budget poll site doubles as a cancellation point.
/// - ScopedJobBudget: RAII installation of a *job-wide* budget on the
///   current thread. Solver loops poll the ambient budget in addition to
///   the one in their options, so a supervisor can impose a deadline on
///   an entire job (estimate -> anneal -> simulator verification)
///   without threading a pointer through every layer.
/// - ScopedSolverRelaxation: RAII installation of relaxed solver
///   tolerances on the current thread — the "relaxed" rung of the
///   supervision retry ladder (DESIGN.md section 10). dc_operating_point
///   and transient() widen their tolerances and stop the gmin ladder at
///   a higher floor while a relaxation is installed.
///
/// The scope stack is thread_local: it is a deliberate exception to the
/// "no global mutable state" convention (DESIGN.md section 5), justified
/// because provenance must cross layers that do not know about each
/// other, and a thread_local stack keeps it race-free.
///
/// THREAD-SAFETY RULE (binding for all estimation / simulation /
/// synthesis paths, enforced since the batch runtime runs them on pool
/// threads — see DESIGN.md section 7): any mutable state reachable from
/// those paths must be (a) owned by the job (locals / value members
/// passed explicitly), (b) thread_local (this file's ErrorContext stack,
/// ambient-budget, solver-relaxation, kernel-stats-sink and
/// numeric-health-mode slots, plus the FaultInjector slot in
/// src/spice/fault.h and the KernelPolicy slot in src/spice/kernel.h,
/// are the only seven
/// instances), or (c) an explicitly synchronized shared object whose
/// header documents that property (runtime::MemoCache, RunBudget,
/// CancelToken, runtime::QuarantineRegistry). A worker thread starts
/// with *empty* thread_local state: provenance frames, fault injectors,
/// ambient budgets and relaxations installed on the submitting thread do
/// not follow a job into the pool — the job must re-open its own scope
/// (the runtime's batch entry points do this, stamping each job's
/// index) and, in tests, install its own injector.
///
/// RunBudget is in category (c): charge()/exhausted() are safe to call
/// concurrently from every job of a batch sharing one budget (the
/// evaluation counter is atomic). Note that a *shared* deadline or cap
/// makes results depend on scheduling; deterministic runs use per-job
/// budgets or none (DESIGN.md section 7, "seeding discipline").

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/numeric_health.h"

namespace ape {

/// Prefix \p what with the currently open ErrorContext chain (no-op when
/// no scope is open). Called by the ape::Error constructor.
std::string annotate_with_context(const std::string& what);

/// RAII frame on the thread-local provenance stack.
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
  long factorizations = 0;       ///< in-place LU factorizations
  long solves = 0;               ///< forward/back substitution passes
  long ac_points_fused = 0;      ///< AC points assembled as fused G + jwC
  long ac_points_virtual = 0;    ///< AC points via per-device virtual stamps
                                 ///< (fallback for non-affine-in-w devices)
  size_t workspace_bytes = 0;    ///< bytes of preallocated solver workspace
  long workspace_regrowths = 0;  ///< times a workspace buffer grew after
                                 ///< setup (0 == allocation-free inner loops)
  // Sparse-path counters (src/util/sparse.h; 0 on dense-only runs).
  long symbolic_analyses = 0;    ///< Markowitz order-and-factor passes
  long symbolic_reuses = 0;      ///< refactors replaying a cached program
  long numeric_refactors = 0;    ///< sparse numeric factorizations (total)
  long sparse_fallbacks = 0;     ///< sparse solves rescued by the dense path
  size_t sparse_nnz = 0;         ///< structural nonzeros (max over workspaces)
  size_t sparse_fill_in = 0;     ///< L+U fill entries (max over workspaces)
  // Numerical-health counters (DESIGN.md section 15; 0 on healthy runs).
  long refinement_solves = 0;    ///< solves that ran iterative refinement
  long refinement_iterations = 0;///< total refinement correction steps
  long equilibrated_solves = 0;  ///< solves under row/column equilibration
  long numeric_recoveries = 0;   ///< solves that landed only via a recovery
                                 ///< rung (equilibrate / kernel switch)
  double cond_estimate_max = 0.0;///< worst Hager 1-norm estimate (gauge)
  double pivot_growth_max = 0.0; ///< worst pivot growth factor (gauge)
  double residual_norm_max = 0.0;///< worst measured relative residual (gauge)

  /// Merge counters from another analysis (max of workspace footprints,
  /// sparse pattern sizes and health gauges; everything else sums).
  void accumulate(const KernelStats& o);

  /// One-line human-readable summary for logs / bench output.
  std::string summary() const;
};

// ---------------------------------------------------------------------------

/// Which plan finally converged a DC operating-point solve.
enum class DcPlan {
  None,            ///< no solve recorded / nothing converged
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
  /// True when the solve ran under an ambient SolverRelaxation (the
  /// supervision ladder's relaxed rung): tolerances were widened and the
  /// gmin ladder stopped at the relaxed floor.
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
/// Loops call charge() per unit of work and stop (returning best-so-far)
/// once exhausted() is true; nothing is enforced preemptively, so a
/// budget can never corrupt state mid-operation.
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

  /// Record \p n units of work. Returns true while within budget.
  /// Thread-safe: concurrent jobs may charge one shared budget.
  bool charge(long n = 1);

  /// True once the deadline passed, the evaluation cap is reached, or an
  /// attached CancelToken fired.
  bool exhausted() const;

  /// Why exhausted() holds: "cancelled", "deadline exceeded" or
  /// "evaluation cap reached" ("within budget" otherwise). Checked in
  /// that priority order so a cancelled run reports the cancellation
  /// even when its deadline also lapsed.
  const char* exhaust_reason() const;

  /// True when an attached CancelToken fired (regardless of deadline).
  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }

  long evaluations_used() const { return used_.load(std::memory_order_relaxed); }
  long max_evaluations() const { return max_evals_; }

  /// Seconds until the deadline (+inf when none; <= 0 when expired).
  double seconds_left() const;

  // Copyable so factory functions return by value; configuration is
  // copied and the usage counter snapshot carries over. Copying a budget
  // that other threads are actively charging is not supported.
  RunBudget(const RunBudget& o)
      : deadline_(o.deadline_),
        has_deadline_(o.has_deadline_),
        max_evals_(o.max_evals_),
        cancel_(o.cancel_),
        used_(o.used_.load(std::memory_order_relaxed)) {}
  RunBudget& operator=(const RunBudget& o) {
    deadline_ = o.deadline_;
    has_deadline_ = o.has_deadline_;
    max_evals_ = o.max_evals_;
    cancel_ = o.cancel_;
    used_.store(o.used_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

private:
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  long max_evals_ = -1;  ///< -1 = uncapped
  const CancelToken* cancel_ = nullptr;  ///< optional, not owned
  std::atomic<long> used_{0};
};

// ---------------------------------------------------------------------------
// Ambient (thread-local) job budget.

/// RAII installation of \p budget as the current thread's ambient job
/// budget. While installed, every solver loop that polls a RunBudget
/// (newton ladders, dc_sweep, transient stepping, ac_analysis points,
/// the anneal loop) also polls this one — the supervision layer's way of
/// imposing one wall-clock deadline / cancellation point on an entire
/// job without threading options through every layer. Nesting replaces
/// the budget and restores the previous one on scope exit; the budget is
/// not owned and must outlive the scope.
class ScopedJobBudget {
public:
  explicit ScopedJobBudget(const RunBudget& budget);
  ~ScopedJobBudget();

  ScopedJobBudget(const ScopedJobBudget&) = delete;
  ScopedJobBudget& operator=(const ScopedJobBudget&) = delete;

private:
  const RunBudget* previous_;
};

/// The ambient budget installed on this thread (nullptr when none).
const RunBudget* ambient_budget();

/// The first exhausted budget of {\p local, the thread's ambient budget},
/// or nullptr when both are within budget (or absent). Poll sites use
/// the returned budget's exhaust_reason() to name why they stopped.
const RunBudget* exhausted_budget(const RunBudget* local);

// ---------------------------------------------------------------------------
// Ambient (thread-local) solver relaxation.

/// Relaxed-solver parameters for the "relaxed" rung of the supervision
/// retry ladder: a second attempt at a non-convergent job re-runs with
/// tolerances widened by tol_factor and the gmin ladder stopped at
/// gmin_floor (a slightly damped but solvable system) instead of
/// descending to the ideal 1e-12 rung.
struct SolverRelaxation {
  double tol_factor = 10.0;  ///< multiplies reltol / vntol / abstol
  double gmin_floor = 1e-10; ///< lowest gmin rung attempted while relaxed
  int extra_step_halvings = 4; ///< added to TranOptions::max_step_halvings
};

/// RAII installation of a SolverRelaxation on the current thread (same
/// discipline as ScopedJobBudget: nesting replaces, exit restores, the
/// object is not owned).
class ScopedSolverRelaxation {
public:
  explicit ScopedSolverRelaxation(const SolverRelaxation& relax);
  ~ScopedSolverRelaxation();

  ScopedSolverRelaxation(const ScopedSolverRelaxation&) = delete;
  ScopedSolverRelaxation& operator=(const ScopedSolverRelaxation&) = delete;

private:
  const SolverRelaxation* previous_;
};

/// The relaxation installed on this thread (nullptr in normal runs).
const SolverRelaxation* ambient_relaxation();

// ---------------------------------------------------------------------------
// Ambient (thread-local) kernel-stats sink.

/// RAII installation of a KernelStats accumulator on the current thread.
/// While installed, every solver workspace (SolveWorkspace / AcKernel in
/// src/spice/kernel.h) accumulates its counters into the sink when it is
/// destroyed, in addition to whatever report the analysis call fills in.
/// This is how the batch runtime attributes kernel work to jobs whose
/// entry points (estimate_opamp, synthesis anneal, corner cells) never
/// expose a ConvergenceReport: the job wrapper installs a sink around
/// the job body and merges the result into BatchStats under a lock.
/// Same discipline as ScopedJobBudget: nesting replaces, scope exit
/// restores, the sink is not owned and must outlive the scope.
class ScopedKernelStatsSink {
public:
  explicit ScopedKernelStatsSink(KernelStats& sink);
  ~ScopedKernelStatsSink();

  ScopedKernelStatsSink(const ScopedKernelStatsSink&) = delete;
  ScopedKernelStatsSink& operator=(const ScopedKernelStatsSink&) = delete;

private:
  KernelStats* previous_;
};

/// The sink installed on this thread (nullptr when none).
KernelStats* ambient_kernel_sink();

// ---------------------------------------------------------------------------
// Ambient (thread-local) numerical-health mode.

/// How aggressively the solver workspaces run the numerical-health layer
/// (numeric_health.h, DESIGN.md section 15).
enum class NumericHealthMode {
  Off,   ///< no monitoring at all (bench baseline arm)
  Auto,  ///< monitor pivot growth; estimate condition and refine only
         ///< when growth / condition thresholds trip (the default)
  Force, ///< always equilibrate, estimate condition and refine — the
         ///< supervision ladder's numeric-recovery rung
};

/// RAII installation of a NumericHealthMode on the current thread (same
/// discipline as ScopedSolverRelaxation: nesting replaces, exit
/// restores). The supervision ladder installs Force for its
/// numeric-recovery rung; bench_ape_speed installs Off for its baseline
/// timing arm.
class ScopedNumericHealthMode {
public:
  explicit ScopedNumericHealthMode(NumericHealthMode mode);
  ~ScopedNumericHealthMode();

  ScopedNumericHealthMode(const ScopedNumericHealthMode&) = delete;
  ScopedNumericHealthMode& operator=(const ScopedNumericHealthMode&) = delete;

private:
  NumericHealthMode previous_;
};

/// The mode installed on this thread (Auto when none was installed).
NumericHealthMode ambient_health_mode();

}  // namespace ape
