#pragma once
/// \file kernel.h
/// Compiled-stamp MNA kernel: allocation-free solver workspaces and
/// linear-baseline reuse for the DC / transient Newton loops, plus fused
/// G + jwC assembly for AC sweeps.
///
/// The analyses in analysis.cpp used to restamp *every* device through
/// virtual dispatch on every Newton iteration, heap-allocate a fresh
/// dense LU solver and solution vector per solve, and rebuild the full
/// complex MNA per AC frequency point. This layer compiles a finalized
/// Circuit into flat stamp programs instead:
///
/// - SolveWorkspace (real systems, DC + transient): stamps the linear
///   devices (Circuit::linear_devices()) plus the gmin diagonal once into
///   a baseline (G0, RHS0), then each Newton iteration memcpy-restores
///   the baseline and restamps only the nonlinear devices
///   (Circuit::nonlinear_devices(): MOSFETs, diodes). The MNA matrix,
///   RHS, LU storage and solution buffer are all owned by the
///   workspace, so a whole analysis performs zero heap allocations after
///   setup (KernelStats::workspace_regrowths stays 0). A transient
///   redoes only changed work (DESIGN.md section 8): the baseline also
///   holds the MOSFET charge companions, a MOSFET inside the bypass
///   window stamps its last linearization again, and a bitwise-unchanged
///   matrix reuses its factors.
/// - AcKernel (complex systems): assembles real G and C slot arrays once
///   per operating point from one virtual stamp pass, then forms
///   G + jwC per frequency with a fused loop over them. The split is
///   validated at compile time against a second stamp pass (every
///   shipped device is affine in w: A(w) = G + jwC); a device that
///   breaks that contract makes the constructor throw NumericError.
///
/// Both workspaces factorize through one path, the sparse LU of
/// src/util/sparse.h (DESIGN.md section 13): the stamp recorder on
/// MnaReal/MnaComplex captures the structural slot pattern once per
/// topology, a Markowitz symbolic factorization is done once and then
/// *reused* — each Newton iteration / AC point only gathers slot values
/// and replays the compiled elimination program. A replay whose pivots
/// collapse, or whose pivot growth exceeds health::kPivotGrowthTrigger
/// when the ordering's own pass stayed below it (the values drifted away
/// from the ones the ordering was chosen for), re-runs the ordering on
/// the current values and counts KernelStats::sparse_fallbacks.
///
/// Both workspaces carry the numerical-health layer (DESIGN.md section
/// 15) through one path, detail::FactorLadder: every factorization
/// tracks its pivot extremes (an O(1) growth / condition monitor), and
/// the ladder owns the equilibration-aware solve, Hager's condition
/// estimate, the CSR residual and iterative refinement, and the
/// recovery rungs (refine -> equilibrate-and-refactorize -> re-order ->
/// the gmin ladder above). Each workspace keeps only its trigger policy.
/// SolveWorkspace in Auto mode: the unscaled proxy (or growth) trips
/// Hager's estimate, a confirmed estimate refines, and a refinement that
/// diverges on unscaled factors equilibrates and refactorizes.
/// AcKernel in Auto mode: the row-scaled proxy
/// (SparseLu::row_scaled_cond_proxy; AC matrices mix G and jwC over many
/// decades across rows, so the unscaled proxy trips on healthy sweeps)
/// runs no estimate; each solve against a tripped factorization
/// measures its relative residual and is refined only when that
/// residual misses health::kResidualTarget. Force mode is the same for
/// both: equilibrate, estimate and refine. The per-solve outcome is
/// exposed through health() and aggregated into KernelStats.
///
/// Ownership / thread-safety: a workspace borrows the Circuit it was
/// compiled from and is valid for one analysis call on one thread; it
/// holds no state that outlives the call. Under the batch runtime each
/// runtime::Executor job runs its analyses on its own Circuit and
/// therefore owns its own workspaces — workspaces are never shared or
/// cached across jobs (see the THREAD-SAFETY RULE in
/// src/util/diagnostics.h and DESIGN.md section 8).

#include <complex>
#include <vector>

#include "src/spice/circuit.h"
#include "src/util/diagnostics.h"
#include "src/util/numeric_health.h"
#include "src/util/sparse.h"

namespace ape::spice {

namespace detail {

/// The factorization ladder shared by SolveWorkspace (T = double) and
/// AcKernel (T = std::complex<double>): the sparse LU over the structural
/// pattern and its slot values, the equilibration scales, every
/// numerical-health step that runs through the factors, the health and
/// stats records the steps update, and the allocation audit.
template <typename T>
class FactorLadder {
protected:
  using Vec = std::vector<T>;

  /// The gmin diagonal every transient / AC system gets so capacitively
  /// floating nodes stay solvable.
  static constexpr double kFloatingNodeGmin = 1e-12;

  /// Size the equilibration scales and health scratch for \p n unknowns,
  /// at construction, so even the recovery rungs never grow a buffer.
  void size_scratch(size_t n);

  /// Factorize vals_. Rungs: replay -> equilibrate + replay -> re-order
  /// -> equilibrate + re-order -> throw NumericError; equilibration is
  /// skipped in Off mode and applied up front in Force mode. A replay
  /// that succeeds with pivot growth above health::kPivotGrowthTrigger
  /// also re-orders unless the cached ordering grew that much on its own
  /// values. Each re-order counts in sparse_fallbacks. \p reset writes
  /// the unscaled values back into vals_; it runs before a re-order and
  /// after an equilibrated factorization, so vals_ always holds A itself
  /// for the residuals. After every symbolic analysis (the first, or a
  /// re-order) \p measure, the owner's footprint, becomes the audited
  /// setup size: the factor storage is sized then and only then.
  template <typename Reset, typename Measure>
  void factor_values(NumericHealthMode mode, const Reset& reset, const Measure& measure);

  /// Solve A x = b (A^T x = b when \p transposed) through the live
  /// factors, wrapping them in the equilibration scales when they hold
  /// RAC. \p b may alias \p x.
  void solve_factored(const Vec& b, Vec& x, bool transposed = false);

  /// Hager's 1-norm condition estimate of vals_ into
  /// health_.cond_estimate (+inf when the fault injector fails it).
  void estimate_condition();

  /// ||A||_inf of vals_: the scale of every residual() until the next
  /// factorization.
  void measure_norm_inf();

  /// Relative residual of \p x for A x = b; b - A x stays in resid_.
  double residual(const Vec& b, const Vec& x);

  /// Refine \p x from its measured residual \p r0 (b - A x in resid_).
  /// The on_refinement fault probe may declare it diverged instead (x is
  /// kept). Counts refinement_solves and the correction steps.
  RefineOutcome refine(const Vec& b, Vec& x, double r0);

  /// The rung after a refinement \p out of unscaled factors diverged:
  /// equilibrate, refactorize, re-solve \p b into \p x and refine once
  /// more, folding that pass into \p out. \p reset restores vals_. False
  /// when no scaling exists (the factors are untouched).
  template <typename Reset>
  bool refactor_equilibrated(const Vec& b, Vec& x, RefineOutcome& out, const Reset& reset);

  /// Fold a measured relative residual into health_ and stats_.
  void note_residual(double r);

  /// Fold health_'s growth and condition gauges and its equilibrated /
  /// recovered flags into stats_.
  void record_health();

  /// Copy the LU counters into stats_ and audit the footprint \p now
  /// against the setup size: any change since is a regrowth.
  const KernelStats& audited_stats(size_t now);

  /// Bytes of everything the ladder owns (part of the owner's footprint).
  size_t ladder_bytes() const;

  SparsePattern pattern_;
  SparseLu<T> slu_;
  Vec vals_;                       ///< slot values (pattern_ CSR order)
  KernelStats stats_;
  NumericHealth health_;
  size_t setup_bytes_ = 0;         ///< audited footprint after setup
  bool equilibrated_now_ = false;  ///< current factorization is of RAC

private:
  /// Scale vals_ to RAC with power-of-two row / column scales; false
  /// when the fault injector vetoes it or no scaling exists.
  bool try_equilibrate();
  void matvec(const Vec& v, Vec& y) const;
  RefineOutcome refine_steps(const Vec& b, Vec& x, double r0);

  std::vector<double> row_scale_;  ///< power-of-two row equilibration
  std::vector<double> col_scale_;  ///< power-of-two column equilibration
  std::vector<double> col_sums_;   ///< 1-norm scratch
  Vec resid_;                      ///< refinement residual
  Vec dx_;                         ///< refinement correction
  Vec best_;                       ///< refinement best-iterate rollback
  Vec work_;                       ///< scaled-RHS / aliased-solve scratch
  Vec probe_;                      ///< condition-estimator probe vector
  double anorm_inf_ = 0.0;         ///< ||A||_inf for the residuals
  long settled_analyses_ = 0;      ///< symbolic analyses folded into setup_bytes_
  bool order_grew_ = false;        ///< the cached ordering's own pass tripped growth
};

}  // namespace detail

/// Reusable real-MNA solve workspace with a compiled linear baseline.
///
/// Usage per Newton ladder rung (DC) or per transient step attempt:
///   ws.build_dc_baseline(gmin, src_scale);       // linear stamps, once
///   for each Newton iteration:
///     ws.assemble_dc(x, src_scale);              // restore + nonlinear
///     ... fault probes on ws.mna() ...
///     const auto& xnew = ws.solve();             // in-place LU
class SolveWorkspace : private detail::FactorLadder<double> {
public:
  /// Compile against a finalized circuit (finalizes it if needed).
  explicit SolveWorkspace(Circuit& ckt);

  /// Stamp the linear baseline for DC Newton at (gmin, src_scale):
  /// linear device stamps plus \p gmin on every node-row diagonal.
  void build_dc_baseline(double gmin, double src_scale);

  /// Stamp the baseline for one transient solve attempt at \p tc (fixed
  /// dt / time / integrator state): the linear devices, the nonlinear
  /// devices' charge companions (Device::stamp_tran_companions) and the
  /// floating-node gmin diagonal. Valid until the step is accepted or dt
  /// changes.
  void build_tran_baseline(const TranContext& tc);

  /// Restore the baseline (memcpy) and restamp the nonlinear devices
  /// linearized around candidate \p x for a DC iteration.
  void assemble_dc(const Solution& x, double src_scale);

  /// Restore the baseline and restamp the nonlinear devices for a
  /// transient iteration at candidate \p x through
  /// Device::stamp_tran_iteration: each device gets its own slot of the
  /// run's bypass state and may reuse its last linearization inside tc's
  /// bypass window (counted in KernelStats::device_bypasses).
  void assemble_tran(const Solution& x, const TranContext& tc);

  /// Factorize the assembled system in place and solve into the owned
  /// solution buffer (returned by reference, valid until the next call).
  /// A transient solve whose gathered values are bitwise equal to those
  /// of the live plain factorization (not equilibrated, recovered or
  /// refactored by refinement) reuses its factors instead
  /// (KernelStats::factor_reuses); Force mode always refactors. The
  /// health checks run on every solve either way. Throws NumericError on
  /// a singular system.
  const std::vector<double>& solve();

  /// The assembled system (for fault-injection probes). Always fully
  /// assembled dense: the solve gathers its slot values *from* this
  /// matrix, so a probe poking any pattern slot (the (0, 0) gmin
  /// diagonal included) reaches the factorization.
  MnaReal& mna() { return mna_; }

  /// Numerical health of the last solve() (reset per solve; zero-valued
  /// gauges mean the corresponding check did not run).
  const NumericHealth& health() const { return health_; }

  /// Counters accumulated since construction; callers snapshot this into
  /// ConvergenceReport::kernel. Reading refreshes the allocation audit
  /// (workspace_bytes / workspace_regrowths).
  const KernelStats& stats();

  /// Flushes stats() into the job context's kernel-stats sink, if one
  /// is installed (JobContext::kernel_sink) — how the batch runtime sees
  /// kernel work from jobs that never expose a ConvergenceReport.
  ~SolveWorkspace();

private:
  /// Which baseline family the frozen pattern was captured under. DC and
  /// transient baselines stamp different structural slots (capacitors
  /// are open at DC), so switching families reopens the capture.
  enum class BaselineKind { None, Dc, Tran };

  void restore_baseline();
  void begin_capture();
  void freeze_pattern();
  void note_baseline_kind(BaselineKind kind);
  void gather_values();
  size_t measured_bytes() const;

  /// The DC / transient trigger policy (DESIGN.md section 15).
  void run_health_checks(NumericHealthMode mode);

  Circuit* ckt_;
  size_t dim_;
  size_t n_nodes_;
  MnaReal mna_;                    ///< assembled system
  MnaReal base_;                   ///< compiled linear baseline (G0, RHS0)
  std::vector<double> xnew_;       ///< solution buffer
  Solution zero_x_;                ///< dummy operating point for linear stamps

  // Factorization (DESIGN.md section 13): pattern_ is captured by the
  // stamp recorder until the first solve, then frozen; per-solve the
  // values are gathered from the dense mna_ storage through flat_idx_
  // into vals_ and handed to the reusable-symbolic sparse LU.
  std::vector<size_t> flat_idx_;   ///< slot -> dense row-major index
  BaselineKind baseline_kind_ = BaselineKind::None;
  bool frozen_ = false;

  // Transient work reuse (DESIGN.md section 8), sized at setup: one
  // bypass slot per nonlinear device (Circuit::nonlinear_devices()
  // order), and the slot values of the live factorization, valid for
  // reuse while factors_plain_ holds.
  std::vector<Linearization> lins_;
  std::vector<double> fvals_;
  bool factors_plain_ = false;
};

// ---------------------------------------------------------------------------

/// Compiled complex-MNA kernel for AC sweeps: A(w) = G + jwC formed per
/// frequency with a fused loop over per-slot real G / C arrays compiled
/// once per operating point.
class AcKernel : private detail::FactorLadder<std::complex<double>> {
public:
  /// Compile G, C and the (w-independent) stimulus from the circuit's
  /// small-signal stamps at the cached operating point. Requires a
  /// finalized circuit (a prior dc_operating_point()). Throws
  /// NumericError when a device's stamps are not affine in w.
  explicit AcKernel(Circuit& ckt);

  /// Assemble A(omega) = G + jwC into the slot values and restore
  /// the stimulus into mna().rhs().
  void assemble(double omega);

  /// Factorize the assembled system in place and solve into \p out
  /// (resized to dim(); allocation-free when already that size).
  /// Throws NumericError on a singular system.
  void solve_into(std::vector<std::complex<double>>& out);

  /// The stimulus of the assembled system in mna().rhs() (the noise
  /// analysis solves it and many unit injections per frequency). The
  /// matrix part holds the w = 2 validation stamps, not A(omega).
  MnaComplex& mna() { return mna_; }

  /// Solve against an explicit RHS using the factorization of the last
  /// solve_into()/factorize() call. \p rhs and \p out must not alias.
  void solve_rhs(const std::vector<std::complex<double>>& rhs,
                 std::vector<std::complex<double>>& out);

  /// Factorize the currently assembled system without solving.
  void factorize();

  size_t dim() const { return dim_; }

  /// Numerical health of the last factorize() (covers every solve made
  /// against that factorization, including noise-analysis solve_rhs()).
  const NumericHealth& health() const { return health_; }

  const KernelStats& stats();

  /// Flushes stats() into the job context's kernel-stats sink, if any.
  ~AcKernel();

private:
  void stamp_virtual(double omega);
  void restore_values();
  size_t measured_bytes() const;

  // The AC trigger policy (DESIGN.md section 15). factorize() decides
  // per factorization whether every solve against it is refined (Force)
  // or each solve checks its own residual first (Auto, monitor tripped);
  // the noise analysis' many solve_rhs() calls follow the same rule.
  void post_factor_health(NumericHealthMode mode);
  void solve_current(const std::vector<std::complex<double>>& rhs,
                     std::vector<std::complex<double>>& out);

  Circuit* ckt_;
  size_t dim_;
  std::vector<std::complex<double>> rhs0_;  ///< w-independent stimulus
  MnaComplex mna_;

  // SoA per-slot G / C arrays over pattern_ (structure-of-arrays, so the
  // per-point assembly a[s] = gs[s] + jw*cs[s] is one contiguous
  // vectorizable loop of O(nnz)).
  std::vector<double> gs_;         ///< per-slot Re part (pattern order)
  std::vector<double> cs_;         ///< per-slot dA/d(jw) (pattern order)
  double last_omega_ = 0.0;        ///< for re-assembling the slot values
  bool refine_active_ = false;     ///< refine every solve of this factorization
  bool check_residual_ = false;    ///< Auto: refine solves whose residual misses
};

}  // namespace ape::spice
