#pragma once
/// \file kernel.h
/// Compiled-stamp MNA kernel: allocation-free solver workspaces and
/// linear-baseline reuse for the DC / transient Newton loops, plus fused
/// G + jwC assembly for AC sweeps.
///
/// The analyses in analysis.cpp used to restamp *every* device through
/// virtual dispatch on every Newton iteration, heap-allocate a fresh
/// LuSolver and solution vector per solve, and rebuild the full complex
/// MNA per AC frequency point. This layer compiles a finalized Circuit
/// into flat stamp programs instead:
///
/// - SolveWorkspace (real systems, DC + transient): stamps the linear
///   devices (Circuit::linear_devices()) plus the gmin diagonal once into
///   a baseline (G0, RHS0), then each Newton iteration memcpy-restores
///   the baseline and restamps only the nonlinear devices
///   (Circuit::nonlinear_devices(): MOSFETs, diodes). The MNA matrix,
///   RHS, LU storage, pivot array and solution buffer are all owned by
///   the workspace, so a whole analysis performs zero heap allocations
///   after setup (KernelStats::workspace_regrowths stays 0).
/// - AcKernel (complex systems): assembles real G and C matrices once per
///   operating point from one virtual stamp pass, then forms G + jwC per
///   frequency with a fused loop over the flat storage. The split is
///   validated at compile time against a second stamp pass (every
///   shipped device is affine in w: A(w) = G + jwC); if a future device
///   ever breaks that contract the kernel falls back to per-point
///   virtual stamping and counts it in KernelStats::ac_points_virtual.
///
/// Both workspaces carry the numerical-health layer (DESIGN.md section
/// 15): every factorization tracks its pivot extremes (an O(1) growth /
/// condition monitor), and when the job's NumericHealthMode says so —
/// or the monitors trip — the solve runs Hager's condition estimate,
/// fixed-precision iterative refinement, and a recovery ladder (refine ->
/// equilibrate-and-refactorize -> switch kernel -> the gmin ladder above)
/// before giving up. The per-solve outcome is exposed through health()
/// and aggregated into KernelStats.
///
/// Both workspaces additionally carry a *sparse* factorization path
/// (src/util/sparse.h, DESIGN.md section 13): the stamp recorder on
/// MnaReal/MnaComplex captures the structural slot pattern once per
/// topology, a Markowitz symbolic factorization is done once and then
/// *reused* — each Newton iteration / AC point only gathers slot values
/// and replays the compiled elimination program. A crossover heuristic
/// (KernelPolicy) keeps tiny systems on the dense path, where flat
/// O(n^3) loops still win; a sparse refactor whose pivots collapse
/// (stale ordering) falls back to the dense solver for that solve and
/// counts KernelStats::sparse_fallbacks.
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
#include "src/util/matrix.h"
#include "src/util/sparse.h"

namespace ape::spice {

// ---------------------------------------------------------------------------
// Dense / sparse path selection.

/// Which factorization path a solver workspace uses.
enum class KernelPath {
  Auto,        ///< crossover heuristic: sparse for large, sparse systems
  ForceDense,  ///< always the dense LuSolver (the pre-sparse behaviour)
  ForceSparse, ///< always the sparse path (equivalence tests)
};

/// Crossover policy for KernelPath::Auto. Dense LU wins at tiny n — the
/// flat O(n^3) loops beat the sparse machinery's indirection until the
/// system is both big enough and sparse enough; the defaults keep every
/// opamp estimate testbench (dim ~15-30) on the proven dense path and
/// were chosen from the bench_spice_kernel crossover table
/// (BENCH_spice_kernel.json).
struct KernelPolicy {
  KernelPath path = KernelPath::Auto;
  size_t sparse_min_dim = 48;        ///< Auto: dense below this dimension
  double sparse_max_density = 0.35;  ///< Auto: dense above this pattern density

  /// The Auto decision for a frozen pattern of \p dim / \p density.
  bool wants_sparse(size_t dim, double density) const {
    switch (path) {
      case KernelPath::ForceDense: return false;
      case KernelPath::ForceSparse: return true;
      case KernelPath::Auto: break;
    }
    return dim >= sparse_min_dim && density <= sparse_max_density;
  }
};

/// Whether a frozen pattern of \p dim / \p density takes the sparse path
/// under the job context's KernelPolicy (the defaults when none is
/// installed). Workspaces decide once, when they freeze their pattern,
/// so install a policy before the analysis call.
bool wants_sparse(size_t dim, double density);

/// Reusable real-MNA solve workspace with a compiled linear baseline.
///
/// Usage per Newton ladder rung (DC) or per transient step attempt:
///   ws.build_dc_baseline(gmin, src_scale);       // linear stamps, once
///   for each Newton iteration:
///     ws.assemble_dc(x, src_scale);              // restore + nonlinear
///     ... fault probes on ws.mna() ...
///     const auto& xnew = ws.solve();             // in-place LU
class SolveWorkspace {
public:
  /// Compile against a finalized circuit (finalizes it if needed).
  explicit SolveWorkspace(Circuit& ckt);

  /// Stamp the linear baseline for DC Newton at (gmin, src_scale):
  /// linear device stamps plus \p gmin on every node-row diagonal.
  void build_dc_baseline(double gmin, double src_scale);

  /// Stamp the linear baseline for one transient solve attempt at \p tc
  /// (fixed dt / time / integrator state) plus the floating-node gmin
  /// diagonal. Valid until the step is accepted or dt changes.
  void build_tran_baseline(const TranContext& tc);

  /// Restore the baseline (memcpy) and restamp the nonlinear devices
  /// linearized around candidate \p x for a DC iteration.
  void assemble_dc(const Solution& x, double src_scale);

  /// Restore the baseline and restamp the nonlinear devices for a
  /// transient iteration at candidate \p x.
  void assemble_tran(const Solution& x, const TranContext& tc);

  /// Factorize the assembled system in place and solve into the owned
  /// solution buffer (returned by reference, valid until the next call).
  /// Throws NumericError on a singular system.
  const std::vector<double>& solve();

  /// The assembled system (for fault-injection probes). Always fully
  /// assembled dense, even on the sparse path: the sparse solve gathers
  /// its slot values *from* this matrix, so a probe poking any pattern
  /// slot (the (0, 0) gmin diagonal included) reaches both paths.
  MnaReal& mna() { return mna_; }

  /// True once the pattern froze onto the sparse factorization path
  /// (after the first solve; see the symbolic-reuse lifecycle in
  /// DESIGN.md section 13).
  bool sparse_path() const { return use_sparse_; }

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
  /// The gmin diagonal every transient / AC system gets so capacitively
  /// floating nodes stay solvable (hoisted constant; previously repeated
  /// inline at each assembly site).
  static constexpr double kFloatingNodeGmin = 1e-12;

  /// Which baseline family the frozen pattern was captured under. DC and
  /// transient baselines stamp different structural slots (capacitors
  /// are open at DC), so switching families reopens the capture.
  enum class BaselineKind { None, Dc, Tran };

  void restore_baseline();
  void begin_capture();
  void freeze_pattern();
  void note_baseline_kind(BaselineKind kind);
  void sync_sparse_stats();
  size_t measured_bytes() const;

  // Numerical-health helpers (DESIGN.md section 15).
  bool try_equilibrate_sparse();
  bool try_equilibrate_dense();
  void factor_dense();
  void run_health_checks(bool sparse, NumericHealthMode mode);
  void refine_current(bool sparse);
  void record_health();

  Circuit* ckt_;
  size_t dim_;
  size_t n_nodes_;
  MnaReal mna_;                    ///< assembled system
  MnaReal base_;                   ///< compiled linear baseline (G0, RHS0)
  LuSolver<double> lu_;            ///< dense factorization (and sparse rescue)
  std::vector<double> xnew_;       ///< solution buffer
  Solution zero_x_;                ///< dummy operating point for linear stamps
  KernelStats stats_;
  size_t setup_bytes_ = 0;         ///< workspace footprint right after setup

  // Sparse path (DESIGN.md section 13): pattern captured by the stamp
  // recorder until the first solve, then frozen; per-solve the values are
  // gathered from the dense mna_ storage through flat_idx_ and handed to
  // the reusable-symbolic sparse LU.
  SparsePattern pattern_;
  SparseLuReal slu_;
  std::vector<double> svals_;      ///< gathered slot values (CSR order)
  std::vector<size_t> flat_idx_;   ///< slot -> dense row-major index
  BaselineKind baseline_kind_ = BaselineKind::None;
  bool frozen_ = false;
  bool use_sparse_ = false;
  bool sparse_bytes_settled_ = false;  ///< setup_bytes_ recomputed post-freeze

  // Numerical-health state. The scratch vectors are preallocated at
  // construction (and folded into the audited setup bytes) so even the
  // recovery rungs run without growing the workspace.
  NumericHealth health_;
  std::vector<double> row_scale_;  ///< power-of-two row equilibration
  std::vector<double> col_scale_;  ///< power-of-two column equilibration
  std::vector<double> col_sums_;   ///< 1-norm scratch
  std::vector<double> hresid_;     ///< refinement residual
  std::vector<double> hdx_;        ///< refinement correction
  std::vector<double> hbest_;      ///< refinement best-iterate rollback
  std::vector<double> hwork_;      ///< scaled-RHS / out-of-place-solve scratch
  std::vector<double> hwork2_;     ///< condition-estimator probe vector
  bool equilibrated_now_ = false;  ///< current factorization is of RAC
};

// ---------------------------------------------------------------------------

/// Compiled complex-MNA kernel for AC sweeps: A(w) = G + jwC formed per
/// frequency with a fused loop over flat real G / C arrays compiled once
/// per operating point.
class AcKernel {
public:
  /// Compile G, C and the (w-independent) stimulus from the circuit's
  /// small-signal stamps at the cached operating point. Requires a
  /// finalized circuit (a prior dc_operating_point()).
  explicit AcKernel(Circuit& ckt);

  /// Assemble A(omega) into the owned complex system. Uses the fused
  /// G + jwC path when the compile-time split validated, else falls back
  /// to per-device virtual stamping.
  void assemble(double omega);

  /// Factorize the assembled system in place and solve into \p out
  /// (resized to dim(); allocation-free when already that size).
  /// Throws NumericError on a singular system.
  void solve_into(std::vector<std::complex<double>>& out);

  /// The assembled system (for reuse of the factorization, e.g. the
  /// noise analysis solving many right-hand sides per frequency).
  MnaComplex& mna() { return mna_; }

  /// Solve against an explicit RHS using the factorization of the last
  /// solve_into()/factorize() call. \p rhs and \p out must not alias.
  void solve_rhs(const std::vector<std::complex<double>>& rhs,
                 std::vector<std::complex<double>>& out);

  /// Factorize the currently assembled system without solving.
  void factorize();

  size_t dim() const { return dim_; }

  /// False when a device's stamps were not affine in w and the kernel
  /// reverted to per-point virtual stamping.
  bool exact_split() const { return exact_split_; }

  /// True when the kernel factorizes through the sparse path (requires
  /// an exact split; decided once at construction from wants_sparse()).
  bool sparse_path() const { return use_sparse_; }

  /// Numerical health of the last factorize() (covers every solve made
  /// against that factorization, including noise-analysis solve_rhs()).
  const NumericHealth& health() const { return health_; }

  const KernelStats& stats();

  /// Flushes stats() into the job context's kernel-stats sink, if any.
  ~AcKernel();

private:
  static constexpr double kFloatingNodeGmin = 1e-12;

  void stamp_virtual(double omega);
  void assemble_dense(double omega);
  size_t measured_bytes() const;

  // Numerical-health helpers (DESIGN.md section 15). Refinement state is
  // per-factorization: factorize() decides whether subsequent solves
  // need refining, so the noise analysis' many solve_rhs() calls against
  // one factorization are all refined consistently.
  bool try_equilibrate_sparse();
  bool try_equilibrate_dense();
  void factor_dense();
  void post_factor_health(NumericHealthMode mode);
  void solve_current(const std::vector<std::complex<double>>& rhs,
                     std::vector<std::complex<double>>& out);
  void refine_in_place(const std::vector<std::complex<double>>& rhs,
                       std::vector<std::complex<double>>& x);
  void matvec_current(const std::vector<std::complex<double>>& v,
                      std::vector<std::complex<double>>& y) const;

  Circuit* ckt_;
  size_t dim_;
  std::vector<double> g_;          ///< flat row-major Re part (w-independent)
  std::vector<double> c_;          ///< flat row-major dA/d(jw)
  std::vector<std::complex<double>> rhs0_;  ///< w-independent stimulus
  MnaComplex mna_;
  LuSolver<std::complex<double>> lu_;
  bool exact_split_ = true;
  KernelStats stats_;
  size_t setup_bytes_ = 0;

  // Sparse sweep path: SoA per-slot G / C arrays (structure-of-arrays,
  // so the per-point assembly a[s] = gs[s] + jw*cs[s] is one contiguous
  // vectorizable loop of O(nnz) instead of the O(n^2) dense fill).
  SparsePattern pattern_;
  SparseLuComplex slu_;
  std::vector<double> gs_;         ///< per-slot Re part (pattern order)
  std::vector<double> cs_;         ///< per-slot dA/d(jw) (pattern order)
  std::vector<std::complex<double>> avals_;  ///< assembled slot values
  bool use_sparse_ = false;
  bool sparse_live_ = false;       ///< last factorization was sparse
  bool sparse_bytes_settled_ = false;  ///< setup_bytes_ recomputed after the
                                       ///< first symbolic factorization
  double last_omega_ = 0.0;        ///< for the dense rescue re-assembly

  // Numerical-health state (preallocated, see SolveWorkspace).
  NumericHealth health_;
  std::vector<double> row_scale_;
  std::vector<double> col_scale_;
  std::vector<double> col_sums_;
  std::vector<std::complex<double>> cresid_;
  std::vector<std::complex<double>> cdx_;
  std::vector<std::complex<double>> cbest_;
  std::vector<std::complex<double>> cwork_;
  std::vector<std::complex<double>> cwork2_;
  bool equilibrated_now_ = false;  ///< current factorization is of RAC
  bool refine_active_ = false;     ///< refine every solve of this factorization
  double anorm_inf_ = 0.0;         ///< inf-norm of the assembled A(omega)
};

}  // namespace ape::spice
