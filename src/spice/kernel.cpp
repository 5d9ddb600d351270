#include "src/spice/kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "src/spice/fault.h"
#include "src/util/error.h"

namespace ape::spice {
namespace {

/// Copy a sparse LU's counters into a workspace's KernelStats.
void copy_lu_stats(const SparseLuStats& s, KernelStats& k) {
  k.symbolic_analyses = s.symbolic_analyses;
  k.symbolic_reuses = s.symbolic_reuses;
  k.numeric_refactors = s.numeric_refactors;
  k.sparse_nnz = s.nnz;
  k.sparse_fill_in = s.fill_in;
}

}  // namespace

// ---------------------------------------------------------------------------
// FactorLadder

namespace detail {

template <typename T>
void FactorLadder<T>::size_scratch(size_t n) {
  row_scale_.assign(n, 1.0);
  col_scale_.assign(n, 1.0);
  col_sums_.assign(n, 0.0);
  for (Vec* v : {&resid_, &dx_, &best_, &work_, &probe_}) v->assign(n, T{});
}

template <typename T>
template <typename Reset, typename Measure>
void FactorLadder<T>::factor_values(NumericHealthMode mode, const Reset& reset,
                                    const Measure& measure) {
  // One rung: factorize (replay, or a fresh order when `reorder`);
  // Force mode equilibrates up front, otherwise equilibration is the
  // retry when a pivot collapses.
  const auto rung = [&](bool reorder) {
    const auto factor = [&] {
      if (reorder) {
        slu_.reorder(pattern_, vals_);
      } else {
        slu_.factorize(pattern_, vals_);
      }
    };
    if (mode == NumericHealthMode::Force) try_equilibrate();
    try {
      factor();
    } catch (const NumericError&) {
      if (mode == NumericHealthMode::Off || equilibrated_now_ || !try_equilibrate()) {
        throw;
      }
      factor();
      health_.recovered = true;
    }
    ++stats_.factorizations;
  };
  equilibrated_now_ = false;
  health_.equilibrated = false;
  bool collapsed = false;
  bool stale = false;
  try {
    rung(false);
    // A replay that succeeded on pivots the values have outgrown: the
    // growth trigger fired where the ordering's own pass did not.
    stale = slu_.stats().symbolic_analyses == settled_analyses_ && !order_grew_ &&
            slu_.pivot_growth() > health::kPivotGrowthTrigger;
  } catch (const NumericError&) {
    collapsed = true;
  }
  if (collapsed || stale) {
    // Re-order rung: a fresh Markowitz pass on the current values picks
    // new pivots, and throws its own NumericError if the system really
    // is singular.
    ++stats_.sparse_fallbacks;
    reset();
    equilibrated_now_ = false;
    health_.equilibrated = false;
    rung(true);
    if (collapsed && mode != NumericHealthMode::Off) health_.recovered = true;
  }
  // The factors may hold RAC; the residuals and norms need A itself.
  if (equilibrated_now_) reset();
  const long analyses = slu_.stats().symbolic_analyses;
  if (analyses != settled_analyses_) {
    // This factorization sized the factor storage; fold it into the
    // setup footprint so the audit flags only growth after it.
    settled_analyses_ = analyses;
    order_grew_ = slu_.pivot_growth() > health::kPivotGrowthTrigger;
    setup_bytes_ = measure();
    stats_.workspace_bytes = setup_bytes_;
  }
}

template <typename T>
bool FactorLadder<T>::try_equilibrate() {
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_equilibrate()) return false;
  const int* rp = pattern_.row_ptr().data();
  const int* cols = pattern_.cols().data();
  if (!compute_equilibration_csr(rp, cols, vals_.data(), pattern_.n(), row_scale_,
                                 col_scale_)) {
    return false;
  }
  scale_csr(rp, cols, vals_.data(), pattern_.n(), row_scale_, col_scale_);
  equilibrated_now_ = true;
  health_.equilibrated = true;
  return true;
}

template <typename T>
void FactorLadder<T>::solve_factored(const Vec& b, Vec& x, bool transposed) {
  // A^-1 = C (RAC)^-1 R and A^-T = R (RAC)^-T C around scaled factors.
  const std::vector<double>& in = transposed ? col_scale_ : row_scale_;
  const std::vector<double>& out = transposed ? row_scale_ : col_scale_;
  const Vec* rhs = &b;
  if (equilibrated_now_ || &b == &x) {
    work_ = b;
    if (equilibrated_now_) scale_vector(work_, in);
    rhs = &work_;
  }
  if (transposed) {
    slu_.solve_transposed_into(*rhs, x);
  } else {
    slu_.solve_into(*rhs, x);
  }
  if (equilibrated_now_) scale_vector(x, out);
}

template <typename T>
void FactorLadder<T>::estimate_condition() {
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_cond_estimate()) {
    health_.cond_estimate = std::numeric_limits<double>::infinity();
    return;
  }
  const double anorm1 = norm1_csr(pattern_.row_ptr().data(), pattern_.cols().data(),
                                  vals_.data(), pattern_.n(), col_sums_);
  const std::function<void(Vec&)> sol = [this](Vec& v) { solve_factored(v, v); };
  const std::function<void(Vec&)> sol_t = [this](Vec& v) { solve_factored(v, v, true); };
  health_.cond_estimate = condest_1norm<T>(pattern_.n(), anorm1, sol, sol_t, probe_);
}

template <typename T>
void FactorLadder<T>::measure_norm_inf() {
  anorm_inf_ = norm_inf_csr(pattern_.row_ptr().data(), vals_.data(), pattern_.n());
}

template <typename T>
void FactorLadder<T>::matvec(const Vec& v, Vec& y) const {
  const size_t n = pattern_.n();
  const std::vector<int>& rp = pattern_.row_ptr();
  const std::vector<int>& cols = pattern_.cols();
  y.resize(n);
  for (size_t i = 0; i < n; ++i) {
    T acc{};
    for (int s = rp[i]; s < rp[i + 1]; ++s) acc += vals_[s] * v[cols[s]];
    y[i] = acc;
  }
}

template <typename T>
double FactorLadder<T>::residual(const Vec& b, const Vec& x) {
  return relative_residual(b, x, [this](const Vec& v, Vec& y) { matvec(v, y); },
                           anorm_inf_, resid_);
}

template <typename T>
RefineOutcome FactorLadder<T>::refine_steps(const Vec& b, Vec& x, double r0) {
  const RefineOutcome out = refine_from(
      r0, b, x, [this](const Vec& v, Vec& y) { matvec(v, y); },
      [this](const Vec& r, Vec& d) { solve_factored(r, d); }, anorm_inf_, resid_, dx_,
      best_);
  stats_.refinement_iterations += out.iterations;
  health_.refinement_iterations += out.iterations;
  return out;
}

template <typename T>
RefineOutcome FactorLadder<T>::refine(const Vec& b, Vec& x, double r0) {
  ++stats_.refinement_solves;
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_refinement()) {
    // Injected divergence: keep the factored solution and its measured
    // residual; the caller escalates exactly like a real divergence.
    RefineOutcome out;
    out.residual = r0;
    out.diverged = true;
    return out;
  }
  return refine_steps(b, x, r0);
}

template <typename T>
template <typename Reset>
bool FactorLadder<T>::refactor_equilibrated(const Vec& b, Vec& x, RefineOutcome& out,
                                            const Reset& reset) {
  if (!try_equilibrate()) return false;
  bool redone = false;
  try {
    slu_.factorize(pattern_, vals_);
    ++stats_.factorizations;
    redone = true;
  } catch (const NumericError&) {
    equilibrated_now_ = false;
    health_.equilibrated = false;
  }
  reset();
  if (redone) {
    solve_factored(b, x);
    ++stats_.solves;
    health_.recovered = true;
    const RefineOutcome again = refine_steps(b, x, residual(b, x));
    out.residual = again.residual;
    out.iterations += again.iterations;
  }
  return true;
}

template <typename T>
void FactorLadder<T>::note_residual(double r) {
  if (r > health_.residual_norm) health_.residual_norm = r;
  if (r > stats_.residual_norm_max) stats_.residual_norm_max = r;
}

template <typename T>
void FactorLadder<T>::record_health() {
  if (health_.pivot_growth > stats_.pivot_growth_max) {
    stats_.pivot_growth_max = health_.pivot_growth;
  }
  if (health_.cond_estimate > stats_.cond_estimate_max) {
    stats_.cond_estimate_max = health_.cond_estimate;
  }
  if (health_.equilibrated) ++stats_.equilibrated_solves;
  if (health_.recovered) ++stats_.numeric_recoveries;
}

template <typename T>
const KernelStats& FactorLadder<T>::audited_stats(size_t now) {
  copy_lu_stats(slu_.stats(), stats_);
  if (now != setup_bytes_) {
    ++stats_.workspace_regrowths;
    setup_bytes_ = now;
  }
  stats_.workspace_bytes = now;
  return stats_;
}

template <typename T>
size_t FactorLadder<T>::ladder_bytes() const {
  return pattern_.memory_bytes() + slu_.memory_bytes() +
         (row_scale_.capacity() + col_scale_.capacity() + col_sums_.capacity()) *
             sizeof(double) +
         (vals_.capacity() + resid_.capacity() + dx_.capacity() + best_.capacity() +
          work_.capacity() + probe_.capacity()) *
             sizeof(T);
}

template class FactorLadder<double>;
template class FactorLadder<std::complex<double>>;

}  // namespace detail

// ---------------------------------------------------------------------------
// SolveWorkspace

SolveWorkspace::SolveWorkspace(Circuit& ckt)
    : ckt_(&ckt),
      dim_((ckt.finalize(), ckt.dim())),
      n_nodes_(ckt.num_nodes()),
      mna_(dim_),
      base_(dim_) {
  xnew_.assign(dim_, 0.0);
  zero_x_.x.assign(dim_, 0.0);
  size_scratch(dim_);
  lins_.assign(ckt.nonlinear_devices().size(), Linearization{});
  begin_capture();
  setup_bytes_ = measured_bytes();
  stats_.workspace_bytes = setup_bytes_;
}

SolveWorkspace::~SolveWorkspace() {
  if (KernelStats* sink = job_context().kernel_sink) sink->accumulate(stats());
}

void SolveWorkspace::begin_capture() {
  pattern_.reset(dim_);
  base_.set_recorder(&pattern_);
  mna_.set_recorder(&pattern_);
  frozen_ = false;
}

void SolveWorkspace::note_baseline_kind(BaselineKind kind) {
  if (baseline_kind_ == kind) return;
  // DC and transient baselines stamp different structural slots (a
  // capacitor is open at DC but conducts geq in transient), so a frozen
  // pattern from the other family would silently drop slots. Reopen the
  // capture; the next solve refreezes. In practice each analysis owns
  // its workspace and this fires exactly once, before the first solve.
  if (baseline_kind_ != BaselineKind::None) begin_capture();
  baseline_kind_ = kind;
}

void SolveWorkspace::build_dc_baseline(double gmin, double src_scale) {
  note_baseline_kind(BaselineKind::Dc);
  base_.clear();
  for (const Device* d : ckt_->linear_devices()) d->stamp_dc(base_, zero_x_, src_scale);
  for (size_t i = 0; i < n_nodes_; ++i) {
    base_.add(static_cast<NodeId>(i), static_cast<NodeId>(i), gmin);
  }
  ++stats_.baseline_builds;
}

void SolveWorkspace::build_tran_baseline(const TranContext& tc) {
  note_baseline_kind(BaselineKind::Tran);
  base_.clear();
  for (const Device* d : ckt_->linear_devices()) d->stamp_tran(base_, zero_x_, tc);
  for (const Device* d : ckt_->nonlinear_devices()) d->stamp_tran_companions(base_, tc);
  for (size_t i = 0; i < n_nodes_; ++i) {
    base_.add(static_cast<NodeId>(i), static_cast<NodeId>(i), kFloatingNodeGmin);
  }
  ++stats_.baseline_builds;
}

void SolveWorkspace::restore_baseline() {
  std::copy_n(base_.matrix().data(), base_.matrix().size(), mna_.matrix().data());
  std::copy(base_.rhs().begin(), base_.rhs().end(), mna_.rhs().begin());
  ++stats_.baseline_restores;
  stats_.linear_stamps_skipped += static_cast<long>(ckt_->linear_devices().size());
}

void SolveWorkspace::assemble_dc(const Solution& x, double src_scale) {
  restore_baseline();
  for (const Device* d : ckt_->nonlinear_devices()) d->stamp_dc(mna_, x, src_scale);
  stats_.nonlinear_stamps += static_cast<long>(ckt_->nonlinear_devices().size());
}

void SolveWorkspace::assemble_tran(const Solution& x, const TranContext& tc) {
  restore_baseline();
  const std::vector<Device*>& nl = ckt_->nonlinear_devices();
  for (size_t k = 0; k < nl.size(); ++k) {
    if (nl[k]->stamp_tran_iteration(mna_, x, tc, lins_[k])) ++stats_.device_bypasses;
  }
  stats_.nonlinear_stamps += static_cast<long>(nl.size());
}

void SolveWorkspace::freeze_pattern() {
  // The first assembly has been seen: every linear + gmin + nonlinear
  // stamp registered its structural slot (stamp *calls*, not values, so
  // a cutoff device's 0.0 entries are included). Detach the recorder —
  // later assemblies revisit the same slots by construction.
  base_.set_recorder(nullptr);
  mna_.set_recorder(nullptr);
  pattern_.finalize();
  flat_idx_.resize(pattern_.nnz());
  vals_.resize(pattern_.nnz());
  fvals_.resize(pattern_.nnz());
  const std::vector<int>& rp = pattern_.row_ptr();
  const std::vector<int>& cols = pattern_.cols();
  for (size_t r = 0; r < dim_; ++r) {
    for (int s = rp[r]; s < rp[r + 1]; ++s) {
      flat_idx_[s] = r * dim_ + static_cast<size_t>(cols[s]);
    }
  }
  frozen_ = true;
  // The capture / freeze machinery (pattern CSR arrays, gather buffers)
  // allocated between construction and this first solve; fold it into
  // the setup footprint so the regrowth audit only flags growth in the
  // steady-state Newton loop. The factor storage settles separately
  // after each symbolic factorization (FactorLadder::factor_values).
  setup_bytes_ = measured_bytes();
  stats_.workspace_bytes = setup_bytes_;
}

void SolveWorkspace::gather_values() {
  const double* a = mna_.matrix().data();
  for (size_t s = 0; s < flat_idx_.size(); ++s) vals_[s] = a[flat_idx_[s]];
}

const std::vector<double>& SolveWorkspace::solve() {
  if (!frozen_) freeze_pattern();
  health_ = NumericHealth{};
  const NumericHealthMode mode = job_context().health_mode;
  gather_values();
  // Transient factor reuse: a Newton iteration whose devices all
  // bypassed, on an unchanged baseline, assembles the very matrix the
  // live factors came from.
  const bool reuse = baseline_kind_ == BaselineKind::Tran && mode != NumericHealthMode::Force;
  if (reuse && factors_plain_ &&
      std::memcmp(vals_.data(), fvals_.data(), vals_.size() * sizeof(double)) == 0) {
    ++stats_.factor_reuses;
  } else {
    factors_plain_ = false;
    factor_values(mode, [this] { gather_values(); }, [this] { return measured_bytes(); });
    if (reuse && !equilibrated_now_ && !health_.recovered) {
      std::copy(vals_.begin(), vals_.end(), fvals_.begin());
      factors_plain_ = true;
    }
  }
  solve_factored(mna_.rhs(), xnew_);
  ++stats_.solves;
  if (mode != NumericHealthMode::Off) run_health_checks(mode);
  record_health();
  return xnew_;
}

void SolveWorkspace::run_health_checks(NumericHealthMode mode) {
  const double growth = slu_.pivot_growth();
  const double scale = slu_.max_abs_scale();
  const double min_piv = slu_.min_pivot();
  health_.pivot_growth = growth;
  // O(1) condition lower-bound proxy from the pivot extremes: a spread
  // of 1e12 between the largest entry and the smallest pivot means cond
  // is at least of that order, growth or no growth.
  const double cond_proxy = min_piv > 0.0 ? scale / min_piv : 0.0;
  const bool suspect = growth > health::kPivotGrowthTrigger ||
                       cond_proxy > health::kCondTrigger;
  if (mode != NumericHealthMode::Force && !suspect) return;
  estimate_condition();
  const bool refine_now = mode == NumericHealthMode::Force ||
                          growth > health::kPivotGrowthTrigger ||
                          !(health_.cond_estimate < health::kCondTrigger);
  if (!refine_now) return;
  measure_norm_inf();
  const std::vector<double>& b = mna_.rhs();
  RefineOutcome out = refine(b, xnew_, residual(b, xnew_));
  // Refinement could not fix the unscaled factorization: equilibrate,
  // refactorize, resolve, refine once more.
  if (out.diverged && !equilibrated_now_ &&
      refactor_equilibrated(b, xnew_, out, [this] { gather_values(); })) {
    factors_plain_ = false;
  }
  note_residual(out.residual);
}

size_t SolveWorkspace::measured_bytes() const {
  const size_t d = sizeof(double);
  return (mna_.matrix().size() + base_.matrix().size()) * d +
         (mna_.rhs().capacity() + base_.rhs().capacity() + xnew_.capacity() +
          zero_x_.x.capacity() + fvals_.capacity()) * d +
         flat_idx_.capacity() * sizeof(size_t) +
         lins_.capacity() * sizeof(Linearization) + ladder_bytes();
}

const KernelStats& SolveWorkspace::stats() { return audited_stats(measured_bytes()); }

// ---------------------------------------------------------------------------
// AcKernel

AcKernel::AcKernel(Circuit& ckt) : ckt_(&ckt), dim_((ckt.finalize(), ckt.dim())), mna_(dim_) {
  size_scratch(dim_);

  // Every shipped device's small-signal stamp is affine in w:
  //   A(w) = G + jwC with real G, C and a w-independent stimulus.
  // One stamp pass at w = 1 therefore yields G = Re(A), C = Im(A) on
  // every slot of the structural pattern the same pass records. The
  // SoA per-slot arrays let each frequency point assemble with one
  // contiguous O(nnz) loop.
  pattern_.reset(dim_);
  mna_.set_recorder(&pattern_);
  stamp_virtual(1.0);
  mna_.set_recorder(nullptr);
  pattern_.finalize();
  const size_t nnz = pattern_.nnz();
  gs_.resize(nnz);
  cs_.resize(nnz);
  vals_.resize(nnz);
  const std::vector<int>& rp = pattern_.row_ptr();
  const std::vector<int>& cols = pattern_.cols();
  const std::complex<double>* a = mna_.matrix().data();
  for (size_t r = 0; r < dim_; ++r) {
    for (int s = rp[r]; s < rp[r + 1]; ++s) {
      const size_t flat = r * dim_ + static_cast<size_t>(cols[s]);
      gs_[s] = a[flat].real();
      cs_[s] = a[flat].imag();
    }
  }
  rhs0_ = mna_.rhs();

  // Validate the split with a probe at w = 2. Doubling is exact in binary
  // floating point, so a conforming device matches bit-for-bit; the small
  // relative tolerance only buys headroom for a future device whose stamp
  // is affine up to rounding. Anything worse (w^2 terms, tables, a stamp
  // off the w = 1 pattern) cannot be swept by this kernel.
  stamp_virtual(2.0);
  const double scale = std::max(1.0, mna_.matrix().max_abs());
  const double tol = 1e-9 * scale;
  // Every entry is compared, so a stamp off the w = 1 pattern shows up
  // as a deviation from the predicted 0.
  bool exact = true;
  for (size_t r = 0; r < dim_ && exact; ++r) {
    int s = rp[r];
    for (size_t j = 0; j < dim_ && exact; ++j) {
      std::complex<double> predicted;
      if (s < rp[r + 1] && static_cast<size_t>(cols[s]) == j) {
        predicted = {gs_[s], 2.0 * cs_[s]};
        ++s;
      }
      exact = std::abs(a[r * dim_ + j] - predicted) <= tol;
    }
  }
  for (size_t i = 0; i < rhs0_.size() && exact; ++i) {
    exact = std::abs(mna_.rhs()[i] - rhs0_[i]) <= tol;
  }
  if (!exact) {
    throw NumericError("ac('" + ckt.title() +
                       "'): device stamps are not affine in omega "
                       "(A(w) != G + jwC)");
  }

  setup_bytes_ = measured_bytes();
  stats_.workspace_bytes = setup_bytes_;
}

AcKernel::~AcKernel() {
  if (KernelStats* sink = job_context().kernel_sink) sink->accumulate(stats());
}

void AcKernel::stamp_virtual(double omega) {
  mna_.clear();
  for (const auto& d : ckt_->devices()) d->stamp_ac(mna_, omega);
  // Tiny conductance to ground so capacitively floating nodes stay solvable.
  for (size_t i = 0; i < ckt_->num_nodes(); ++i) {
    mna_.add(static_cast<NodeId>(i), static_cast<NodeId>(i), kFloatingNodeGmin);
  }
}

void AcKernel::restore_values() {
  for (size_t s = 0; s < vals_.size(); ++s) {
    vals_[s] = std::complex<double>(gs_[s], last_omega_ * cs_[s]);
  }
}

void AcKernel::assemble(double omega) {
  // SoA slot assembly: a single flat loop the compiler can vectorize
  // across slots. The factorization consumes vals_; the stimulus rhs
  // stays available via mna().rhs().
  last_omega_ = omega;
  restore_values();
  std::copy(rhs0_.begin(), rhs0_.end(), mna_.rhs().begin());
  ++stats_.ac_points_fused;
}

void AcKernel::factorize() {
  health_ = NumericHealth{};
  refine_active_ = false;
  check_residual_ = false;
  const NumericHealthMode mode = job_context().health_mode;
  factor_values(mode, [this] { restore_values(); }, [this] { return measured_bytes(); });
  if (mode != NumericHealthMode::Off) post_factor_health(mode);
}

void AcKernel::post_factor_health(NumericHealthMode mode) {
  const double growth = slu_.pivot_growth();
  health_.pivot_growth = growth;
  // Auto mode: the unscaled proxy max|a| / min|u_kk| trips on healthy AC
  // matrices (G next to jwC spans many decades across rows), so the AC
  // condition trigger is the row-scaled proxy, which is at most 3.1e5
  // on every point of the Table 1 testbench sweeps. A tripped monitor
  // only arms a residual check on each solve; refinement runs when that
  // residual misses the target. Force keeps the full record below.
  if (mode == NumericHealthMode::Auto &&
      (growth > health::kPivotGrowthTrigger ||
       slu_.row_scaled_cond_proxy() > health::kCondTrigger)) {
    check_residual_ = true;
    measure_norm_inf();
  }
  if (mode == NumericHealthMode::Force) {
    estimate_condition();
    refine_active_ = true;
    measure_norm_inf();
  }
  record_health();
}

void AcKernel::solve_current(const std::vector<std::complex<double>>& rhs,
                             std::vector<std::complex<double>>& out) {
  solve_factored(rhs, out);
  ++stats_.solves;
  if (!refine_active_ && !check_residual_) return;
  // One residual measurement serves both policies: Force refines from
  // it unconditionally, Auto only when it misses the target.
  const double r0 = residual(rhs, out);
  if (refine_active_ || r0 > health::kResidualTarget) {
    note_residual(refine(rhs, out, r0).residual);
  } else {
    note_residual(r0);
  }
}

void AcKernel::solve_into(std::vector<std::complex<double>>& out) {
  factorize();
  solve_current(mna_.rhs(), out);
}

void AcKernel::solve_rhs(const std::vector<std::complex<double>>& rhs,
                         std::vector<std::complex<double>>& out) {
  solve_current(rhs, out);
}

size_t AcKernel::measured_bytes() const {
  const size_t z = sizeof(std::complex<double>);
  return (gs_.capacity() + cs_.capacity()) * sizeof(double) +
         (rhs0_.capacity() + mna_.rhs().capacity() + mna_.matrix().size()) * z +
         ladder_bytes();
}

const KernelStats& AcKernel::stats() { return audited_stats(measured_bytes()); }

}  // namespace ape::spice
