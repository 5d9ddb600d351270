#include "src/spice/kernel.h"

#include <algorithm>
#include <cmath>
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
template <typename Reset, typename Measure>
void FactorLadder<T>::factor_values(std::vector<T>& vals, NumericHealthMode mode,
                                    const Reset& reset, const Measure& measure) {
  // One rung: factorize (replay, or a fresh order when `reorder`);
  // Force mode equilibrates up front, otherwise equilibration is the
  // retry when a pivot collapses.
  const auto rung = [&](bool reorder) {
    const auto factor = [&] {
      if (reorder) {
        slu_.reorder(pattern_, vals);
      } else {
        slu_.factorize(pattern_, vals);
      }
    };
    if (mode == NumericHealthMode::Force) try_equilibrate(vals);
    try {
      factor();
    } catch (const NumericError&) {
      if (mode == NumericHealthMode::Off || equilibrated_now_ || !try_equilibrate(vals)) {
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
bool FactorLadder<T>::try_equilibrate(std::vector<T>& vals) {
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_equilibrate()) return false;
  const int* rp = pattern_.row_ptr().data();
  const int* cols = pattern_.cols().data();
  if (!compute_equilibration_csr(rp, cols, vals.data(), pattern_.n(), row_scale_,
                                 col_scale_)) {
    return false;
  }
  scale_csr(rp, cols, vals.data(), pattern_.n(), row_scale_, col_scale_);
  equilibrated_now_ = true;
  health_.equilibrated = true;
  return true;
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
  row_scale_.assign(dim_, 1.0);
  col_scale_.assign(dim_, 1.0);
  col_sums_.assign(dim_, 0.0);
  hresid_.assign(dim_, 0.0);
  hdx_.assign(dim_, 0.0);
  hbest_.assign(dim_, 0.0);
  hwork_.assign(dim_, 0.0);
  hwork2_.assign(dim_, 0.0);
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
  for (const Device* d : ckt_->nonlinear_devices()) d->stamp_tran(mna_, x, tc);
  stats_.nonlinear_stamps += static_cast<long>(ckt_->nonlinear_devices().size());
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
  svals_.resize(pattern_.nnz());
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
  for (size_t s = 0; s < flat_idx_.size(); ++s) svals_[s] = a[flat_idx_[s]];
}

const std::vector<double>& SolveWorkspace::solve() {
  if (!frozen_) freeze_pattern();
  health_ = NumericHealth{};
  const NumericHealthMode mode = job_context().health_mode;
  gather_values();
  factor_values(svals_, mode, [this] { gather_values(); },
                [this] { return measured_bytes(); });
  if (equilibrated_now_) {
    // The factors hold RAC: solve (RAC) y = R b, then x = C y.
    hwork_ = mna_.rhs();
    scale_vector(hwork_, row_scale_);
    slu_.solve_into(hwork_, xnew_);
    scale_vector(xnew_, col_scale_);
  } else {
    slu_.solve_into(mna_.rhs(), xnew_);
  }
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
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_cond_estimate()) {
    health_.cond_estimate = std::numeric_limits<double>::infinity();
  } else {
    const double anorm1 = norm1_dense(mna_.matrix().data(), dim_, col_sums_);
    const std::function<void(std::vector<double>&)> sol =
        [&](std::vector<double>& v) {
          // A^-1 = C (RAC)^-1 R around the live (possibly scaled) factors.
          if (equilibrated_now_) scale_vector(v, row_scale_);
          hwork_ = v;
          slu_.solve_into(hwork_, v);
          if (equilibrated_now_) scale_vector(v, col_scale_);
        };
    const std::function<void(std::vector<double>&)> sol_t =
        [&](std::vector<double>& v) {
          // A^-T = R (RAC)^-T C.
          if (equilibrated_now_) scale_vector(v, col_scale_);
          hwork_ = v;
          slu_.solve_transposed_into(hwork_, v);
          if (equilibrated_now_) scale_vector(v, row_scale_);
        };
    health_.cond_estimate = condest_1norm<double>(dim_, anorm1, sol, sol_t, hwork2_);
  }
  const bool refine = mode == NumericHealthMode::Force ||
                      growth > health::kPivotGrowthTrigger ||
                      !(health_.cond_estimate < health::kCondTrigger);
  if (refine) refine_current();
}

void SolveWorkspace::refine_current() {
  // The residual matvec runs against the dense mna_ storage — the
  // authoritative unscaled system (the solve gathers its values *from*
  // it).
  const double anorm_inf = norm_inf_dense(mna_.matrix().data(), dim_);
  const auto matvec = [&](const std::vector<double>& v, std::vector<double>& y) {
    const double* a = mna_.matrix().data();
    y.resize(dim_);
    for (size_t i = 0; i < dim_; ++i) {
      double acc = 0.0;
      const double* row = a + i * dim_;
      for (size_t j = 0; j < dim_; ++j) acc += row[j] * v[j];
      y[i] = acc;
    }
  };
  const auto correct = [&](const std::vector<double>& r, std::vector<double>& d) {
    hwork_ = r;
    if (equilibrated_now_) scale_vector(hwork_, row_scale_);
    slu_.solve_into(hwork_, d);
    if (equilibrated_now_) scale_vector(d, col_scale_);
  };
  FaultInjector* fi = job_context().fault_injector;
  RefineOutcome out;
  if (fi != nullptr && fi->on_refinement()) {
    // Injected divergence: keep the factored solution, measure its
    // residual, and escalate exactly like a real divergence below.
    out.residual =
        relative_residual(mna_.rhs(), xnew_, matvec, anorm_inf, hresid_);
    out.diverged = true;
  } else {
    out = refine_solution(mna_.rhs(), xnew_, matvec, correct, anorm_inf,
                          hresid_, hdx_, hbest_);
  }
  ++stats_.refinement_solves;
  stats_.refinement_iterations += out.iterations;
  if (out.diverged && !equilibrated_now_ && try_equilibrate(svals_)) {
    // Escalation: refinement could not fix the unscaled factorization —
    // equilibrate, refactorize, resolve, refine once more.
    bool redone = false;
    try {
      slu_.factorize(pattern_, svals_);
      ++stats_.factorizations;
      hwork_ = mna_.rhs();
      scale_vector(hwork_, row_scale_);
      slu_.solve_into(hwork_, xnew_);
      scale_vector(xnew_, col_scale_);
      redone = true;
    } catch (const NumericError&) {
      equilibrated_now_ = false;
      health_.equilibrated = false;
    }
    if (redone) {
      health_.recovered = true;
      ++stats_.solves;
      const RefineOutcome again = refine_solution(
          mna_.rhs(), xnew_, matvec, correct, anorm_inf, hresid_, hdx_, hbest_);
      stats_.refinement_iterations += again.iterations;
      out.residual = again.residual;
      out.iterations += again.iterations;
    }
  }
  health_.residual_norm = out.residual;
  health_.refinement_iterations = out.iterations;
}

void SolveWorkspace::record_health() {
  if (health_.pivot_growth > stats_.pivot_growth_max) {
    stats_.pivot_growth_max = health_.pivot_growth;
  }
  if (health_.cond_estimate > stats_.cond_estimate_max) {
    stats_.cond_estimate_max = health_.cond_estimate;
  }
  if (health_.residual_norm > stats_.residual_norm_max) {
    stats_.residual_norm_max = health_.residual_norm;
  }
  if (health_.equilibrated) ++stats_.equilibrated_solves;
  if (health_.recovered) ++stats_.numeric_recoveries;
}

size_t SolveWorkspace::measured_bytes() const {
  const size_t d = sizeof(double);
  return (mna_.matrix().size() + base_.matrix().size()) * d +
         (mna_.rhs().capacity() + base_.rhs().capacity() + xnew_.capacity() +
          zero_x_.x.capacity()) * d +
         pattern_.memory_bytes() + slu_.memory_bytes() +
         svals_.capacity() * d + flat_idx_.capacity() * sizeof(size_t) +
         (row_scale_.capacity() + col_scale_.capacity() + col_sums_.capacity() +
          hresid_.capacity() + hdx_.capacity() + hbest_.capacity() +
          hwork_.capacity() + hwork2_.capacity()) * d;
}

const KernelStats& SolveWorkspace::stats() { return audited_stats(measured_bytes()); }

// ---------------------------------------------------------------------------
// AcKernel

AcKernel::AcKernel(Circuit& ckt) : ckt_(&ckt), dim_((ckt.finalize(), ckt.dim())), mna_(dim_) {
  row_scale_.assign(dim_, 1.0);
  col_scale_.assign(dim_, 1.0);
  col_sums_.assign(dim_, 0.0);
  cresid_.assign(dim_, {});
  cdx_.assign(dim_, {});
  cbest_.assign(dim_, {});
  cwork_.assign(dim_, {});
  cwork2_.assign(dim_, {});

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
  avals_.resize(nnz);
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
  for (size_t s = 0; s < avals_.size(); ++s) {
    avals_[s] = std::complex<double>(gs_[s], last_omega_ * cs_[s]);
  }
}

void AcKernel::assemble(double omega) {
  // SoA slot assembly: a single flat loop the compiler can vectorize
  // across slots. The factorization consumes avals_; the stimulus rhs
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
  factor_values(avals_, mode, [this] { restore_values(); },
                [this] { return measured_bytes(); });
  // The factors may hold RAC; restore the original slot values so
  // residual matvecs and norms see A itself.
  if (equilibrated_now_) restore_values();
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
    anorm_inf_ = norm_inf_current();
  }
  if (mode == NumericHealthMode::Force) {
    FaultInjector* fi = job_context().fault_injector;
    if (fi != nullptr && fi->on_cond_estimate()) {
      health_.cond_estimate = std::numeric_limits<double>::infinity();
    } else {
      const double anorm1 = norm1_csr(pattern_.row_ptr().data(),
                                      pattern_.cols().data(), avals_.data(),
                                      dim_, col_sums_);
      using CVec = std::vector<std::complex<double>>;
      const std::function<void(CVec&)> sol = [&](CVec& v) {
        if (equilibrated_now_) scale_vector(v, row_scale_);
        cwork_ = v;
        slu_.solve_into(cwork_, v);
        if (equilibrated_now_) scale_vector(v, col_scale_);
      };
      const std::function<void(CVec&)> sol_t = [&](CVec& v) {
        if (equilibrated_now_) scale_vector(v, col_scale_);
        cwork_ = v;
        slu_.solve_transposed_into(cwork_, v);
        if (equilibrated_now_) scale_vector(v, row_scale_);
      };
      health_.cond_estimate =
          condest_1norm<std::complex<double>>(dim_, anorm1, sol, sol_t, cwork2_);
    }
    refine_active_ = true;
    anorm_inf_ = norm_inf_current();
  }
  if (health_.pivot_growth > stats_.pivot_growth_max) {
    stats_.pivot_growth_max = health_.pivot_growth;
  }
  if (health_.cond_estimate > stats_.cond_estimate_max) {
    stats_.cond_estimate_max = health_.cond_estimate;
  }
  if (health_.equilibrated) ++stats_.equilibrated_solves;
  if (health_.recovered) ++stats_.numeric_recoveries;
}

double AcKernel::norm_inf_current() const {
  return norm_inf_csr(pattern_.row_ptr().data(), avals_.data(), dim_);
}

void AcKernel::matvec_current(const std::vector<std::complex<double>>& v,
                              std::vector<std::complex<double>>& y) const {
  y.resize(dim_);
  const std::vector<int>& rp = pattern_.row_ptr();
  const std::vector<int>& cols = pattern_.cols();
  for (size_t i = 0; i < dim_; ++i) {
    std::complex<double> acc;
    for (int s = rp[i]; s < rp[i + 1]; ++s) acc += avals_[s] * v[cols[s]];
    y[i] = acc;
  }
}

void AcKernel::refine_in_place(const std::vector<std::complex<double>>& rhs,
                               std::vector<std::complex<double>>& x,
                               double r0) {
  using CVec = std::vector<std::complex<double>>;
  const auto matvec = [this](const CVec& v, CVec& y) { matvec_current(v, y); };
  const auto correct = [&](const CVec& r, CVec& d) {
    cwork_ = r;
    if (equilibrated_now_) scale_vector(cwork_, row_scale_);
    slu_.solve_into(cwork_, d);
    if (equilibrated_now_) scale_vector(d, col_scale_);
  };
  FaultInjector* fi = job_context().fault_injector;
  RefineOutcome out;
  if (fi != nullptr && fi->on_refinement()) {
    // Injected divergence: keep the factored solution (its residual is
    // still measured and surfaced); the AC sweep has no further rung —
    // the re-order rung already ran at factorization time if needed.
    out.residual = r0;
    out.diverged = true;
  } else {
    out = refine_from(r0, rhs, x, matvec, correct, anorm_inf_, cresid_, cdx_,
                      cbest_);
  }
  ++stats_.refinement_solves;
  stats_.refinement_iterations += out.iterations;
  health_.refinement_iterations += out.iterations;
  if (out.residual > health_.residual_norm) health_.residual_norm = out.residual;
  if (out.residual > stats_.residual_norm_max) {
    stats_.residual_norm_max = out.residual;
  }
}

void AcKernel::solve_current(const std::vector<std::complex<double>>& rhs,
                             std::vector<std::complex<double>>& out) {
  if (equilibrated_now_) {
    cwork_ = rhs;
    scale_vector(cwork_, row_scale_);
    slu_.solve_into(cwork_, out);
    scale_vector(out, col_scale_);
  } else {
    slu_.solve_into(rhs, out);
  }
  ++stats_.solves;
  if (!refine_active_ && !check_residual_) return;
  // One residual measurement serves both policies: Force refines from
  // it unconditionally, Auto only when it misses the target.
  const double r0 = relative_residual(
      rhs, out,
      [this](const std::vector<std::complex<double>>& v,
             std::vector<std::complex<double>>& y) { matvec_current(v, y); },
      anorm_inf_, cresid_);
  if (refine_active_ || r0 > health::kResidualTarget) {
    refine_in_place(rhs, out, r0);
    return;
  }
  if (r0 > health_.residual_norm) health_.residual_norm = r0;
  if (r0 > stats_.residual_norm_max) stats_.residual_norm_max = r0;
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
         (rhs0_.capacity() + mna_.rhs().capacity() + avals_.capacity()) * z +
         mna_.matrix().size() * z + pattern_.memory_bytes() + slu_.memory_bytes() +
         (row_scale_.capacity() + col_scale_.capacity() + col_sums_.capacity()) * sizeof(double) +
         (cresid_.capacity() + cdx_.capacity() + cbest_.capacity() +
          cwork_.capacity() + cwork2_.capacity()) * z;
}

const KernelStats& AcKernel::stats() { return audited_stats(measured_bytes()); }

}  // namespace ape::spice
