#include "src/spice/kernel.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "src/spice/fault.h"
#include "src/util/error.h"

namespace ape::spice {

bool wants_sparse(size_t dim, double density) {
  const KernelPolicy* policy = job_context().kernel_policy;
  return (policy != nullptr ? *policy : KernelPolicy{})
      .wants_sparse(dim, density);
}

// ---------------------------------------------------------------------------
// SolveWorkspace

SolveWorkspace::SolveWorkspace(Circuit& ckt)
    : ckt_(&ckt),
      dim_((ckt.finalize(), ckt.dim())),
      n_nodes_(ckt.num_nodes()),
      mna_(dim_),
      base_(dim_) {
  lu_.reserve(dim_);
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
  use_sparse_ = false;
  sparse_bytes_settled_ = false;
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
  use_sparse_ = wants_sparse(dim_, pattern_.density());
  if (use_sparse_) {
    flat_idx_.resize(pattern_.nnz());
    svals_.resize(pattern_.nnz());
    const std::vector<int>& rp = pattern_.row_ptr();
    const std::vector<int>& cols = pattern_.cols();
    for (size_t r = 0; r < dim_; ++r) {
      for (int s = rp[r]; s < rp[r + 1]; ++s) {
        flat_idx_[s] = r * dim_ + static_cast<size_t>(cols[s]);
      }
    }
  }
  frozen_ = true;
  // The capture / freeze machinery (pattern CSR arrays, gather buffers)
  // allocated between construction and this first solve; fold it into
  // the setup footprint so the regrowth audit only flags growth in the
  // steady-state Newton loop. The sparse factor storage settles
  // separately after the first symbolic factorization.
  setup_bytes_ = measured_bytes();
  stats_.workspace_bytes = setup_bytes_;
}

void SolveWorkspace::sync_sparse_stats() {
  const SparseLuStats& s = slu_.stats();
  stats_.symbolic_analyses = s.symbolic_analyses;
  stats_.symbolic_reuses = s.symbolic_reuses;
  stats_.numeric_refactors = s.numeric_refactors;
  stats_.sparse_nnz = s.nnz;
  stats_.sparse_fill_in = s.fill_in;
}

const std::vector<double>& SolveWorkspace::solve() {
  if (!frozen_) freeze_pattern();
  health_ = NumericHealth{};
  equilibrated_now_ = false;
  const NumericHealthMode mode = job_context().health_mode;
  if (use_sparse_) {
    const double* a = mna_.matrix().data();
    for (size_t s = 0; s < flat_idx_.size(); ++s) svals_[s] = a[flat_idx_[s]];
    bool factored = false;
    // Force mode (the supervisor's numeric-recovery rung) equilibrates
    // up front; otherwise equilibration is the rescue rung below.
    if (mode == NumericHealthMode::Force) try_equilibrate_sparse();
    try {
      slu_.factorize(pattern_, svals_);
      factored = true;
    } catch (const NumericError&) {
      if (mode != NumericHealthMode::Off && !equilibrated_now_ &&
          try_equilibrate_sparse()) {
        try {
          slu_.factorize(pattern_, svals_);
          factored = true;
          health_.recovered = true;
        } catch (const NumericError&) {
        }
      }
    }
    if (factored) {
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
      sync_sparse_stats();
      if (!sparse_bytes_settled_) {
        // The sparse buffers (symbolic program, factor storage) are
        // allocated during this first factorization — fold them into the
        // setup footprint so the regrowth audit only flags growth in the
        // steady-state (refactor/solve) loop.
        sparse_bytes_settled_ = true;
        setup_bytes_ = measured_bytes();
        stats_.workspace_bytes = setup_bytes_;
      }
      if (mode != NumericHealthMode::Off) run_health_checks(true, mode);
      record_health();
      return xnew_;
    }
    // Kernel-switch rung: stale pivot ordering (Newton moved the values)
    // or a system the scaled sparse refactor still could not pivot — the
    // dense solver below re-pivots from scratch and throws its own
    // NumericError if the system really is singular.
    ++stats_.sparse_fallbacks;
    sync_sparse_stats();
    equilibrated_now_ = false;
    health_.equilibrated = false;
    if (mode != NumericHealthMode::Off) health_.recovered = true;
  }
  if (mode == NumericHealthMode::Force && !equilibrated_now_) {
    try_equilibrate_dense();
  }
  try {
    factor_dense();
  } catch (const NumericError&) {
    // Equilibrate-and-refactorize rung for the dense path; rethrows the
    // singularity if scaling cannot save it (the Newton ladders above
    // then bump gmin / step the sources).
    if (mode == NumericHealthMode::Off || equilibrated_now_) throw;
    if (!try_equilibrate_dense()) throw;
    factor_dense();
    health_.recovered = true;
  }
  if (equilibrated_now_) {
    hwork_ = mna_.rhs();
    scale_vector(hwork_, row_scale_);
    lu_.solve_into(hwork_, xnew_);
    scale_vector(xnew_, col_scale_);
  } else {
    lu_.solve_into(mna_.rhs(), xnew_);
  }
  ++stats_.solves;
  if (mode != NumericHealthMode::Off) run_health_checks(false, mode);
  record_health();
  return xnew_;
}

bool SolveWorkspace::try_equilibrate_sparse() {
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_equilibrate()) return false;
  if (!compute_equilibration_csr(pattern_.row_ptr().data(),
                                 pattern_.cols().data(), svals_.data(), dim_,
                                 row_scale_, col_scale_)) {
    return false;
  }
  scale_csr(pattern_.row_ptr().data(), pattern_.cols().data(), svals_.data(),
            dim_, row_scale_, col_scale_);
  equilibrated_now_ = true;
  health_.equilibrated = true;
  return true;
}

bool SolveWorkspace::try_equilibrate_dense() {
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_equilibrate()) return false;
  if (!compute_equilibration(mna_.matrix().data(), dim_, row_scale_,
                             col_scale_)) {
    return false;
  }
  equilibrated_now_ = true;
  health_.equilibrated = true;
  return true;
}

void SolveWorkspace::factor_dense() {
  if (equilibrated_now_) {
    // Scale the stamped system in place (bit-exact powers of two),
    // factorize the scaled copy inside lu_, and restore the stamps
    // immediately — probes and residuals always see the original.
    scale_dense(mna_.matrix().data(), dim_, row_scale_, col_scale_);
    try {
      lu_.factorize(mna_.matrix());
    } catch (...) {
      unscale_dense(mna_.matrix().data(), dim_, row_scale_, col_scale_);
      equilibrated_now_ = false;
      health_.equilibrated = false;
      throw;
    }
    unscale_dense(mna_.matrix().data(), dim_, row_scale_, col_scale_);
  } else {
    lu_.factorize(mna_.matrix());
  }
  ++stats_.factorizations;
}

void SolveWorkspace::run_health_checks(bool sparse, NumericHealthMode mode) {
  const double growth = sparse ? slu_.pivot_growth() : lu_.pivot_growth();
  const double scale = sparse ? slu_.max_abs_scale() : lu_.max_abs_scale();
  const double min_piv = sparse ? slu_.min_pivot() : lu_.min_pivot();
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
          if (sparse) {
            slu_.solve_into(hwork_, v);
          } else {
            lu_.solve_into(hwork_, v);
          }
          if (equilibrated_now_) scale_vector(v, col_scale_);
        };
    const std::function<void(std::vector<double>&)> sol_t =
        [&](std::vector<double>& v) {
          // A^-T = R (RAC)^-T C.
          if (equilibrated_now_) scale_vector(v, col_scale_);
          hwork_ = v;
          if (sparse) {
            slu_.solve_transposed_into(hwork_, v);
          } else {
            lu_.solve_transposed_into(hwork_, v);
          }
          if (equilibrated_now_) scale_vector(v, row_scale_);
        };
    health_.cond_estimate = condest_1norm<double>(dim_, anorm1, sol, sol_t, hwork2_);
  }
  const bool refine = mode == NumericHealthMode::Force ||
                      growth > health::kPivotGrowthTrigger ||
                      !(health_.cond_estimate < health::kCondTrigger);
  if (refine) refine_current(sparse);
}

void SolveWorkspace::refine_current(bool sparse) {
  // The residual matvec runs against the dense mna_ storage — the
  // authoritative unscaled system on both paths (the sparse solve
  // gathers its values *from* it).
  const double anorm_inf = norm_inf_dense(mna_.matrix().data(), dim_);
  const std::function<void(const std::vector<double>&, std::vector<double>&)>
      matvec = [&](const std::vector<double>& v, std::vector<double>& y) {
        const double* a = mna_.matrix().data();
        y.resize(dim_);
        for (size_t i = 0; i < dim_; ++i) {
          double acc = 0.0;
          const double* row = a + i * dim_;
          for (size_t j = 0; j < dim_; ++j) acc += row[j] * v[j];
          y[i] = acc;
        }
      };
  const std::function<void(const std::vector<double>&, std::vector<double>&)>
      correct = [&](const std::vector<double>& r, std::vector<double>& d) {
        hwork_ = r;
        if (equilibrated_now_) scale_vector(hwork_, row_scale_);
        if (sparse) {
          slu_.solve_into(hwork_, d);
        } else {
          lu_.solve_into(hwork_, d);
        }
        if (equilibrated_now_) scale_vector(d, col_scale_);
      };
  FaultInjector* fi = job_context().fault_injector;
  RefineOutcome out;
  if (fi != nullptr && fi->on_refinement()) {
    // Injected divergence: keep the factored solution, measure its
    // residual, and escalate exactly like a real divergence below.
    out.residual = relative_residual<double>(mna_.rhs(), xnew_, matvec,
                                             anorm_inf, hresid_);
    out.diverged = true;
  } else {
    out = refine_solution<double>(mna_.rhs(), xnew_, matvec, correct,
                                  anorm_inf, hresid_, hdx_, hbest_);
  }
  ++stats_.refinement_solves;
  stats_.refinement_iterations += out.iterations;
  if (out.diverged && !equilibrated_now_) {
    // Escalation: refinement could not fix the unscaled factorization —
    // equilibrate, refactorize, resolve, refine once more.
    bool redone = false;
    if (sparse) {
      if (try_equilibrate_sparse()) {
        try {
          slu_.factorize(pattern_, svals_);
          hwork_ = mna_.rhs();
          scale_vector(hwork_, row_scale_);
          slu_.solve_into(hwork_, xnew_);
          scale_vector(xnew_, col_scale_);
          redone = true;
        } catch (const NumericError&) {
          equilibrated_now_ = false;
          health_.equilibrated = false;
        }
      }
    } else {
      if (try_equilibrate_dense()) {
        try {
          factor_dense();
          hwork_ = mna_.rhs();
          scale_vector(hwork_, row_scale_);
          lu_.solve_into(hwork_, xnew_);
          scale_vector(xnew_, col_scale_);
          redone = true;
        } catch (const NumericError&) {
          // factor_dense cleared the equilibration flags before rethrow.
        }
      }
    }
    if (redone) {
      health_.recovered = true;
      ++stats_.solves;
      const RefineOutcome again =
          refine_solution<double>(mna_.rhs(), xnew_, matvec, correct,
                                  anorm_inf, hresid_, hdx_, hbest_);
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
  return (mna_.matrix().size() + base_.matrix().size() + lu_.size() * lu_.size()) * d +
         (mna_.rhs().size() + base_.rhs().size() + xnew_.size() + zero_x_.x.size()) * d +
         lu_.size() * sizeof(size_t) + pattern_.memory_bytes() + slu_.memory_bytes() +
         svals_.capacity() * d + flat_idx_.capacity() * sizeof(size_t) +
         (row_scale_.capacity() + col_scale_.capacity() + col_sums_.capacity() +
          hresid_.capacity() + hdx_.capacity() + hbest_.capacity() +
          hwork_.capacity() + hwork2_.capacity()) * d;
}

const KernelStats& SolveWorkspace::stats() {
  const size_t now = measured_bytes();
  if (now != setup_bytes_) {
    ++stats_.workspace_regrowths;
    setup_bytes_ = now;
  }
  stats_.workspace_bytes = now;
  return stats_;
}

// ---------------------------------------------------------------------------
// AcKernel

AcKernel::AcKernel(Circuit& ckt) : ckt_(&ckt), dim_((ckt.finalize(), ckt.dim())), mna_(dim_) {
  lu_.reserve(dim_);
  g_.assign(dim_ * dim_, 0.0);
  c_.assign(dim_ * dim_, 0.0);
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
  // One stamp pass at w = 1 therefore yields G = Re(A), C = Im(A). The
  // same pass records the structural slot pattern for the sparse path.
  pattern_.reset(dim_);
  mna_.set_recorder(&pattern_);
  stamp_virtual(1.0);
  mna_.set_recorder(nullptr);
  pattern_.finalize();
  const std::complex<double>* a = mna_.matrix().data();
  for (size_t i = 0; i < g_.size(); ++i) {
    g_[i] = a[i].real();
    c_[i] = a[i].imag();
  }
  rhs0_ = mna_.rhs();

  // Validate the split with a probe at w = 2. Doubling is exact in binary
  // floating point, so a conforming device matches bit-for-bit; the small
  // relative tolerance only buys headroom for a future device whose stamp
  // is affine up to rounding. Anything worse (w^2 terms, tables, ...)
  // disables the fused path in favor of per-point virtual stamping.
  stamp_virtual(2.0);
  const double scale = std::max(1.0, mna_.matrix().max_abs());
  const double tol = 1e-9 * scale;
  for (size_t i = 0; i < g_.size() && exact_split_; ++i) {
    const std::complex<double> predicted(g_[i], 2.0 * c_[i]);
    if (std::abs(a[i] - predicted) > tol) exact_split_ = false;
  }
  for (size_t i = 0; i < rhs0_.size() && exact_split_; ++i) {
    if (std::abs(mna_.rhs()[i] - rhs0_[i]) > tol) exact_split_ = false;
  }

  // Sparse sweep path: only meaningful with a validated split (the
  // virtual-restamp fallback rebuilds the dense matrix anyway). Gather
  // the per-slot SoA G / C arrays so each frequency point assembles with
  // one contiguous O(nnz) loop.
  use_sparse_ = exact_split_ && wants_sparse(dim_, pattern_.density());
  if (use_sparse_) {
    const size_t nnz = pattern_.nnz();
    gs_.resize(nnz);
    cs_.resize(nnz);
    avals_.resize(nnz);
    const std::vector<int>& rp = pattern_.row_ptr();
    const std::vector<int>& cols = pattern_.cols();
    for (size_t r = 0; r < dim_; ++r) {
      for (int s = rp[r]; s < rp[r + 1]; ++s) {
        const size_t flat = r * dim_ + static_cast<size_t>(cols[s]);
        gs_[s] = g_[flat];
        cs_[s] = c_[flat];
      }
    }
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

void AcKernel::assemble_dense(double omega) {
  std::complex<double>* a = mna_.matrix().data();
  for (size_t i = 0; i < g_.size(); ++i) {
    a[i] = std::complex<double>(g_[i], omega * c_[i]);
  }
}

void AcKernel::assemble(double omega) {
  last_omega_ = omega;
  if (use_sparse_) {
    // SoA slot assembly: O(nnz) instead of the O(n^2) dense fill, and a
    // single flat loop the compiler can vectorize across slots. The
    // dense mna_ matrix is deliberately left stale — the factorization
    // consumes avals_; the stimulus rhs stays available via mna().rhs().
    for (size_t s = 0; s < avals_.size(); ++s) {
      avals_[s] = std::complex<double>(gs_[s], omega * cs_[s]);
    }
    std::copy(rhs0_.begin(), rhs0_.end(), mna_.rhs().begin());
    ++stats_.ac_points_fused;
  } else if (exact_split_) {
    assemble_dense(omega);
    std::copy(rhs0_.begin(), rhs0_.end(), mna_.rhs().begin());
    ++stats_.ac_points_fused;
  } else {
    stamp_virtual(omega);
    ++stats_.ac_points_virtual;
  }
}

void AcKernel::factorize() {
  health_ = NumericHealth{};
  equilibrated_now_ = false;
  refine_active_ = false;
  const NumericHealthMode mode = job_context().health_mode;
  if (use_sparse_) {
    bool factored = false;
    if (mode == NumericHealthMode::Force) try_equilibrate_sparse();
    try {
      slu_.factorize(pattern_, avals_);
      factored = true;
    } catch (const NumericError&) {
      // Equilibrate-and-refactorize rung before abandoning the sparse
      // path for this point.
      if (mode != NumericHealthMode::Off && !equilibrated_now_ &&
          try_equilibrate_sparse()) {
        try {
          slu_.factorize(pattern_, avals_);
          factored = true;
          health_.recovered = true;
        } catch (const NumericError&) {
        }
      }
    }
    if (factored) {
      sparse_live_ = true;
      if (equilibrated_now_) {
        // The factors hold RAC; restore the original slot values so
        // residual matvecs and norms see A itself.
        for (size_t s = 0; s < avals_.size(); ++s) {
          avals_[s] = std::complex<double>(gs_[s], last_omega_ * cs_[s]);
        }
      }
      const SparseLuStats& s = slu_.stats();
      stats_.symbolic_analyses = s.symbolic_analyses;
      stats_.symbolic_reuses = s.symbolic_reuses;
      stats_.numeric_refactors = s.numeric_refactors;
      stats_.sparse_nnz = s.nnz;
      stats_.sparse_fill_in = s.fill_in;
      if (!sparse_bytes_settled_) {
        // First symbolic factorization allocated the program + factor
        // storage; fold it into the setup footprint so the regrowth
        // audit only flags growth in the steady-state sweep loop.
        sparse_bytes_settled_ = true;
        setup_bytes_ = measured_bytes();
        stats_.workspace_bytes = setup_bytes_;
      }
      if (mode != NumericHealthMode::Off) post_factor_health(mode);
      return;
    }
    // Kernel-switch rung (dense rescue): rebuild the dense system for
    // this point and re-pivot from scratch (throws if genuinely singular).
    ++stats_.sparse_fallbacks;
    sparse_live_ = false;
    assemble_dense(last_omega_);
    equilibrated_now_ = false;
    health_.equilibrated = false;
    if (mode != NumericHealthMode::Off) health_.recovered = true;
  }
  if (mode == NumericHealthMode::Force && !equilibrated_now_) {
    try_equilibrate_dense();
  }
  try {
    factor_dense();
  } catch (const NumericError&) {
    if (mode == NumericHealthMode::Off || equilibrated_now_) throw;
    if (!try_equilibrate_dense()) throw;
    factor_dense();
    health_.recovered = true;
  }
  if (mode != NumericHealthMode::Off) post_factor_health(mode);
}

bool AcKernel::try_equilibrate_sparse() {
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_equilibrate()) return false;
  if (!compute_equilibration_csr(pattern_.row_ptr().data(),
                                 pattern_.cols().data(), avals_.data(), dim_,
                                 row_scale_, col_scale_)) {
    return false;
  }
  scale_csr(pattern_.row_ptr().data(), pattern_.cols().data(), avals_.data(),
            dim_, row_scale_, col_scale_);
  equilibrated_now_ = true;
  health_.equilibrated = true;
  return true;
}

bool AcKernel::try_equilibrate_dense() {
  FaultInjector* fi = job_context().fault_injector;
  if (fi != nullptr && fi->on_equilibrate()) return false;
  if (!compute_equilibration(mna_.matrix().data(), dim_, row_scale_,
                             col_scale_)) {
    return false;
  }
  equilibrated_now_ = true;
  health_.equilibrated = true;
  return true;
}

void AcKernel::factor_dense() {
  if (equilibrated_now_) {
    scale_dense(mna_.matrix().data(), dim_, row_scale_, col_scale_);
    try {
      lu_.factorize(mna_.matrix());
    } catch (...) {
      unscale_dense(mna_.matrix().data(), dim_, row_scale_, col_scale_);
      equilibrated_now_ = false;
      health_.equilibrated = false;
      throw;
    }
    unscale_dense(mna_.matrix().data(), dim_, row_scale_, col_scale_);
  } else {
    lu_.factorize(mna_.matrix());
  }
  ++stats_.factorizations;
}

void AcKernel::post_factor_health(NumericHealthMode mode) {
  const double growth = sparse_live_ ? slu_.pivot_growth() : lu_.pivot_growth();
  const double scale = sparse_live_ ? slu_.max_abs_scale() : lu_.max_abs_scale();
  const double min_piv = sparse_live_ ? slu_.min_pivot() : lu_.min_pivot();
  health_.pivot_growth = growth;
  const double cond_proxy = min_piv > 0.0 ? scale / min_piv : 0.0;
  const bool suspect = growth > health::kPivotGrowthTrigger ||
                       cond_proxy > health::kCondTrigger;
  if (mode == NumericHealthMode::Force || suspect) {
    FaultInjector* fi = job_context().fault_injector;
    if (fi != nullptr && fi->on_cond_estimate()) {
      health_.cond_estimate = std::numeric_limits<double>::infinity();
    } else {
      const double anorm1 =
          sparse_live_
              ? norm1_csr(pattern_.row_ptr().data(), pattern_.cols().data(),
                          avals_.data(), dim_, col_sums_)
              : norm1_dense(mna_.matrix().data(), dim_, col_sums_);
      using CVec = std::vector<std::complex<double>>;
      const std::function<void(CVec&)> sol = [&](CVec& v) {
        if (equilibrated_now_) scale_vector(v, row_scale_);
        cwork_ = v;
        if (sparse_live_) {
          slu_.solve_into(cwork_, v);
        } else {
          lu_.solve_into(cwork_, v);
        }
        if (equilibrated_now_) scale_vector(v, col_scale_);
      };
      const std::function<void(CVec&)> sol_t = [&](CVec& v) {
        if (equilibrated_now_) scale_vector(v, col_scale_);
        cwork_ = v;
        if (sparse_live_) {
          slu_.solve_transposed_into(cwork_, v);
        } else {
          lu_.solve_transposed_into(cwork_, v);
        }
        if (equilibrated_now_) scale_vector(v, row_scale_);
      };
      health_.cond_estimate =
          condest_1norm<std::complex<double>>(dim_, anorm1, sol, sol_t, cwork2_);
    }
    refine_active_ = mode == NumericHealthMode::Force ||
                     growth > health::kPivotGrowthTrigger ||
                     !(health_.cond_estimate < health::kCondTrigger);
    if (refine_active_) {
      anorm_inf_ =
          sparse_live_
              ? norm_inf_csr(pattern_.row_ptr().data(), avals_.data(), dim_)
              : norm_inf_dense(mna_.matrix().data(), dim_);
    }
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

void AcKernel::matvec_current(const std::vector<std::complex<double>>& v,
                              std::vector<std::complex<double>>& y) const {
  y.resize(dim_);
  if (sparse_live_) {
    const std::vector<int>& rp = pattern_.row_ptr();
    const std::vector<int>& cols = pattern_.cols();
    for (size_t i = 0; i < dim_; ++i) {
      std::complex<double> acc;
      for (int s = rp[i]; s < rp[i + 1]; ++s) acc += avals_[s] * v[cols[s]];
      y[i] = acc;
    }
  } else {
    const std::complex<double>* a = mna_.matrix().data();
    for (size_t i = 0; i < dim_; ++i) {
      std::complex<double> acc;
      const std::complex<double>* row = a + i * dim_;
      for (size_t j = 0; j < dim_; ++j) acc += row[j] * v[j];
      y[i] = acc;
    }
  }
}

void AcKernel::refine_in_place(const std::vector<std::complex<double>>& rhs,
                               std::vector<std::complex<double>>& x) {
  using CVec = std::vector<std::complex<double>>;
  const std::function<void(const CVec&, CVec&)> matvec =
      [this](const CVec& v, CVec& y) { matvec_current(v, y); };
  const std::function<void(const CVec&, CVec&)> correct = [&](const CVec& r,
                                                              CVec& d) {
    cwork_ = r;
    if (equilibrated_now_) scale_vector(cwork_, row_scale_);
    if (sparse_live_) {
      slu_.solve_into(cwork_, d);
    } else {
      lu_.solve_into(cwork_, d);
    }
    if (equilibrated_now_) scale_vector(d, col_scale_);
  };
  FaultInjector* fi = job_context().fault_injector;
  RefineOutcome out;
  if (fi != nullptr && fi->on_refinement()) {
    // Injected divergence: keep the factored solution (its residual is
    // still measured and surfaced); the AC sweep has no further rung —
    // the dense rescue already ran at factorization time.
    out.residual = relative_residual<std::complex<double>>(rhs, x, matvec,
                                                           anorm_inf_, cresid_);
    out.diverged = true;
  } else {
    out = refine_solution<std::complex<double>>(rhs, x, matvec, correct,
                                                anorm_inf_, cresid_, cdx_,
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
    if (sparse_live_) {
      slu_.solve_into(cwork_, out);
    } else {
      lu_.solve_into(cwork_, out);
    }
    scale_vector(out, col_scale_);
  } else if (sparse_live_) {
    slu_.solve_into(rhs, out);
  } else {
    lu_.solve_into(rhs, out);
  }
  ++stats_.solves;
  if (refine_active_) refine_in_place(rhs, out);
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
  return (g_.size() + c_.size() + gs_.capacity() + cs_.capacity()) * sizeof(double) +
         (rhs0_.size() + mna_.rhs().size() + avals_.capacity()) * z +
         (mna_.matrix().size() + lu_.size() * lu_.size()) * z + lu_.size() * sizeof(size_t) +
         pattern_.memory_bytes() + slu_.memory_bytes() +
         (row_scale_.capacity() + col_scale_.capacity() + col_sums_.capacity()) * sizeof(double) +
         (cresid_.capacity() + cdx_.capacity() + cbest_.capacity() +
          cwork_.capacity() + cwork2_.capacity()) * z;
}

const KernelStats& AcKernel::stats() {
  const size_t now = measured_bytes();
  if (now != setup_bytes_) {
    ++stats_.workspace_regrowths;
    setup_bytes_ = now;
  }
  stats_.workspace_bytes = now;
  return stats_;
}

}  // namespace ape::spice
