#include "src/spice/fault.h"

#include <chrono>
#include <limits>
#include <thread>

#include "src/util/error.h"

namespace ape::spice {

bool FaultInjector::on_lu_solve() {
  const long ordinal = counts_.lu_solves++;
  bool fail = lu_fail_first_ >= 0 && ordinal >= lu_fail_first_ &&
              ordinal - lu_fail_first_ < lu_fail_count_;
  if (!fail && lu_fail_prob_ > 0.0 && rng_.uniform() < lu_fail_prob_) {
    fail = true;
  }
  if (fail) ++counts_.injected_singular;
  return fail;
}

bool FaultInjector::on_assembly(MnaReal& mna) {
  const long ordinal = counts_.assemblies++;
  if (poison_first_ < 0 || ordinal < poison_first_ ||
      ordinal - poison_first_ >= poison_count_) {
    return false;
  }
  // Poison a diagonal entry: NaN propagates through the factorization
  // into a fully non-finite solution, the hazard the solvers must catch.
  mna.matrix()(0, 0) = std::numeric_limits<double>::quiet_NaN();
  ++counts_.injected_nonfinite;
  return true;
}

bool FaultInjector::on_dc_convergence(double gmin, double src_scale) {
  if (veto_gmin_left_ <= 0 || src_scale != 1.0) return false;
  // Match the rung with a relative tolerance: rungs are decade-spaced.
  if (gmin <= 0.0 || veto_gmin_ <= 0.0) return false;
  const double ratio = gmin / veto_gmin_;
  if (ratio < 0.99 || ratio > 1.01) return false;
  --veto_gmin_left_;
  ++counts_.injected_vetoes;
  return true;
}

bool FaultInjector::on_seeded_convergence() {
  if (veto_seeded_left_ <= 0) return false;
  --veto_seeded_left_;
  ++counts_.injected_vetoes;
  return true;
}

bool FaultInjector::on_transient_step() {
  ++counts_.tran_steps;
  if (tran_stall_s_ > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(tran_stall_s_));
  }
  if (veto_tran_left_ <= 0) return false;
  --veto_tran_left_;
  ++counts_.injected_vetoes;
  return true;
}

bool FaultInjector::on_refinement() {
  const long ordinal = counts_.refinements++;
  const bool fail = refine_fail_first_ >= 0 && ordinal >= refine_fail_first_ &&
                    ordinal - refine_fail_first_ < refine_fail_count_;
  if (fail) ++counts_.injected_refine_diverge;
  return fail;
}

bool FaultInjector::on_equilibrate() {
  const long ordinal = counts_.equilibrations++;
  const bool fail = equil_fail_first_ >= 0 && ordinal >= equil_fail_first_ &&
                    ordinal - equil_fail_first_ < equil_fail_count_;
  if (fail) ++counts_.injected_equilibrate_overflow;
  return fail;
}

bool FaultInjector::on_cond_estimate() {
  const long ordinal = counts_.cond_estimates++;
  const bool fail = cond_fail_first_ >= 0 && ordinal >= cond_fail_first_ &&
                    ordinal - cond_fail_first_ < cond_fail_count_;
  if (fail) ++counts_.injected_cond_fails;
  return fail;
}

void FaultInjector::on_cost_eval() {
  const long ordinal = ++counts_.cost_evals;
  if (spec_error_period_ > 0 && ordinal % spec_error_period_ == 0) {
    ++counts_.injected_spec_errors;
    throw SpecError("fault injection: estimator SpecError at cost evaluation " +
                    std::to_string(ordinal));
  }
}

}  // namespace ape::spice
