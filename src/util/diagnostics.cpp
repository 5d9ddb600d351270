#include "src/util/diagnostics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "src/util/units.h"

namespace ape {
namespace {

/// The per-thread provenance stack. A plain vector of strings: scopes
/// are short-lived and shallow (a handful of frames), so no cleverness.
std::vector<std::string>& context_stack() {
  static thread_local std::vector<std::string> stack;
  return stack;
}

/// The per-thread ambient job budget / solver relaxation / kernel stats
/// sink / numeric-health mode slots (see the THREAD-SAFETY RULE in
/// diagnostics.h: these are four of the seven sanctioned thread_local
/// instances).
thread_local const RunBudget* g_ambient_budget = nullptr;
thread_local const SolverRelaxation* g_ambient_relaxation = nullptr;
thread_local KernelStats* g_ambient_kernel_sink = nullptr;
thread_local NumericHealthMode g_ambient_health_mode = NumericHealthMode::Auto;

}  // namespace

std::string annotate_with_context(const std::string& what) {
  const auto& stack = context_stack();
  if (stack.empty()) return what;
  std::string out = "[";
  for (size_t i = 0; i < stack.size(); ++i) {
    if (i != 0) out += " -> ";
    out += stack[i];
  }
  out += "] ";
  out += what;
  return out;
}

ErrorContext::ErrorContext(std::string frame) {
  context_stack().push_back(std::move(frame));
}

ErrorContext::~ErrorContext() { context_stack().pop_back(); }

std::string ErrorContext::chain() {
  const auto& stack = context_stack();
  std::string out;
  for (size_t i = 0; i < stack.size(); ++i) {
    if (i != 0) out += " -> ";
    out += stack[i];
  }
  return out;
}

size_t ErrorContext::depth() { return context_stack().size(); }

// ---------------------------------------------------------------------------

void KernelStats::accumulate(const KernelStats& o) {
  baseline_builds += o.baseline_builds;
  baseline_restores += o.baseline_restores;
  linear_stamps_skipped += o.linear_stamps_skipped;
  nonlinear_stamps += o.nonlinear_stamps;
  factorizations += o.factorizations;
  solves += o.solves;
  ac_points_fused += o.ac_points_fused;
  ac_points_virtual += o.ac_points_virtual;
  workspace_bytes = std::max(workspace_bytes, o.workspace_bytes);
  workspace_regrowths += o.workspace_regrowths;
  symbolic_analyses += o.symbolic_analyses;
  symbolic_reuses += o.symbolic_reuses;
  numeric_refactors += o.numeric_refactors;
  sparse_fallbacks += o.sparse_fallbacks;
  sparse_nnz = std::max(sparse_nnz, o.sparse_nnz);
  sparse_fill_in = std::max(sparse_fill_in, o.sparse_fill_in);
  refinement_solves += o.refinement_solves;
  refinement_iterations += o.refinement_iterations;
  equilibrated_solves += o.equilibrated_solves;
  numeric_recoveries += o.numeric_recoveries;
  cond_estimate_max = std::max(cond_estimate_max, o.cond_estimate_max);
  pivot_growth_max = std::max(pivot_growth_max, o.pivot_growth_max);
  residual_norm_max = std::max(residual_norm_max, o.residual_norm_max);
}

std::string KernelStats::summary() const {
  std::ostringstream os;
  os << "kernel: baselines=" << baseline_builds
     << " restores=" << baseline_restores
     << " stamps_skipped=" << linear_stamps_skipped
     << " nonlinear_stamps=" << nonlinear_stamps
     << " factorizations=" << factorizations << " solves=" << solves;
  if (ac_points_fused > 0) os << " ac_fused=" << ac_points_fused;
  if (ac_points_virtual > 0) os << " ac_virtual=" << ac_points_virtual;
  os << " workspace_bytes=" << workspace_bytes
     << " regrowths=" << workspace_regrowths;
  if (numeric_refactors > 0) {
    os << " sparse: analyses=" << symbolic_analyses
       << " reuses=" << symbolic_reuses
       << " refactors=" << numeric_refactors
       << " nnz=" << sparse_nnz << " fill=" << sparse_fill_in;
    if (sparse_fallbacks > 0) os << " fallbacks=" << sparse_fallbacks;
  }
  if (refinement_solves > 0 || numeric_recoveries > 0 ||
      equilibrated_solves > 0) {
    os << " health: refined=" << refinement_solves
       << " refine_iters=" << refinement_iterations
       << " equilibrated=" << equilibrated_solves
       << " recoveries=" << numeric_recoveries
       << " cond_max=" << cond_estimate_max
       << " growth_max=" << pivot_growth_max
       << " resid_max=" << residual_norm_max;
  }
  return os.str();
}

const char* to_string(DcPlan plan) {
  switch (plan) {
    case DcPlan::GminLadder: return "gmin-ladder";
    case DcPlan::SourceStepping: return "source-stepping";
    case DcPlan::None: break;
  }
  return "none";
}

std::string ConvergenceReport::summary() const {
  std::ostringstream os;
  os << (converged ? "converged" : "FAILED") << " plan=" << to_string(plan)
     << " gmin=" << units::format_eng(final_gmin)
     << " rungs=" << gmin_rungs_completed
     << " src_steps=" << source_steps_completed
     << " newton_iters=" << newton_iterations;
  if (lu_failures > 0) os << " lu_failures=" << lu_failures;
  if (nonfinite_rejections > 0) os << " nonfinite=" << nonfinite_rejections;
  if (step_halvings > 0) os << " halvings=" << step_halvings;
  if (convergence_vetoes > 0) os << " vetoes=" << convergence_vetoes;
  if (relaxed_tolerances) os << " relaxed";
  if (health.refinement_iterations > 0 || health.equilibrated ||
      health.recovered) {
    os << " " << health.summary();
  }
  return os.str();
}

// ---------------------------------------------------------------------------

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

RunBudget RunBudget::with_deadline(double seconds) {
  RunBudget b;
  b.set_deadline_in(seconds);
  return b;
}

RunBudget RunBudget::with_evaluations(long n) {
  RunBudget b;
  b.set_max_evaluations(n);
  return b;
}

void RunBudget::set_deadline_in(double seconds) {
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(seconds));
  has_deadline_ = true;
}

void RunBudget::set_max_evaluations(long n) { max_evals_ = n; }

bool RunBudget::charge(long n) {
  used_.fetch_add(n, std::memory_order_relaxed);
  return !exhausted();
}

bool RunBudget::exhausted() const {
  if (cancelled()) return true;
  if (max_evals_ >= 0 && used_.load(std::memory_order_relaxed) >= max_evals_) {
    return true;
  }
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) return true;
  return false;
}

const char* RunBudget::exhaust_reason() const {
  if (cancelled()) return "cancelled";
  if (has_deadline_ && std::chrono::steady_clock::now() >= deadline_) {
    return "deadline exceeded";
  }
  if (max_evals_ >= 0 && used_.load(std::memory_order_relaxed) >= max_evals_) {
    return "evaluation cap reached";
  }
  return "within budget";
}

double RunBudget::seconds_left() const {
  if (!has_deadline_) return std::numeric_limits<double>::infinity();
  return std::chrono::duration<double>(deadline_ -
                                       std::chrono::steady_clock::now())
      .count();
}

// ---------------------------------------------------------------------------

ScopedJobBudget::ScopedJobBudget(const RunBudget& budget)
    : previous_(g_ambient_budget) {
  g_ambient_budget = &budget;
}

ScopedJobBudget::~ScopedJobBudget() { g_ambient_budget = previous_; }

const RunBudget* ambient_budget() { return g_ambient_budget; }

const RunBudget* exhausted_budget(const RunBudget* local) {
  if (local != nullptr && local->exhausted()) return local;
  if (g_ambient_budget != nullptr && g_ambient_budget->exhausted()) {
    return g_ambient_budget;
  }
  return nullptr;
}

ScopedSolverRelaxation::ScopedSolverRelaxation(const SolverRelaxation& relax)
    : previous_(g_ambient_relaxation) {
  g_ambient_relaxation = &relax;
}

ScopedSolverRelaxation::~ScopedSolverRelaxation() {
  g_ambient_relaxation = previous_;
}

const SolverRelaxation* ambient_relaxation() { return g_ambient_relaxation; }

ScopedKernelStatsSink::ScopedKernelStatsSink(KernelStats& sink)
    : previous_(g_ambient_kernel_sink) {
  g_ambient_kernel_sink = &sink;
}

ScopedKernelStatsSink::~ScopedKernelStatsSink() {
  g_ambient_kernel_sink = previous_;
}

KernelStats* ambient_kernel_sink() { return g_ambient_kernel_sink; }

ScopedNumericHealthMode::ScopedNumericHealthMode(NumericHealthMode mode)
    : previous_(g_ambient_health_mode) {
  g_ambient_health_mode = mode;
}

ScopedNumericHealthMode::~ScopedNumericHealthMode() {
  g_ambient_health_mode = previous_;
}

NumericHealthMode ambient_health_mode() { return g_ambient_health_mode; }

}  // namespace ape
