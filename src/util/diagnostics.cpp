#include "src/util/diagnostics.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "src/util/units.h"

namespace ape {
namespace {

/// The one thread_local of src/ (the THREAD-SAFETY RULE in
/// diagnostics.h).
JobContext& current_context() {
  static thread_local JobContext ctx;
  return ctx;
}

}  // namespace

std::string annotate_with_context(const std::string& what) {
  if (current_context().frames.empty()) return what;
  return "[" + ErrorContext::chain() + "] " + what;
}

ErrorContext::ErrorContext(std::string frame) {
  current_context().frames.push_back(std::move(frame));
}

ErrorContext::~ErrorContext() { current_context().frames.pop_back(); }

std::string ErrorContext::chain() {
  const auto& frames = current_context().frames;
  std::string out;
  for (size_t i = 0; i < frames.size(); ++i) {
    if (i != 0) out += " -> ";
    out += frames[i];
  }
  return out;
}

size_t ErrorContext::depth() { return current_context().frames.size(); }

// ---------------------------------------------------------------------------

void KernelStats::accumulate(const KernelStats& o) {
  baseline_builds += o.baseline_builds;
  baseline_restores += o.baseline_restores;
  linear_stamps_skipped += o.linear_stamps_skipped;
  nonlinear_stamps += o.nonlinear_stamps;
  device_bypasses += o.device_bypasses;
  factorizations += o.factorizations;
  factor_reuses += o.factor_reuses;
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
  if (device_bypasses > 0 || factor_reuses > 0) {
    os << " bypasses=" << device_bypasses << " factor_reuses=" << factor_reuses;
  }
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

void KernelStats::to_json(json::Writer& w) const {
  w.field("baseline_builds", baseline_builds)
      .field("baseline_restores", baseline_restores)
      .field("linear_stamps_skipped", linear_stamps_skipped)
      .field("nonlinear_stamps", nonlinear_stamps)
      .field("device_bypasses", device_bypasses)
      .field("factorizations", factorizations)
      .field("factor_reuses", factor_reuses)
      .field("solves", solves)
      .field("ac_points_fused", ac_points_fused)
      .field("ac_points_virtual", ac_points_virtual)
      .field("workspace_bytes", workspace_bytes)
      .field("workspace_regrowths", workspace_regrowths)
      .field("symbolic_analyses", symbolic_analyses)
      .field("symbolic_reuses", symbolic_reuses)
      .field("numeric_refactors", numeric_refactors)
      .field("sparse_fallbacks", sparse_fallbacks)
      .field("sparse_nnz", sparse_nnz)
      .field("sparse_fill_in", sparse_fill_in)
      .field("refinement_solves", refinement_solves)
      .field("refinement_iterations", refinement_iterations)
      .field("equilibrated_solves", equilibrated_solves)
      .field("numeric_recoveries", numeric_recoveries)
      .field("cond_estimate_max", cond_estimate_max)
      .field("pivot_growth_max", pivot_growth_max)
      .field("residual_norm_max", residual_norm_max);
}

const char* to_string(DcPlan plan) {
  switch (plan) {
    case DcPlan::Seeded: return "seeded";
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
  deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
}

void RunBudget::set_max_evaluations(long n) { max_evals_ = n; }

bool RunBudget::charge(long n) const {
  for (const RunBudget* b = this; b != nullptr; b = b->enclosing_) {
    b->used_.fetch_add(n, std::memory_order_relaxed);
  }
  return !cap_reached();
}

bool RunBudget::cancelled() const {
  for (const RunBudget* b = this; b != nullptr; b = b->enclosing_) {
    if (b->cancel_ != nullptr && b->cancel_->cancelled()) return true;
  }
  return false;
}

bool RunBudget::cap_reached() const {
  for (const RunBudget* b = this; b != nullptr; b = b->enclosing_) {
    if (b->max_evals_ >= 0 &&
        b->used_.load(std::memory_order_relaxed) >= b->max_evals_) {
      return true;
    }
  }
  return false;
}

RunBudget::Clock::time_point RunBudget::deadline() const {
  Clock::time_point d = Clock::time_point::max();
  for (const RunBudget* b = this; b != nullptr; b = b->enclosing_) {
    d = std::min(d, b->deadline_);
  }
  return d;
}

bool RunBudget::deadline_passed() const {
  const Clock::time_point d = deadline();
  return d != Clock::time_point::max() && Clock::now() >= d;
}

bool RunBudget::exhausted() const {
  return cancelled() || cap_reached() || deadline_passed();
}

const char* RunBudget::exhaust_reason() const {
  if (cancelled()) return "cancelled";
  if (deadline_passed()) return "deadline exceeded";
  if (cap_reached()) return "evaluation cap reached";
  return "within budget";
}

double RunBudget::seconds_left() const {
  const Clock::time_point d = deadline();
  if (d == Clock::time_point::max()) {
    return std::numeric_limits<double>::infinity();
  }
  return std::chrono::duration<double>(d - Clock::now()).count();
}

// ---------------------------------------------------------------------------

JobContext JobContext::fork() const {
  JobContext worker = *this;
  worker.kernel_sink = nullptr;
  worker.fault_injector = nullptr;
  return worker;
}

const JobContext& job_context() { return current_context(); }

ScopedJobContext::ScopedJobContext(JobContext ctx)
    : previous_(std::exchange(current_context(), std::move(ctx))) {}

ScopedJobContext::~ScopedJobContext() {
  current_context() = std::move(previous_);
}

ScopedBudget::ScopedBudget(RunBudget& budget)
    : budget_(budget), scope_([&budget](JobContext& c) {
        budget.enclosing_ = c.budget;
        c.budget = &budget;
      }) {}

const RunBudget* exhausted_budget() {
  const RunBudget* b = current_context().budget;
  return b != nullptr && b->exhausted() ? b : nullptr;
}

}  // namespace ape
