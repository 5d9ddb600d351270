#include "src/spice/analysis.h"

#include <algorithm>
#include <cmath>

#include "src/spice/devices.h"
#include "src/spice/fault.h"
#include "src/spice/kernel.h"
#include "src/util/matrix.h"
#include "src/util/units.h"

namespace ape::spice {
namespace {

/// True when every entry of \p v is finite. A single NaN/inf from a
/// near-singular solve or a poisoned stamp would otherwise masquerade as
/// a huge Newton update and burn the whole iteration budget.
bool all_finite(const std::vector<double>& v) {
  for (double e : v) {
    if (!std::isfinite(e)) return false;
  }
  return true;
}

/// One damped Newton solve of the (already finalized) circuit at a fixed
/// gmin / source scale, on the caller's compiled workspace, capped at
/// \p max_iterations. Returns true on convergence; x is updated in
/// place. Counters are accumulated into \p rep when non-null.
bool newton_dc(Circuit& ckt, SolveWorkspace& ws, Solution& x, double gmin,
               double src_scale, const DcOptions& opts, int max_iterations,
               ConvergenceReport* rep) {
  const size_t dim = ckt.dim();
  const size_t n_nodes = ckt.num_nodes();
  FaultInjector* fi = job_context().fault_injector;
  // gmin and src_scale are fixed for the whole call, so the linear part
  // of the system is too: stamp it once, restore per iteration.
  ws.build_dc_baseline(gmin, src_scale);
  for (int iter = 0; iter < max_iterations; ++iter) {
    ws.assemble_dc(x, src_scale);
    if (fi != nullptr) fi->on_assembly(ws.mna());
    if (rep != nullptr) ++rep->newton_iterations;
    const std::vector<double>* solved = nullptr;
    try {
      if (fi != nullptr && fi->on_lu_solve()) {
        throw NumericError("LU: injected singular matrix");
      }
      solved = &ws.solve();
    } catch (const NumericError&) {
      if (rep != nullptr) ++rep->lu_failures;
      return false;
    }
    const std::vector<double>& xnew = *solved;
    // Fail fast on a non-finite solution: iterating from NaN can never
    // recover, so report non-convergence and let the ladder move on.
    if (!all_finite(xnew)) {
      if (rep != nullptr) ++rep->nonfinite_rejections;
      return false;
    }

    // Damp node-voltage updates; branch currents move freely. The ratio
    // is capped so every iteration closes at least a fixed fraction of
    // the remaining gap - otherwise circuits with legitimately large
    // internal swings (ideal-gain macromodels) would need |dv|/limit
    // iterations instead of log(|dv|).
    bool converged = true;
    double max_ratio = 1.0;
    for (size_t i = 0; i < n_nodes; ++i) {
      const double dv = std::fabs(xnew[i] - x.x[i]);
      if (dv > opts.vstep_limit) max_ratio = std::max(max_ratio, dv / opts.vstep_limit);
    }
    max_ratio = std::min(max_ratio, opts.max_damping_ratio);
    for (size_t i = 0; i < dim; ++i) {
      const double step = (xnew[i] - x.x[i]) / max_ratio;
      const double next = x.x[i] + step;
      const double tol = (i < n_nodes)
                             ? opts.vntol + opts.reltol * std::max(std::fabs(next), std::fabs(x.x[i]))
                             : opts.abstol + opts.reltol * std::max(std::fabs(next), std::fabs(x.x[i]));
      if (std::fabs(step) > tol) converged = false;
      x.x[i] = next;
    }
    if (converged && max_ratio == 1.0 && iter > 0) {
      if (fi != nullptr && fi->on_dc_convergence(gmin, src_scale)) {
        if (rep != nullptr) ++rep->convergence_vetoes;
        return false;
      }
      return true;
    }
  }
  return false;
}

/// Throw when the job's budget expired (checked between rungs so a
/// deadline can never abandon a half-updated solution vector).
void check_budget(const char* where) {
  if (const RunBudget* b = exhausted_budget()) {
    throw NumericError(std::string(where) + ": " + b->exhaust_reason());
  }
}

/// Resolve the effective DC options for this call: when the job context
/// carries a SolverRelaxation (the supervision ladder's relaxed rung),
/// widen the tolerances and stop the gmin ladder at the relaxed floor;
/// otherwise \p opts passes through untouched.
const DcOptions* effective_dc_options(const DcOptions& opts, DcOptions& storage,
                                      ConvergenceReport* rep) {
  const SolverRelaxation* rx = job_context().relaxation;
  if (rx == nullptr) return &opts;
  storage = opts;
  storage.reltol *= rx->tol_factor;
  storage.vntol *= rx->tol_factor;
  storage.abstol *= rx->tol_factor;
  std::vector<double> rungs;
  for (double g : storage.gmin_steps) {
    if (g >= rx->gmin_floor * 0.999) rungs.push_back(g);
  }
  if (!rungs.empty()) storage.gmin_steps = std::move(rungs);
  if (rep != nullptr) rep->relaxed_tolerances = true;
  return &storage;
}

/// Summarize the run's numerical health into the report. The kernel's
/// per-solve NumericHealth record only describes the last solve; the
/// report-level record takes the run-wide view from the accumulated
/// KernelStats gauges and counters (DESIGN.md section 15).
void fill_report_health(ConvergenceReport* rep) {
  const KernelStats& k = rep->kernel;
  rep->health.cond_estimate = k.cond_estimate_max;
  rep->health.pivot_growth = k.pivot_growth_max;
  rep->health.residual_norm = k.residual_norm_max;
  rep->health.refinement_iterations = static_cast<int>(k.refinement_iterations);
  rep->health.equilibrated = k.equilibrated_solves > 0;
  rep->health.recovered = k.numeric_recoveries > 0;
}

}  // namespace

Solution dc_operating_point(Circuit& ckt, const DcOptions& caller_opts) {
  ErrorContext scope("dc('" + ckt.title() + "')");
  ckt.finalize();
  ConvergenceReport local_report;
  ConvergenceReport* rep =
      caller_opts.report != nullptr ? caller_opts.report : &local_report;
  *rep = ConvergenceReport{};
  DcOptions relaxed_storage;
  const DcOptions& opts = *effective_dc_options(caller_opts, relaxed_storage, rep);
  if (opts.preflight) opts.preflight(ckt);
  Solution x;
  x.x.assign(ckt.dim(), 0.0);
  SolveWorkspace ws(ckt);

  bool ok = false;
  // Seeded plan: one capped Newton solve at the ladder's final gmin from
  // the circuit's .nodeset guess. On failure x returns to zero, so the
  // ladders below run exactly as they would without a seed.
  if (!ckt.nodesets().empty() && !opts.gmin_steps.empty()) {
    check_budget("dc_operating_point");
    for (const Circuit::NodeSet& ns : ckt.nodesets()) {
      x.x[static_cast<size_t>(ns.node)] = ns.volts;
    }
    const double gmin = opts.gmin_steps.back();
    ok = newton_dc(ckt, ws, x, gmin, 1.0, opts, kSeededMaxIterations, rep);
    FaultInjector* fi = job_context().fault_injector;
    if (ok && fi != nullptr && fi->on_seeded_convergence()) {
      ++rep->convergence_vetoes;
      ok = false;
    }
    if (ok) {
      rep->plan = DcPlan::Seeded;
      rep->final_gmin = gmin;
    } else {
      x.x.assign(ckt.dim(), 0.0);
    }
  }

  if (!ok) {
    // Plan A: gmin stepping from a heavily damped system down to ~ideal.
    ok = true;
    for (double gmin : opts.gmin_steps) {
      check_budget("dc_operating_point");
      if (!newton_dc(ckt, ws, x, gmin, 1.0, opts, opts.max_iterations, rep)) {
        ok = false;
        break;
      }
      ++rep->gmin_rungs_completed;
      rep->final_gmin = gmin;
    }
    if (ok) rep->plan = DcPlan::GminLadder;
  }

  if (!ok) {
    // Plan B: source stepping with a fixed medium gmin, then the ladder.
    x.x.assign(ckt.dim(), 0.0);
    rep->gmin_rungs_completed = 0;
    ok = true;
    for (double s : opts.source_steps) {
      check_budget("dc_operating_point");
      if (!newton_dc(ckt, ws, x, 1e-9, s, opts, opts.max_iterations, rep)) {
        ok = false;
        break;
      }
      ++rep->source_steps_completed;
    }
    if (ok) {
      for (double gmin : opts.gmin_steps) {
        check_budget("dc_operating_point");
        if (!newton_dc(ckt, ws, x, gmin, 1.0, opts, opts.max_iterations, rep)) {
          ok = false;
          break;
        }
        ++rep->gmin_rungs_completed;
        rep->final_gmin = gmin;
      }
    }
    if (ok) rep->plan = DcPlan::SourceStepping;
  }
  rep->kernel = ws.stats();
  fill_report_health(rep);
  if (!ok) {
    throw NumericError("dc_operating_point: Newton failed to converge for '" +
                       ckt.title() + "' (" + rep->summary() + ")");
  }
  rep->converged = true;
  for (const auto& dev : ckt.devices()) dev->save_op(x);
  return x;
}

double node_voltage(const Circuit& ckt, const Solution& sol, const std::string& node) {
  return sol.at(ckt.find_node(node));
}

double source_current(Circuit& ckt, const Solution& sol, const std::string& vsource) {
  auto& vs = ckt.find_as<VSource>(vsource);
  return sol.at(vs.branch());
}

DcSweepResult dc_sweep(Circuit& ckt, const std::string& vsource, double start,
                       double stop, double step, const DcOptions& opts) {
  ErrorContext scope("dc_sweep('" + vsource + "')");
  if (step <= 0.0 || stop < start) throw SpecError("dc_sweep: bad range");
  auto& vs = ckt.find_as<VSource>(vsource);
  const double original = vs.wave().dc;

  // Full-ladder solve at the current sweep value; a failure restores the
  // source and reports exactly which sweep point could not converge.
  auto solve_at = [&](double v, Solution& x) {
    try {
      x = dc_operating_point(ckt, opts);
    } catch (const Error& e) {
      vs.wave().dc = original;
      throw NumericError("dc_sweep('" + vsource + "'): failed at sweep value " +
                         units::format_eng(v) + " V: " + e.what());
    }
  };

  DcSweepResult res;
  // Full gmin-stepped solve at the first point; subsequent points are a
  // single warm-started Newton pass at the final gmin on a sweep-wide
  // compiled workspace.
  vs.wave().dc = start;
  Solution x;
  solve_at(start, x);
  res.values.push_back(start);
  res.solutions.push_back(x);
  SolveWorkspace ws(ckt);
  // Integer point index so the sweep grid has no accumulated FP drift:
  // point i sits at exactly start + i * step.
  const long n_steps = static_cast<long>(std::floor((stop - start) / step + 0.5));
  for (long i = 1; i <= n_steps; ++i) {
    const double v = start + static_cast<double>(i) * step;
    vs.wave().dc = v;
    if (const RunBudget* b = exhausted_budget()) {
      vs.wave().dc = original;
      throw NumericError("dc_sweep('" + vsource + "'): " + b->exhaust_reason() +
                         " at sweep value " + units::format_eng(v) + " V");
    }
    if (!newton_dc(ckt, ws, x, opts.gmin_steps.back(), 1.0, opts,
                   opts.max_iterations, opts.report)) {
      // Fall back to the full ladder if the warm start fails.
      x.x.assign(ckt.dim(), 0.0);
      solve_at(v, x);
    }
    res.values.push_back(v);
    res.solutions.push_back(x);
  }
  if (opts.report != nullptr) opts.report->kernel.accumulate(ws.stats());
  for (const auto& dev : ckt.devices()) dev->save_op(x);
  vs.wave().dc = original;
  return res;
}

AcResult ac_analysis(Circuit& ckt, double f_start, double f_stop,
                     int points_per_decade) {
  ErrorContext scope("ac('" + ckt.title() + "')");
  if (!ckt.finalized()) {
    throw Error("ac_analysis: run dc_operating_point first");
  }
  if (f_start <= 0.0 || f_stop < f_start) {
    throw SpecError("ac_analysis: bad frequency range");
  }
  AcResult out;
  const double decades = std::log10(f_stop / f_start);
  const int n = std::max(2, static_cast<int>(std::ceil(decades * points_per_decade)) + 1);
  const size_t dim = ckt.dim();
  // Compile G / C / stimulus once; the sweep itself is a fused G + jwC
  // fill plus an in-place factorization per point — no stamping, no
  // allocation. The floating-node gmin diagonal and the log-grid ratio
  // (formerly a pow() per point) are both hoisted out of the loop.
  AcKernel kern(ckt);
  out.freq_hz.resize(static_cast<size_t>(n));
  out.solutions.assign(static_cast<size_t>(n), std::vector<std::complex<double>>(dim));
  const double ratio = std::pow(10.0, decades / (n - 1));
  double f = f_start;
  for (int k = 0; k < n; ++k) {
    // Frequency sweeps are the long pole of opamp verification, so the
    // job's deadline / cancellation reaches them too. Polling once per
    // block keeps the steady-state loop a straight run of
    // assemble/factorize/solve; a block is well under the supervision
    // deadline granularity (deadlines are wall-clock seconds).
    if ((k & 7) == 0) {
      if (const RunBudget* b = exhausted_budget()) {
        throw NumericError("ac_analysis: " + std::string(b->exhaust_reason()) +
                           " at f=" + units::format_eng(f) + " Hz");
      }
    }
    kern.assemble(2.0 * M_PI * f);
    kern.solve_into(out.solutions[static_cast<size_t>(k)]);
    out.freq_hz[static_cast<size_t>(k)] = f;
    f *= ratio;
  }
  return out;
}

TranResult transient(Circuit& ckt, double t_step, double t_stop,
                     const TranOptions& caller_opts) {
  ErrorContext scope("transient('" + ckt.title() + "')");
  if (t_step <= 0.0 || t_stop <= t_step) {
    throw SpecError("transient: bad time range");
  }
  ConvergenceReport local_report;
  ConvergenceReport* rep =
      caller_opts.report != nullptr ? caller_opts.report : &local_report;
  *rep = ConvergenceReport{};
  // The relaxed supervision rung widens transient tolerances and allows
  // extra sub-stepping, mirroring effective_dc_options for DC.
  TranOptions relaxed_storage;
  const TranOptions* eff = &caller_opts;
  if (const SolverRelaxation* rx = job_context().relaxation) {
    relaxed_storage = caller_opts;
    relaxed_storage.reltol *= rx->tol_factor;
    relaxed_storage.vntol *= rx->tol_factor;
    relaxed_storage.max_step_halvings += rx->extra_step_halvings;
    eff = &relaxed_storage;
    rep->relaxed_tolerances = true;
  }
  const TranOptions& opts = *eff;
  Solution x = dc_operating_point(ckt);

  TranResult out;
  out.time_s.push_back(0.0);
  out.solutions.push_back(x);

  const size_t dim = ckt.dim();
  FaultInjector* fi = job_context().fault_injector;
  SolveWorkspace ws(ckt);
  Solution xc;  // Newton candidate, hoisted so the copy-assign below
                // reuses its capacity (no per-attempt allocation)

  double t = 0.0;
  bool first = true;
  while (t < t_stop - 1e-15) {
    // Advance one user-grid interval; sub-steps taken on Newton failure
    // stay internal so the output grid is exactly the user grid.
    const double t_target = std::min(t + t_step, t_stop);
    double dt = t_target - t;
    int halvings = 0;
    while (t < t_target - 1e-15) {
      if (const RunBudget* b = exhausted_budget()) {
        throw NumericError("transient: " + std::string(b->exhaust_reason()) +
                           " at t=" + units::format_eng(t) + " s");
      }
      dt = std::min(dt, t_target - t);
      // The bypass window is the Newton convergence tolerance, so the
      // relaxed rung's tol_factor widens both alike.
      TranContext tc{dt, t + dt, first, opts.vntol, opts.reltol};
      xc = x;  // start Newton from previous accepted point
      bool converged = false;
      const bool vetoed = fi != nullptr && fi->on_transient_step();
      if (vetoed) ++rep->convergence_vetoes;
      // dt, time and the integrator state are fixed for the whole solve
      // attempt, so the linear stamps and every charge companion are too.
      if (!vetoed) ws.build_tran_baseline(tc);
      for (int iter = 0; !vetoed && iter < opts.max_iterations; ++iter) {
        ws.assemble_tran(xc, tc);
        if (fi != nullptr) fi->on_assembly(ws.mna());
        ++rep->newton_iterations;
        const std::vector<double>* solved = nullptr;
        try {
          if (fi != nullptr && fi->on_lu_solve()) {
            throw NumericError("LU: injected singular matrix");
          }
          solved = &ws.solve();
        } catch (const NumericError&) {
          ++rep->lu_failures;
          break;
        }
        const std::vector<double>& xnew = *solved;
        // Fail fast on non-finite solutions (poisoned stamp, blow-up):
        // halving dt is the only move with a chance of recovering.
        if (!all_finite(xnew)) {
          ++rep->nonfinite_rejections;
          break;
        }
        converged = true;
        for (size_t i = 0; i < dim; ++i) {
          const double step = xnew[i] - xc.x[i];
          const double tol = opts.vntol + opts.reltol *
                                 std::max(std::fabs(xnew[i]), std::fabs(xc.x[i]));
          if (std::fabs(step) > tol) converged = false;
          xc.x[i] = xnew[i];
        }
        if (converged && iter > 0) break;
        converged = false;
      }
      if (converged) {
        for (const auto& dev : ckt.devices()) dev->accept_tran_step(xc, tc);
        x.x.swap(xc.x);  // keep xc's buffer alive for the next attempt
        t += dt;
        first = false;
        continue;
      }
      if (++halvings > opts.max_step_halvings) {
        throw NumericError("transient: Newton failed at t=" +
                           units::format_eng(t) + " s (" + rep->summary() + ")");
      }
      ++rep->step_halvings;
      dt *= 0.5;
    }
    t = t_target;  // land exactly on the grid point (no FP drift)
    out.time_s.push_back(t);
    out.solutions.push_back(x);
  }
  rep->kernel.accumulate(ws.stats());
  fill_report_health(rep);
  rep->converged = true;
  return out;
}

}  // namespace ape::spice
