#include "src/runtime/sweep.h"

#include "src/lint/prove.h"
#include "src/runtime/runner.h"
#include "src/synth/sizing.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "src/util/stream_ids.h"

namespace ape::runtime {
namespace {

/// Pass criteria of one evaluation point: the same 0.9x acceptance band
/// the synthesis diagnosis uses for gain/UGF, plus the synthesis cost's
/// phase-margin floor (informational, see stat::PointOutcome).
constexpr double kPassBand = 0.9;

stat::PointOutcome check_point(const est::Process& p, const synth::OpAmpVars& v,
                               const est::OpAmpSpec& spec) {
  stat::PointOutcome o;
  try {
    const synth::OpAmpEval e =
        synth::evaluate_opamp_vars(p, v, spec.ibias, spec.cload);
    o.evaluated = true;
    o.functional = e.functional;
    o.gain_ok = e.gain >= kPassBand * spec.gain;
    o.ugf_ok = e.ugf_hz >= kPassBand * spec.ugf_hz;
    o.pm_ok = e.phase_margin >= synth::kMinPhaseMargin;
  } catch (const Error&) {
    // An unevaluable point is a failed point, not a dead sweep.
  }
  return o;
}

/// One (job, corner) grid cell: the corner re-estimate flag plus every
/// sample's outcome, computed on one worker and aggregated serially.
struct Cell {
  size_t index = 0;  ///< job * n_corners + corner
  bool ok = false;   ///< false when stopped, skipped (failed job) or thrown
  std::string error; ///< set when the cell stopped or threw
  std::vector<stat::PointOutcome> points;
  uint8_t estimate_ok = 0;
  uint8_t proven_infeasible = 0;  ///< APE-F001 at this corner; cell pruned
};

}  // namespace

SweepResult run_corner_sweep(const est::Process& proc,
                             const std::vector<est::OpAmpSpec>& specs,
                             const SweepOptions& options) {
  ErrorContext scope("corner_sweep");
  const BatchOptions& batch = options.supervisor.batch;
  const bool mismatch = options.mc_samples > 0;
  const int samples = std::max(1, options.mc_samples);
  if (static_cast<uint64_t>(samples) >= (1ULL << streams::kMismatchSampleBits)) {
    throw SpecError("run_corner_sweep: mc_samples exceeds the stream-id "
                    "sample field (see stream_ids.h)");
  }
  const auto& deltas = options.corners.corners();
  if (deltas.empty()) {
    throw SpecError("run_corner_sweep: empty corner set");
  }
  std::vector<std::string> corner_names;
  corner_names.reserve(deltas.size());
  for (const auto& d : deltas) corner_names.push_back(d.name);
  const std::vector<est::Process> corner_procs =
      options.corners.realize(proc);
  const size_t n_corners = corner_procs.size();
  const size_t n_jobs = specs.size();

  SweepResult out;
  out.samples_per_corner = samples;
  EstimateCache* cache = batch.cache;
  detail::BatchRunner runner(batch.threads, cache);

  // ---- Phase A: one nominal design per spec ----
  KernelStats phase_a_kernel;  // synthesize mode: the batch's own tally
  if (options.synthesize) {
    OpAmpBatchResult a =
        run_supervised_opamp_batch(proc, specs, options.supervisor);
    out.supervision = a.supervision;
    phase_a_kernel = a.stats.kernel;
    out.jobs.resize(n_jobs);
    for (size_t i = 0; i < n_jobs; ++i) {
      out.jobs[i].index = i;
      out.jobs[i].ok = a.jobs[i].ok;
      out.jobs[i].error = a.jobs[i].error;
      out.jobs[i].nominal = std::move(a.jobs[i].outcome);
    }
  } else {
    // Estimate-only nominal pass. The estimate is taken at the tm
    // corner process when the set has one (numerically identical to the
    // base, but sharing its cache identity with phase B's tm
    // re-estimate — that shared entry is the guaranteed cross-corner
    // cache hit of every sweep).
    const int tm = options.corners.index_of("tm");
    const est::Process& nominal_proc =
        tm >= 0 ? corner_procs[static_cast<size_t>(tm)] : proc;
    runner.run("sweep_nominal", n_jobs, out.jobs,
               [&](size_t i, SweepJobResult& r) {
                 r.nominal = detail::estimate_outcome(
                     nominal_proc, specs[i], batch,
                     "APE estimate (sweep nominal)");
                 r.ok = true;
               });
  }

  // The fixed evaluation vehicle of every grid point: the nominal
  // design's unknown vector (pure data, shared read-only across cells).
  std::vector<synth::OpAmpVars> vars(n_jobs);
  for (size_t i = 0; i < n_jobs; ++i) {
    if (out.jobs[i].ok) {
      vars[i] = synth::vars_from_design(out.jobs[i].nominal.design);
    }
  }

  // ---- Phase B: the (job x corner) grid, one cell per Executor task ----
  // The run's cancel token joins whatever budget encloses the sweep (a
  // serve request's deadline and drain), and every cell polls the chain:
  // before it starts and every 8 samples. A stopped cell leaves its
  // slots unfinished, so its job fails as incomplete.
  RunBudget phase_b;
  phase_b.attach_cancel(options.supervisor.cancel);
  ScopedBudget phase_b_scope(phase_b);
  auto poll = [] {
    if (const RunBudget* b = exhausted_budget()) {
      throw NumericError(std::string("corner sweep incomplete: ") +
                         b->exhaust_reason());
    }
  };
  std::vector<Cell> cells;
  auto cell_frame = [&](size_t k) {
    return "sweep_cell[" + std::to_string(k / n_corners) + "," +
           corner_names[k % n_corners] + "]";
  };
  runner.run(cell_frame, n_jobs * n_corners, cells, [&](size_t k, Cell& cell) {
    const size_t i = k / n_corners;
    const size_t c = k % n_corners;
    if (!out.jobs[i].ok) return;
    poll();
    cell.ok = true;
    // Feasibility pre-check at the corner card: when no sizing in the
    // whole box can reach the spec under this corner's parameters, the
    // re-estimate and the sample grid are provably wasted work. Prune
    // the cell (global interval check only, a few microseconds) and
    // record its slots as failed points so report shapes stay fixed.
    if (options.prove_corners) {
      lint::ProveOptions po;
      po.contraction_segments = 0;
      const lint::FeasibilityProof proof =
          lint::prove_opamp_feasibility(corner_procs[c], specs[i], po);
      if (proof.infeasible) {
        cell.proven_infeasible = 1;
        cell.points.assign(static_cast<size_t>(samples), stat::PointOutcome{});
        return;
      }
    }
    // Can APE still size this spec AT the corner? Shared cache entry —
    // duplicate specs answer this once per corner for the whole run.
    try {
      if (cache != nullptr) {
        cache->opamp(corner_procs[c], specs[i]);
      } else {
        est::OpAmpEstimator(corner_procs[c]).estimate(specs[i]);
      }
      cell.estimate_ok = 1;
    } catch (const Error&) {
      // Infeasible at this corner: recorded per corner, not fatal.
    }
    cell.points.reserve(static_cast<size_t>(samples));
    for (int s = 0; s < samples; ++s) {
      if (s > 0 && s % 8 == 0) poll();
      if (mismatch) {
        try {
          const est::Process p = stat::sample_mismatch(
              corner_procs[c], options.pelgrom, batch.seed, i, c,
              static_cast<uint64_t>(s));
          cell.points.push_back(check_point(p, vars[i], specs[i]));
          continue;
        } catch (const Error&) {
          cell.points.push_back(stat::PointOutcome{});  // unevaluable draw
          continue;
        }
      }
      cell.points.push_back(check_point(corner_procs[c], vars[i], specs[i]));
    }
  });

  // ---- Aggregation, in (job, corner, sample) index order ----
  out.aggregate = stat::YieldReport(corner_names);
  for (size_t i = 0; i < n_jobs; ++i) {
    SweepJobResult& jr = out.jobs[i];
    jr.report = stat::YieldReport(corner_names);
    jr.corner_estimate_ok.assign(n_corners, 0);
    jr.corner_proven_infeasible.assign(n_corners, 0);
    if (!jr.ok) continue;
    std::string incomplete;  // why the grid has a hole, if it has one
    for (size_t c = 0; c < n_corners; ++c) {
      const Cell& cell = cells[i * n_corners + c];
      if (!cell.ok) {
        if (incomplete.empty()) incomplete = cell.error;
        continue;
      }
      jr.corner_estimate_ok[c] = cell.estimate_ok;
      jr.corner_proven_infeasible[c] = cell.proven_infeasible;
      if (cell.proven_infeasible) ++out.corners_pruned;
      for (const auto& p : cell.points) jr.report.add(c, p);
    }
    if (!incomplete.empty()) {
      jr.ok = false;
      jr.error = incomplete;
      continue;
    }
    jr.report.finalize();
    out.aggregate.merge(jr.report);
  }
  out.aggregate.finalize();

  runner.finish(out.jobs,
                [](const SweepJobResult& j) {
                  // Passes everywhere on the grid.
                  return j.report.total.samples > 0 &&
                         j.report.total.pass == j.report.total.samples;
                },
                out.stats);
  out.stats.kernel.accumulate(phase_a_kernel);
  return out;
}

SweepResult run_monte_carlo(const est::Process& proc,
                            const std::vector<est::OpAmpSpec>& specs,
                            const SweepOptions& options) {
  if (options.mc_samples < 1) {
    throw SpecError("run_monte_carlo: mc_samples must be >= 1");
  }
  return run_corner_sweep(proc, specs, options);
}

std::string corner_flags(const std::vector<uint8_t>& per_corner) {
  std::string out;
  for (const uint8_t flag : per_corner) out += flag != 0 ? '1' : '0';
  return out;
}

}  // namespace ape::runtime
