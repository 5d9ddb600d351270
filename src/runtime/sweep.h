#pragma once
/// \file sweep.h
/// Corner-sweep and Monte-Carlo batch entry points (DESIGN.md section
/// 12): fan a (design x corner x sample) grid across the Executor and
/// aggregate stat::YieldReports.
///
/// Two-phase structure per run:
///
///  Phase A — nominal designs: one design per spec, either the bare APE
///  estimate resolved through the shared cache (default: the paper's
///  estimate-for-simulation trade applied to yield analysis) or a full
///  supervised synthesis batch (SweepOptions::synthesize — deadlines,
///  retry ladder, quarantine, checkpoint/--resume all inherited from
///  supervisor.h).
///
///  Phase B — the grid: every (job, corner) pair becomes one Executor
///  task that (1) re-estimates the spec AT the corner through the shared
///  cache — whether APE can still size the circuit there is reported per
///  corner, and duplicate specs share these entries across the whole run
///  (the tm corner entry is also shared with phase A's nominal
///  estimate) — and (2) evaluates the *fixed* nominal design under the
///  corner card (plus Pelgrom mismatch per Monte-Carlo sample,
///  stat/mismatch.h) with the analytic evaluator. Points aggregate into
///  per-job YieldReports and a pooled run report in (job, corner,
///  sample) index order. Phase B stops mid-cell when the caller's budget
///  or SupervisorOptions::cancel fires; a stopped cell fails its job as
///  incomplete.
///
/// Determinism contract: phase A inherits the batch/supervisor
/// determinism guarantees; every phase-B point is a pure function of
/// (process, corner set, Pelgrom model, seed, job, corner, sample,
/// nominal design) with its RNG stream derived per point
/// (stream_ids.h), and aggregation order is fixed — so the YieldReports
/// are bit-identical at any thread count and across --resume.

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/supervisor.h"
#include "src/stat/corners.h"
#include "src/stat/mismatch.h"
#include "src/stat/yield.h"

namespace ape::runtime {

struct SweepOptions {
  /// Phase-A configuration: batch (threads, seed, synth template,
  /// cache, lint-first) plus the supervision knobs (ladder, deadlines,
  /// cancel, quarantine, checkpoint/resume) used when synthesize is on.
  /// The threads also govern phase B, and the cancel token stops it
  /// mid-cell: phase B runs under a budget carrying the token, chained
  /// to the caller's budget, and polls it every 8 samples.
  SupervisorOptions supervisor;

  /// The corners to sweep (order = YieldReport slot order).
  stat::CornerSet corners = stat::CornerSet::all();

  /// Monte-Carlo samples per (job, corner); 0 = corner sweep only (one
  /// unperturbed point per corner). run_monte_carlo requires >= 1.
  int mc_samples = 0;

  /// Pelgrom matching model for the mismatch draws.
  stat::PelgromModel pelgrom;

  /// Phase A: false = nominal design is the APE estimate (fast, the
  /// default), true = full supervised synthesis per spec.
  bool synthesize = false;

  /// Prove each (job, corner) cell's spec feasible over the sizing box
  /// at the corner-realized process before spending any phase-B work on
  /// it (lint::prove_opamp_feasibility, global check only — a few
  /// microseconds per cell). A provably-infeasible cell is pruned: no
  /// corner re-estimate, no sample evaluations; its grid slots are
  /// recorded as failed points so YieldReport shapes stay invariant,
  /// and the verdict surfaces in SweepJobResult::corner_proven_infeasible.
  bool prove_corners = true;
};

/// One spec's sweep outcome.
struct SweepJobResult {
  size_t index = 0;
  bool ok = false;      ///< phase A produced a design and the grid ran
  std::string error;    ///< empty when ok
  /// The nominal design (estimate-wrapped or synthesized outcome).
  synth::SynthesisOutcome nominal;
  /// This job's (corner x sample) yield grid (finalized).
  stat::YieldReport report;
  /// Per corner: 1 when APE could size the spec at that corner (the
  /// phase-B re-estimate succeeded), 0 otherwise. Same order as
  /// SweepOptions::corners.
  std::vector<uint8_t> corner_estimate_ok;
  /// Per corner: 1 when the spec was proven infeasible over the whole
  /// sizing box at that corner (APE-F001) and the cell was pruned, 0
  /// otherwise. Same order as SweepOptions::corners; all zeros when
  /// SweepOptions::prove_corners is off.
  std::vector<uint8_t> corner_proven_infeasible;

  SweepJobResult() : report(std::vector<std::string>{}) {}
};

struct SweepResult {
  std::vector<SweepJobResult> jobs;   ///< jobs[i] is specs[i]
  BatchStats stats;                   ///< whole-run accounting + cache delta
  SupervisionStats supervision;       ///< phase A (synthesize mode)
  stat::YieldReport aggregate;        ///< pooled over ok jobs (finalized)
  int samples_per_corner = 1;         ///< grid depth actually used
  /// (job, corner) cells pruned by a per-corner infeasibility proof —
  /// the work the 7x corner fan-out did NOT spend.
  int corners_pruned = 0;

  SweepResult() : aggregate(std::vector<std::string>{}) {}
};

/// Sweep every spec across the corner set (one unperturbed point per
/// corner unless mc_samples > 0, in which case mismatch sampling is
/// applied exactly as run_monte_carlo does).
SweepResult run_corner_sweep(const est::Process& proc,
                             const std::vector<est::OpAmpSpec>& specs,
                             const SweepOptions& options);

/// Monte-Carlo yield run: corners x mc_samples mismatch draws per spec.
/// Throws SpecError when options.mc_samples < 1.
SweepResult run_monte_carlo(const est::Process& proc,
                            const std::vector<est::OpAmpSpec>& specs,
                            const SweepOptions& options);

/// A SweepJobResult per-corner flag vector as the JSON outputs spell it:
/// one '1' or '0' per corner, in corner order.
std::string corner_flags(const std::vector<uint8_t>& per_corner);

}  // namespace ape::runtime
