#pragma once
/// \file batch.h
/// Batch entry points of the estimation runtime (DESIGN.md section 7):
/// fan a vector of specs across a runtime::Executor and collect per-job
/// results, with per-job error isolation and deterministic seeding.
///
/// One runner: the synthesis batches here are supervised batches
/// (supervisor.h) run with the default SupervisorOptions — one attempt,
/// no fallback, no deadline — and every fan-out of the runtime (these
/// batches, the estimate-only batches, both corner-sweep phases) goes
/// through the same loop, which stamps each job's provenance frame,
/// tallies its solver-kernel counters into BatchStats and isolates its
/// errors.
///
/// Seeding discipline: job i always synthesizes with the anneal seed
/// Rng::derive_stream(options.seed, i) (restarts inside a job derive
/// further sub-streams), and every job runs to completion regardless of
/// which worker picks it up — so a batch of N specs produces bit-identical
/// designs and costs at 1 thread and at k threads. The only supported
/// sources of nondeterminism are the wall-clock fields (cpu_seconds,
/// BatchStats timings) and a budget shared by the whole batch (one
/// installed around the batch call, which every job's loops poll and the
/// annealer charges), which trades determinism for boundedness.
///
/// Error isolation: a job whose synthesis or estimation throws fails
/// alone — the error (already carrying the job's ErrorContext
/// provenance, stamped "opamp_batch[i]" / "module_batch[i]") is captured
/// on the job result and the rest of the batch completes normally.

#include <memory>
#include <string>
#include <vector>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/runtime/cache.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"
#include "src/util/retry.h"

namespace ape::runtime {

/// Knobs shared by every batch entry point.
struct BatchOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = serial (still through
  /// the same code path, so serial and pooled results are comparable).
  int threads = 0;
  /// Base seed of the batch; job i anneals with stream i derived from it.
  uint64_t seed = 1;
  /// Template synthesis options applied to every job (the per-job seed
  /// and cached-estimate pointers are overridden per job).
  synth::SynthesisOptions synth;
  /// Optional shared estimate cache (memoizes the APE seed designs /
  /// module prototypes across jobs and batches). Not owned.
  EstimateCache* cache = nullptr;
  /// Lint every job's spec (lint::lint_spec, DESIGN.md section 9) before
  /// synthesizing / estimating it, then prove its feasibility over the
  /// sizing box (lint::prove_opamp_feasibility, DESIGN.md section 14).
  /// A spec with lint errors — or a proven-infeasible one (APE-F001) —
  /// fails its job with a Permanent LintError before any synthesis
  /// budget is spent: the supervision ladder skips every retry rung and
  /// goes straight to the estimate fallback, and quarantine is
  /// untouched. For feasible opamp jobs the proof's contracted box and
  /// cost floor are handed to the annealer (SynthesisOptions).
  bool lint_first = false;
};

/// One job's result; `ok == false` means the job failed and `error`
/// holds the provenance-annotated message. The fields after `outcome`
/// are the supervision ladder's account of how the result was obtained
/// (supervisor.h); estimate-only batches run no ladder and leave them at
/// their defaults.
template <class Outcome>
struct JobResult {
  size_t index = 0;    ///< position in the input spec vector
  bool ok = false;
  std::string error;   ///< empty when ok
  Outcome outcome{};   ///< default-constructed when !ok
  int attempts = 0;                            ///< attempts run (0 if skipped)
  RetryRung final_rung = RetryRung::Initial;   ///< rung of the last attempt
  bool deadline_hit = false;  ///< stopped by the per-job deadline
  bool cancelled = false;     ///< stopped by the CancelToken
  bool quarantined = false;   ///< skipped: fingerprint was quarantined
  bool estimate_fallback = false;  ///< outcome is the bare APE estimate
  bool resumed = false;       ///< restored from a checkpoint, not re-run
};

using OpAmpJobResult = JobResult<synth::SynthesisOutcome>;
using ModuleJobResult = JobResult<synth::ModuleSynthesisOutcome>;

/// Aggregate batch accounting (wall-clock fields are nondeterministic).
struct BatchStats {
  int jobs = 0;
  int failed = 0;          ///< jobs with ok == false
  int met_spec = 0;        ///< jobs whose outcome meets the spec
  int threads = 1;         ///< pool size actually used
  double wall_seconds = 0.0;
  double jobs_per_second = 0.0;
  CacheStats cache;        ///< cache delta attributable to this batch
  /// Solver-kernel counters summed over every job in the batch (each job
  /// runs under its own JobContext::kernel_sink; per-job tallies are
  /// merged with KernelStats::accumulate, so the counter sums are
  /// bit-identical at any thread count). Newton iterations, LU
  /// factorizations, fused AC points, and the sparse-path counters
  /// (symbolic analyses/reuses, numeric refactorizations, fallbacks)
  /// all surface here — for plain, supervised and sweep runs alike.
  KernelStats kernel;

  /// Counters, cache delta (cache_*) and a nested "kernel" (json.h).
  void to_json(json::Writer& w) const;
};

/// Aggregate supervision counters for one batch.
struct SupervisionStats {
  int attempts = 0;           ///< ladder attempts actually run
  int retries = 0;            ///< attempts beyond each job's first
  int numeric_recovery_attempts = 0;  ///< attempts under NumericHealthMode::Force
  int relaxed_attempts = 0;   ///< attempts run with JobContext::relaxed
  int estimate_fallbacks = 0; ///< jobs resolved by the estimate-only rung
  int deadline_hits = 0;      ///< jobs stopped by their deadline
  int cancelled_jobs = 0;     ///< jobs stopped by the CancelToken
  int quarantine_skips = 0;   ///< jobs skipped on a quarantined fingerprint
  int quarantined_new = 0;    ///< fingerprints newly quarantined this run
  int checkpoints_written = 0;
  int resumed_jobs = 0;       ///< jobs restored from the resume checkpoint

  /// Merge another batch's (or job's) counters into this one.
  void accumulate(const SupervisionStats& o);

  /// Every counter, keyed by its field name (json.h).
  void to_json(json::Writer& w) const;
};

/// Every batch entry point returns one of these.
template <class Outcome>
struct BatchResult {
  std::vector<JobResult<Outcome>> jobs;  ///< jobs[i] is specs[i] (index order)
  BatchStats stats;
  SupervisionStats supervision;  ///< all zero for estimate-only batches
};

using OpAmpBatchResult = BatchResult<synth::SynthesisOutcome>;
using ModuleBatchResult = BatchResult<synth::ModuleSynthesisOutcome>;

/// Synthesize every opamp spec (one synthesize_opamp job per spec): a
/// run_supervised_opamp_batch with the default SupervisorOptions.
OpAmpBatchResult run_opamp_batch(const est::Process& proc,
                                 const std::vector<est::OpAmpSpec>& specs,
                                 const BatchOptions& options);

/// Synthesize every module spec (one synthesize_module job per spec): a
/// run_supervised_module_batch with the default SupervisorOptions.
ModuleBatchResult run_module_batch(const est::Process& proc,
                                   const std::vector<est::ModuleSpec>& specs,
                                   const BatchOptions& options);

/// Estimate-only batches: the APE itself (no annealing, no simulator),
/// the workload of the paper's 0.12 s / 0.14 s CPU-time claims at scale.
/// Designs are shared cache entries when a cache is supplied.
using OpAmpEstimateBatchResult =
    BatchResult<std::shared_ptr<const est::OpAmpDesign>>;
using ModuleEstimateBatchResult =
    BatchResult<std::shared_ptr<const est::ModuleDesign>>;

OpAmpEstimateBatchResult estimate_opamp_batch(
    const est::Process& proc, const std::vector<est::OpAmpSpec>& specs,
    const BatchOptions& options);

ModuleEstimateBatchResult estimate_module_batch(
    const est::Process& proc, const std::vector<est::ModuleSpec>& specs,
    const BatchOptions& options);

}  // namespace ape::runtime
