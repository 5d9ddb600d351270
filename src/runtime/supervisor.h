#pragma once
/// \file supervisor.h
/// Supervised batch runtime (DESIGN.md section 10): deadlines,
/// cancellation, retry/backoff recovery ladders, spec quarantine and
/// checkpoint/resume around every batch job.
///
/// There is one batch path: run_opamp_batch / run_module_batch
/// (batch.h) are supervised batches with the default SupervisorOptions
/// — a single attempt, no fallback, no deadline — so a plain job and a
/// clean supervised job are the same code. Under the default policy a
/// throwing job ends ok=false with its provenance-annotated error and a
/// sim_failed outcome is returned as-is. The knobs below add per-job
/// error *recovery*:
///
///  - Deadlines & cancellation: every job runs under a per-job RunBudget
///    (wall-clock deadline + the run's CancelToken) installed as the
///    job context's budget (JobContext::budget) by ScopedBudget, so every
///    solver loop — Newton ladders, dc_sweep, transient sub-stepping, AC
///    points, the anneal loop — doubles as a cooperative stop point. The
///    job budget chains to any budget around the batch call (a serve
///    request's), so that budget's deadline and token stop the job too. A job past
///    its deadline stops at the next probe and reports its best-so-far
///    outcome (deadline_hit = true) instead of hanging the batch.
///  - Retry ladder: failures are classified by ErrorClass (error.h) and
///    walked through the RetryPolicy rungs (retry.h): plain retry ->
///    relaxed solver tolerances (JobContext::relaxation) -> APE
///    estimate-only fallback -> fail, with deterministic exponential
///    backoff between attempts. Permanent failures skip straight to the
///    estimate fallback. Simulator-verification failures (sim_failed
///    outcomes) escalate the same way but never discard a synthesized
///    design for a bare estimate: they keep the best-so-far outcome.
///  - Quarantine: a spec failing quarantine_threshold consecutive
///    jobs (each failed job counts once, when its ladder runs out,
///    however many attempts it burned) is quarantined in the
///    (shareable) QuarantineRegistry with
///    its full provenance-annotated error; later jobs with the same
///    content fingerprint fail fast instead of burning their ladder.
///    Quarantine state is advisory and timing-dependent across thread
///    counts (like a shared RunBudget); determinism tests run without a
///    registry.
///  - Checkpoint/resume (opamp batches): the run periodically writes a
///    JSON checkpoint of every finished job — the winning annealer point
///    best_x as bit-exact hex floats plus the search counters — and
///    --resume restarts only the unfinished jobs. Because job i's seed is
///    the pure stream derive_stream(seed, i) and the outcome tail is a
///    pure function of (process, spec, best_x) (finalize_opamp_outcome),
///    a resumed run reproduces the uninterrupted results bit-identically
///    at any thread count. No RNG state needs persisting.
///
/// Determinism contract: a job that never escalates (no faults, no
/// deadline) does exactly the work of its first attempt, so its outcome
/// does not depend on the retry policy armed around it.

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/runtime/batch.h"
#include "src/spice/fault.h"
#include "src/util/diagnostics.h"
#include "src/util/retry.h"

namespace ape::runtime {

/// Content fingerprint of a (process, spec) pair: 64-bit FNV-1a over the
/// same binary key the EstimateCache uses (cache_key: IEEE bit patterns
/// and length-prefixed names in a fixed little-endian layout, see
/// cache.h), so two jobs share a quarantine / checkpoint identity exactly
/// when they would share a cache entry, barring a 64-bit hash collision.
/// The byte order is fixed, so a checkpoint's fingerprints match on any
/// host; a change to the key's layout changes every fingerprint and
/// needs a new checkpoint version (supervisor.cpp).
uint64_t spec_fingerprint(const est::Process& proc, const est::OpAmpSpec& spec);
uint64_t spec_fingerprint(const est::Process& proc, const est::ModuleSpec& spec);

/// Circuit breaker over spec fingerprints (THREAD-SAFETY RULE category
/// (c): explicitly synchronized, shareable across batches and threads).
/// Quarantine decisions depend on attempt completion order, so runs that
/// must be bit-identical across thread counts use no registry.
class QuarantineRegistry {
public:
  /// True when \p fp is quarantined; *why receives the recorded error.
  bool quarantined(uint64_t fp, std::string* why = nullptr) const;

  /// Record one failed job. Once \p threshold consecutive failures
  /// accumulate the fingerprint is quarantined with \p error (the first
  /// quarantining error wins). Returns true when this call newly
  /// quarantined the fingerprint.
  bool record_failure(uint64_t fp, const std::string& error, int threshold);

  /// Reset the consecutive-failure counter (a success proves the spec
  /// viable; an already-quarantined fingerprint stays quarantined).
  void record_success(uint64_t fp);

  size_t quarantined_count() const;
  void clear();

private:
  struct State {
    int consecutive = 0;
    bool quarantined = false;
    std::string error;  ///< provenance-annotated error that tripped it
  };
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, State> map_;
};

struct SupervisorOptions {
  /// The underlying batch configuration (threads, seed, synth template,
  /// cache, lint-first).
  BatchOptions batch;

  /// The recovery ladder (see retry.h). The default policy is a single
  /// attempt with no fallback — what the plain batches run; supervision
  /// without retries still provides deadlines, cancellation, quarantine
  /// and checkpointing.
  RetryPolicy retry;

  /// Per-job wall-clock deadline in seconds (0 = none). The deadline
  /// covers the job's whole ladder, not each attempt.
  double job_timeout_s = 0.0;

  /// Optional cancellation token for the whole run (not owned). Jobs in
  /// flight stop at their next probe point; unstarted jobs fail fast.
  /// Cancelled jobs are recorded as unfinished in checkpoints so a
  /// resumed run re-executes them.
  const CancelToken* cancel = nullptr;

  /// Optional shared quarantine registry (not owned; nullptr disables
  /// quarantine entirely).
  QuarantineRegistry* quarantine = nullptr;
  /// Consecutive failed jobs before a fingerprint is quarantined.
  int quarantine_threshold = 3;

  /// Checkpoint file path ("" disables checkpointing). Written
  /// atomically (tmp + rename) after every checkpoint_every completed
  /// jobs and once at the end. Opamp batches only.
  std::string checkpoint_path;
  int checkpoint_every = 1;

  /// Resume from this checkpoint ("" = fresh run): finished jobs are
  /// restored (resumed = true) and only unfinished jobs execute. The
  /// checkpoint must match the current run's seed, job count and per-job
  /// spec fingerprints, else the run fails with a ParseError.
  std::string resume_path;

  /// Progress hook, invoked serialized (under the batch runner's lock)
  /// after each job completes. Tests use it to fire the CancelToken
  /// mid-run deterministically.
  std::function<void(size_t index, bool ok)> on_job_done;

  /// Test hook: configure a per-attempt FaultInjector for (job, attempt)
  /// before the attempt runs on its worker thread. Installed injectors
  /// are scoped to the attempt; keying on (job, attempt) keeps fault
  /// schedules deterministic at any thread count (JobContext::fork drops
  /// the submitting thread's injector, so it never reaches pool workers).
  std::function<void(size_t index, int attempt, spice::FaultInjector&)>
      fault_setup;
};

/// Supervised opamp synthesis batch (see file comment).
OpAmpBatchResult run_supervised_opamp_batch(
    const est::Process& proc, const std::vector<est::OpAmpSpec>& specs,
    const SupervisorOptions& options);

/// Supervised module synthesis batch. Same ladder / deadlines /
/// quarantine; checkpoint/resume is not supported for modules (their
/// outcome tail is not yet reconstructible from best_x alone) — setting
/// checkpoint_path or resume_path throws a SpecError.
ModuleBatchResult run_supervised_module_batch(
    const est::Process& proc, const std::vector<est::ModuleSpec>& specs,
    const SupervisorOptions& options);

/// One supervised opamp job on the *calling* thread — the per-request
/// lifecycle of the estimation service (src/serve, DESIGN.md section
/// 11): the full retry ladder, deadline/cancellation and quarantine
/// semantics of a batch job, without a batch's fan-out, checkpointing or
/// its private Executor. checkpoint_path / resume_path must be empty
/// (throws SpecError); options.batch.threads only bounds multi-start
/// restart workers inside the attempt. \p stats, when non-null, receives
/// the ladder's accounting merged in (callers aggregate across
/// requests). \p index keys the deterministic seed stream and backoff
/// jitter, exactly like a batch job's position.
OpAmpJobResult run_supervised_opamp_job(const est::Process& proc,
                                        const est::OpAmpSpec& spec,
                                        const SupervisorOptions& options,
                                        size_t index = 0,
                                        SupervisionStats* stats = nullptr);

}  // namespace ape::runtime
