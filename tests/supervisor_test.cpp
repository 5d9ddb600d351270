/// \file supervisor_test.cpp
/// The supervised batch runtime (DESIGN.md section 10): retry ladder
/// mechanics, deterministic backoff, quarantine circuit breaker, per-job
/// deadlines and cancellation, checkpoint/resume bit-exactness, and the
/// acceptance scenario of the supervision layer — a batch containing a
/// hanging spec, a transiently failing spec and a permanently broken
/// spec finishes with deadline-kill / retry-success / quarantine
/// respectively while clean jobs stay bit-identical to the unsupervised
/// batch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/runtime/batch.h"
#include "src/runtime/cache.h"
#include "src/runtime/supervisor.h"
#include "src/spice/fault.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "src/util/json.h"
#include "src/util/retry.h"

namespace ape::runtime {
namespace {

using est::OpAmpSpec;
using est::Process;

const Process& proc() {
  static const Process p = Process::default_1u2();
  return p;
}

OpAmpSpec clean_spec(int i) {
  OpAmpSpec s;
  s.gain = 120.0 + 10.0 * double(i % 8);
  s.ugf_hz = 2e6 + 0.5e6 * double(i % 4);
  s.ibias = 10e-6;
  s.cload = 10e-12;
  return s;
}

SupervisorOptions fast_supervised_options() {
  SupervisorOptions o;
  o.batch.seed = 2026;
  o.batch.synth.use_ape_seed = true;
  o.batch.synth.anneal.iterations = 120;
  return o;
}

/// Everything deterministic about an outcome, flattened for comparison.
std::vector<double> fingerprint(const synth::SynthesisOutcome& r) {
  std::vector<double> f{r.cost, double(r.functional), double(r.meets_spec),
                        double(r.skipped_candidates), double(r.evaluations),
                        double(r.restarts_run), double(r.best_restart),
                        r.design.perf.gain, r.design.perf.ugf_hz,
                        r.design.perf.gate_area, r.design.perf.cc};
  for (const auto& t : r.design.transistors) {
    f.push_back(t.w);
    f.push_back(t.l);
  }
  for (double x : r.best_x) f.push_back(x);
  return f;
}

void expect_same_outcome(const synth::SynthesisOutcome& a,
                         const synth::SynthesisOutcome& b, size_t job) {
  const auto fa = fingerprint(a);
  const auto fb = fingerprint(b);
  ASSERT_EQ(fa.size(), fb.size()) << "job " << job;
  for (size_t k = 0; k < fa.size(); ++k) {
    EXPECT_EQ(fa[k], fb[k]) << "job " << job << " field " << k;
  }
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// RetryPolicy: rung walking and deterministic backoff.

TEST(SupervisorRetryPolicy, RungLadderInOrder) {
  RetryPolicy p;
  p.plain_retries = 2;
  p.relaxed_retries = 1;
  p.estimate_fallback = true;
  EXPECT_EQ(p.max_attempts(), 5);
  EXPECT_EQ(p.rung(0), RetryRung::Initial);
  EXPECT_EQ(p.rung(1), RetryRung::Retry);
  EXPECT_EQ(p.rung(2), RetryRung::Retry);
  EXPECT_EQ(p.rung(3), RetryRung::Relaxed);
  EXPECT_EQ(p.rung(4), RetryRung::EstimateOnly);
  EXPECT_EQ(p.rung(5), RetryRung::Fail);
  EXPECT_EQ(p.estimate_attempt(), 4);
}

TEST(SupervisorRetryPolicy, PermanentFailuresSkipToEstimate) {
  RetryPolicy p;
  p.plain_retries = 2;
  p.relaxed_retries = 1;
  p.estimate_fallback = true;
  // Transient failures escalate one rung at a time.
  EXPECT_EQ(p.next_rung(ErrorClass::Transient, 0), RetryRung::Retry);
  EXPECT_EQ(p.next_rung(ErrorClass::Transient, 2), RetryRung::Relaxed);
  EXPECT_EQ(p.next_rung(ErrorClass::Transient, 3), RetryRung::EstimateOnly);
  EXPECT_EQ(p.next_rung(ErrorClass::Transient, 4), RetryRung::Fail);
  // Permanent failures jump the retry rungs: re-running cannot help.
  EXPECT_EQ(p.next_rung(ErrorClass::Permanent, 0), RetryRung::EstimateOnly);
  // ... and the estimate failing permanently ends the ladder.
  RetryPolicy bare;
  EXPECT_EQ(bare.max_attempts(), 1);
  EXPECT_EQ(bare.next_rung(ErrorClass::Transient, 0), RetryRung::Fail);
  EXPECT_EQ(bare.next_rung(ErrorClass::Permanent, 0), RetryRung::Fail);
}

TEST(SupervisorRetryPolicy, BackoffIsDeterministicBoundedAndGrows) {
  RetryPolicy p;
  p.backoff_base_s = 0.1;
  p.backoff_factor = 2.0;
  p.backoff_max_s = 1.0;
  p.jitter_frac = 0.25;
  EXPECT_EQ(p.backoff_s(0, 0), 0.0);  // no wait before the first attempt
  for (uint64_t job = 0; job < 4; ++job) {
    for (int attempt = 1; attempt < 6; ++attempt) {
      const double w1 = p.backoff_s(job, attempt);
      const double w2 = p.backoff_s(job, attempt);
      EXPECT_EQ(w1, w2) << "backoff must be a pure function";
      const double nominal =
          std::min(0.1 * std::pow(2.0, attempt - 1), p.backoff_max_s);
      EXPECT_GE(w1, nominal * 0.75 - 1e-12);
      EXPECT_LE(w1, std::min(nominal * 1.25, p.backoff_max_s) + 1e-12);
    }
  }
  // Jitter decorrelates jobs: not every job waits the same.
  EXPECT_NE(p.backoff_s(1, 1), p.backoff_s(2, 1));
  RetryPolicy off;
  EXPECT_EQ(off.backoff_s(3, 2), 0.0);  // base 0 disables waiting
}

// ---------------------------------------------------------------------------
// QuarantineRegistry.

TEST(SupervisorQuarantine, TripsAtThresholdAndReportsWhy) {
  QuarantineRegistry q;
  EXPECT_FALSE(q.quarantined(42));
  EXPECT_FALSE(q.record_failure(42, "boom 1", 3));
  EXPECT_FALSE(q.record_failure(42, "boom 2", 3));
  EXPECT_FALSE(q.quarantined(42));
  EXPECT_TRUE(q.record_failure(42, "boom 3", 3));  // newly quarantined
  std::string why;
  EXPECT_TRUE(q.quarantined(42, &why));
  EXPECT_EQ(why, "boom 3");
  // Further failures do not report "newly quarantined" again.
  EXPECT_FALSE(q.record_failure(42, "boom 4", 3));
  EXPECT_EQ(q.quarantined_count(), 1u);
  q.clear();
  EXPECT_FALSE(q.quarantined(42));
}

TEST(SupervisorQuarantine, SuccessResetsConsecutiveCount) {
  QuarantineRegistry q;
  EXPECT_FALSE(q.record_failure(7, "a", 2));
  q.record_success(7);  // proves the spec viable: counter resets
  EXPECT_FALSE(q.record_failure(7, "b", 2));
  EXPECT_FALSE(q.quarantined(7));
  EXPECT_TRUE(q.record_failure(7, "c", 2));
  EXPECT_TRUE(q.quarantined(7));
}

TEST(SupervisorQuarantine, FingerprintFollowsCacheIdentity) {
  const OpAmpSpec a = clean_spec(0);
  OpAmpSpec b = a;
  EXPECT_EQ(spec_fingerprint(proc(), a), spec_fingerprint(proc(), b));
  b.gain += 1.0;
  EXPECT_NE(spec_fingerprint(proc(), a), spec_fingerprint(proc(), b));
}

// ---------------------------------------------------------------------------
// JSON helpers (the checkpoint substrate).

TEST(SupervisorJson, HexDoubleRoundTripsBitExactly) {
  for (double v : {0.0, -0.0, 1.0, -1.5, 3.141592653589793, 1e-300, -2.5e17,
                   0.07387810247531093}) {
    EXPECT_EQ(json::parse_hex_double(json::hex_double(v)), v);
  }
}

TEST(SupervisorJson, ParsesObjectsArraysAndEscapes) {
  const json::Value doc = json::parse(
      "{\"a\": 1.5, \"b\": [true, false, null], \"s\": \"x\\n\\\"y\\\"\","
      " \"n\": -12}");
  EXPECT_DOUBLE_EQ(doc.find("a")->as_number(), 1.5);
  ASSERT_NE(doc.find("b"), nullptr);
  ASSERT_EQ(doc.find("b")->items.size(), 3u);
  EXPECT_TRUE(doc.find("b")->items[0].as_bool());
  EXPECT_EQ(doc.find("s")->as_string(), "x\n\"y\"");
  EXPECT_EQ(doc.find("n")->as_long(), -12);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(SupervisorJson, MalformedInputThrowsParseError) {
  EXPECT_THROW(json::parse("{\"a\":}"), ParseError);
  EXPECT_THROW(json::parse("[1, 2"), ParseError);
  EXPECT_THROW(json::parse("{} trailing"), ParseError);
  EXPECT_THROW(json::parse("\"unterminated"), ParseError);
  const json::Value doc = json::parse("{\"a\": 1}");
  EXPECT_THROW(doc.find("a")->as_string(), ParseError);
  EXPECT_THROW(doc.as_bool(), ParseError);
}

// ---------------------------------------------------------------------------
// Determinism contract: clean jobs under supervision are bit-identical to
// the unsupervised batch.

TEST(SupervisorBatch, CleanJobsMatchUnsupervisedBatchBitExactly) {
  std::vector<OpAmpSpec> specs;
  for (int i = 0; i < 6; ++i) specs.push_back(clean_spec(i));

  EstimateCache plain_cache;
  BatchOptions plain;
  plain.seed = 2026;
  plain.synth.use_ape_seed = true;
  plain.synth.anneal.iterations = 120;
  plain.threads = 2;
  plain.cache = &plain_cache;
  const auto unsup = run_opamp_batch(proc(), specs, plain);

  EstimateCache sup_cache;
  SupervisorOptions sup = fast_supervised_options();
  sup.batch.threads = 2;
  sup.batch.cache = &sup_cache;
  sup.retry.plain_retries = 2;  // armed, but clean jobs never escalate
  sup.retry.relaxed_retries = 1;
  sup.retry.estimate_fallback = true;
  sup.job_timeout_s = 120.0;
  const auto r = run_supervised_opamp_batch(proc(), specs, sup);

  ASSERT_EQ(r.jobs.size(), specs.size());
  EXPECT_EQ(r.stats.failed, 0);
  EXPECT_EQ(r.supervision.retries, 0);
  EXPECT_EQ(r.supervision.attempts, int(specs.size()));
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(unsup.jobs[i].ok) << unsup.jobs[i].error;
    ASSERT_TRUE(r.jobs[i].ok) << r.jobs[i].error;
    EXPECT_EQ(r.jobs[i].attempts, 1);
    EXPECT_EQ(r.jobs[i].final_rung, RetryRung::Initial);
    EXPECT_FALSE(r.jobs[i].deadline_hit);
    expect_same_outcome(unsup.jobs[i].outcome, r.jobs[i].outcome, i);
  }
}

// ---------------------------------------------------------------------------
// The acceptance scenario: hanging + transient + permanent specs in one
// batch — deadline-kill, retry-success and quarantine respectively, with
// the clean jobs untouched.

TEST(SupervisorBatch, HangingTransientAndPermanentSpecsEachRecover) {
  // Job 0: clean. Job 1: "hangs" (every transient step stalls 10 ms; the
  // unsupervised simulator would grind for many seconds). Job 2: fails
  // transiently on its first attempt only. Job 3: permanently broken
  // spec. Job 4: same broken spec again -> quarantined. Job 5: clean.
  std::vector<OpAmpSpec> specs;
  for (int i = 0; i < 6; ++i) specs.push_back(clean_spec(i));
  specs[3].ibias = -1.0;  // estimator must reject: permanent
  specs[4] = specs[3];    // same fingerprint -> quarantine candidate

  SupervisorOptions sup = fast_supervised_options();
  sup.batch.threads = 1;  // deterministic quarantine order
  EstimateCache cache;
  sup.batch.cache = &cache;
  sup.retry.plain_retries = 1;
  sup.retry.relaxed_retries = 1;
  sup.retry.estimate_fallback = true;
  sup.job_timeout_s = 1.0;
  QuarantineRegistry quarantine;
  sup.quarantine = &quarantine;
  sup.quarantine_threshold = 2;
  sup.fault_setup = [](size_t index, int attempt, spice::FaultInjector& fi) {
    if (index == 1) fi.stall_transient(0.010);           // the hanging spec
    if (index == 2 && attempt == 0) fi.fail_lu_from(0);  // clears on retry
  };
  const auto r = run_supervised_opamp_batch(proc(), specs, sup);
  ASSERT_EQ(r.jobs.size(), 6u);

  // Job 1: the deadline killed the stall; the partial best-so-far outcome
  // is reported instead of hanging the batch.
  EXPECT_TRUE(r.jobs[1].ok) << r.jobs[1].error;
  EXPECT_TRUE(r.jobs[1].deadline_hit);
  EXPECT_GE(r.supervision.deadline_hits, 1);

  // Job 2: first attempt's verification dies on the injected singular LU
  // (sim_failed), the plain retry succeeds cleanly.
  EXPECT_TRUE(r.jobs[2].ok) << r.jobs[2].error;
  EXPECT_EQ(r.jobs[2].attempts, 2);
  EXPECT_EQ(r.jobs[2].final_rung, RetryRung::Retry);
  EXPECT_FALSE(r.jobs[2].outcome.sim_failed);

  // Job 3: permanent estimator failure -> the ladder jumps to the
  // estimate fallback, which fails the same way -> job fails and the
  // second failed attempt trips the quarantine.
  EXPECT_FALSE(r.jobs[3].ok);
  EXPECT_EQ(r.jobs[3].attempts, 2);
  EXPECT_FALSE(r.jobs[3].quarantined) << "job 3 itself ran, not skipped";
  EXPECT_GE(r.supervision.quarantined_new, 1);

  // Job 4: same fingerprint, already quarantined -> skipped without
  // burning any attempts, carrying the recorded provenance.
  EXPECT_FALSE(r.jobs[4].ok);
  EXPECT_TRUE(r.jobs[4].quarantined);
  EXPECT_EQ(r.jobs[4].attempts, 0);
  EXPECT_NE(r.jobs[4].error.find("quarantined"), std::string::npos)
      << r.jobs[4].error;
  EXPECT_EQ(r.supervision.quarantine_skips, 1);

  // Clean jobs 0 and 5 are bit-identical to an unsupervised batch over
  // the same spec vector (same indices -> same derived seed streams).
  BatchOptions plain;
  plain.seed = sup.batch.seed;
  plain.synth = sup.batch.synth;
  plain.threads = 1;
  EstimateCache plain_cache;
  plain.cache = &plain_cache;
  const auto unsup = run_opamp_batch(proc(), specs, plain);
  for (size_t i : {size_t(0), size_t(5)}) {
    ASSERT_TRUE(unsup.jobs[i].ok) << unsup.jobs[i].error;
    ASSERT_TRUE(r.jobs[i].ok) << r.jobs[i].error;
    expect_same_outcome(unsup.jobs[i].outcome, r.jobs[i].outcome, i);
  }
}

// A spec proven infeasible over the whole sizing box (APE-F001,
// src/lint/prove.h) is a fact about the input, not a flaky pipeline:
// with lint_first on, the ladder must reject it pre-solve as Permanent —
// one LintError attempt, straight to the estimate-only fallback, no
// retry rungs burned, quarantine untouched. Before the prover this exact
// spec ran a full synthesis (thousands of cost evaluations) per attempt.
TEST(SupervisorBatch, ProvenInfeasibleSpecSkipsLadderPreSolve) {
  OpAmpSpec impossible = clean_spec(0);
  // Minimum-geometry gate area over the box is ~3.84e-11 m^2; a budget
  // below it is provably unmeetable — yet the estimator (which treats
  // the budget as informational) happily estimates it, so without the
  // prover this spec grinds through a full synthesis per attempt.
  impossible.area_budget = 1e-11;

  SupervisorOptions sup = fast_supervised_options();
  sup.batch.threads = 1;
  sup.batch.lint_first = true;
  sup.retry.plain_retries = 2;  // would be burned if the verdict retried
  sup.retry.relaxed_retries = 1;
  sup.retry.estimate_fallback = true;
  QuarantineRegistry quarantine;
  sup.quarantine = &quarantine;
  sup.quarantine_threshold = 1;  // hair trigger: any counted failure trips

  const auto r =
      run_supervised_opamp_batch(proc(), {impossible}, sup);
  ASSERT_EQ(r.jobs.size(), 1u);

  // Attempt 1 throws the APE-F001 LintError before any solve; attempt 2
  // is the estimate-only fallback. No plain/relaxed retry ever ran.
  EXPECT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_EQ(r.jobs[0].attempts, 2);
  EXPECT_EQ(r.jobs[0].final_rung, RetryRung::EstimateOnly);
  EXPECT_EQ(r.jobs[0].outcome.comment, "estimate-only fallback");
  EXPECT_EQ(r.jobs[0].outcome.evaluations, 0) << "a solve ran after the proof";
  EXPECT_EQ(r.supervision.estimate_fallbacks, 1);
  EXPECT_EQ(r.supervision.retries, 1) << "only the rung hop, no retry ladder";

  // The verdict is deterministic input badness: even with the
  // hair-trigger threshold the quarantine registry stays empty.
  EXPECT_EQ(quarantine.quarantined_count(), 0u);
  EXPECT_EQ(r.supervision.quarantined_new, 0);

  // A plain batch is supervised with the default policy (one attempt, no
  // fallback): the refuted job fails with the prover's verdict and its
  // provenance, after one attempt and no search.
  BatchOptions plain = fast_supervised_options().batch;
  plain.threads = 1;
  plain.lint_first = true;
  const auto p = run_opamp_batch(proc(), {impossible}, plain);
  ASSERT_EQ(p.jobs.size(), 1u);
  EXPECT_FALSE(p.jobs[0].ok);
  EXPECT_NE(p.jobs[0].error.find("proven infeasible"), std::string::npos)
      << p.jobs[0].error;
  EXPECT_NE(p.jobs[0].error.find("opamp_batch[0]"), std::string::npos)
      << p.jobs[0].error;
  EXPECT_EQ(p.jobs[0].outcome.evaluations, 0);
  EXPECT_EQ(p.supervision.attempts, 1);

  // Without the prover the same spec burns a real synthesis run.
  SupervisorOptions blind = fast_supervised_options();
  blind.batch.threads = 1;
  blind.batch.lint_first = false;
  const auto b = run_supervised_opamp_batch(proc(), {impossible}, blind);
  ASSERT_TRUE(b.jobs[0].ok) << b.jobs[0].error;
  EXPECT_GT(b.jobs[0].outcome.evaluations, 0);
}

TEST(SupervisorBatch, PersistentSimFailureKeepsBestSoFarOutcome) {
  // Verification fails on every attempt: the ladder must keep the
  // synthesized best-so-far design (sim_failed) rather than discard it
  // for a bare estimate or an empty failure.
  std::vector<OpAmpSpec> specs{clean_spec(0)};
  SupervisorOptions sup = fast_supervised_options();
  sup.batch.threads = 1;
  sup.retry.plain_retries = 1;
  sup.retry.relaxed_retries = 0;
  sup.retry.estimate_fallback = true;
  sup.fault_setup = [](size_t, int, spice::FaultInjector& fi) {
    fi.fail_lu_from(0);  // every verification LU solve dies, every attempt
  };
  const auto r = run_supervised_opamp_batch(proc(), specs, sup);
  ASSERT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_TRUE(r.jobs[0].outcome.sim_failed);
  EXPECT_FALSE(r.jobs[0].estimate_fallback);
  EXPECT_EQ(r.jobs[0].attempts, 2);  // initial + plain retry, then stop
  EXPECT_FALSE(r.jobs[0].outcome.best_x.empty());
  EXPECT_EQ(r.supervision.estimate_fallbacks, 0);
}

TEST(SupervisorBatch, CancelTokenStopsTheWholeRun) {
  std::vector<OpAmpSpec> specs;
  for (int i = 0; i < 8; ++i) specs.push_back(clean_spec(i));
  CancelToken cancel;
  SupervisorOptions sup = fast_supervised_options();
  sup.batch.threads = 1;
  sup.cancel = &cancel;
  int completed = 0;
  sup.on_job_done = [&](size_t, bool) {
    if (++completed == 3) cancel.cancel();
  };
  const auto r = run_supervised_opamp_batch(proc(), specs, sup);
  ASSERT_EQ(r.jobs.size(), 8u);
  int ok = 0, cancelled = 0;
  for (const auto& j : r.jobs) {
    if (j.ok) ++ok;
    if (j.cancelled) {
      ++cancelled;
      EXPECT_NE(j.error.find("cancelled"), std::string::npos) << j.error;
    }
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(cancelled, 5);
  EXPECT_EQ(r.supervision.cancelled_jobs, 5);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume.

TEST(SupervisorCheckpoint, FullRunRoundTripsBitExactly) {
  std::vector<OpAmpSpec> specs;
  for (int i = 0; i < 5; ++i) specs.push_back(clean_spec(i));
  const std::string ckpt = temp_path("sup_full.ckpt");

  SupervisorOptions sup = fast_supervised_options();
  sup.batch.threads = 2;
  sup.checkpoint_path = ckpt;
  sup.checkpoint_every = 2;
  const auto first = run_supervised_opamp_batch(proc(), specs, sup);
  ASSERT_EQ(first.stats.failed, 0);
  EXPECT_GE(first.supervision.checkpoints_written, 2);

  // Resume from the complete checkpoint: nothing re-runs, everything is
  // restored bit-identically (including the re-derived simulator fields).
  SupervisorOptions resume = fast_supervised_options();
  resume.batch.threads = 2;
  resume.resume_path = ckpt;
  const auto second = run_supervised_opamp_batch(proc(), specs, resume);
  ASSERT_EQ(second.jobs.size(), specs.size());
  EXPECT_EQ(second.supervision.resumed_jobs, int(specs.size()));
  EXPECT_EQ(second.supervision.attempts, 0);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(second.jobs[i].resumed);
    ASSERT_TRUE(second.jobs[i].ok) << second.jobs[i].error;
    expect_same_outcome(first.jobs[i].outcome, second.jobs[i].outcome, i);
    EXPECT_EQ(first.jobs[i].outcome.sim.gain, second.jobs[i].outcome.sim.gain);
    EXPECT_EQ(first.jobs[i].outcome.comment, second.jobs[i].outcome.comment);
  }
  std::remove(ckpt.c_str());
}

TEST(SupervisorCheckpoint, ResumeAfterMidRunCancelMatchesUninterrupted) {
  std::vector<OpAmpSpec> specs;
  for (int i = 0; i < 8; ++i) specs.push_back(clean_spec(i));

  // Reference: one uninterrupted supervised run.
  SupervisorOptions ref_opts = fast_supervised_options();
  ref_opts.batch.threads = 1;
  const auto ref = run_supervised_opamp_batch(proc(), specs, ref_opts);
  ASSERT_EQ(ref.stats.failed, 0);

  // Interrupted run: cancel after 4 completions; the checkpoint records
  // the finished jobs and marks cancelled jobs unfinished.
  const std::string ckpt = temp_path("sup_midrun.ckpt");
  CancelToken cancel;
  SupervisorOptions interrupted = fast_supervised_options();
  interrupted.batch.threads = 1;
  interrupted.checkpoint_path = ckpt;
  interrupted.cancel = &cancel;
  int completed = 0;
  interrupted.on_job_done = [&](size_t, bool) {
    if (++completed == 4) cancel.cancel();
  };
  const auto partial = run_supervised_opamp_batch(proc(), specs, interrupted);
  int finished = 0;
  for (const auto& j : partial.jobs) finished += j.ok ? 1 : 0;
  ASSERT_EQ(finished, 4);

  // Resume at 1 thread and at 8 threads: both reproduce the
  // uninterrupted run bit-identically.
  for (int threads : {1, 8}) {
    SupervisorOptions resume = fast_supervised_options();
    resume.batch.threads = threads;
    resume.resume_path = ckpt;
    const auto r = run_supervised_opamp_batch(proc(), specs, resume);
    ASSERT_EQ(r.jobs.size(), specs.size());
    EXPECT_EQ(r.supervision.resumed_jobs, 4);
    int resumed = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(r.jobs[i].ok)
          << "threads=" << threads << ": " << r.jobs[i].error;
      resumed += r.jobs[i].resumed ? 1 : 0;
      expect_same_outcome(ref.jobs[i].outcome, r.jobs[i].outcome, i);
    }
    EXPECT_EQ(resumed, 4);
  }
  std::remove(ckpt.c_str());
}

TEST(SupervisorCheckpoint, MismatchedResumeIsRejected) {
  std::vector<OpAmpSpec> specs{clean_spec(0), clean_spec(1)};
  const std::string ckpt = temp_path("sup_mismatch.ckpt");
  SupervisorOptions sup = fast_supervised_options();
  sup.batch.threads = 1;
  sup.checkpoint_path = ckpt;
  (void)run_supervised_opamp_batch(proc(), specs, sup);

  SupervisorOptions resume = fast_supervised_options();
  resume.batch.threads = 1;
  resume.resume_path = ckpt;

  // Different seed -> different run identity.
  SupervisorOptions wrong_seed = resume;
  wrong_seed.batch.seed = 9999;
  EXPECT_THROW(run_supervised_opamp_batch(proc(), specs, wrong_seed),
               ParseError);

  // Different spec content -> fingerprint mismatch.
  auto edited = specs;
  edited[1].gain += 25.0;
  EXPECT_THROW(run_supervised_opamp_batch(proc(), edited, resume), ParseError);

  // Different job count.
  auto extended = specs;
  extended.push_back(clean_spec(2));
  EXPECT_THROW(run_supervised_opamp_batch(proc(), extended, resume),
               ParseError);

  // Missing / unreadable checkpoint file.
  SupervisorOptions missing = fast_supervised_options();
  missing.resume_path = temp_path("does_not_exist.ckpt");
  EXPECT_THROW(run_supervised_opamp_batch(proc(), specs, missing), ParseError);
  std::remove(ckpt.c_str());
}

TEST(SupervisorCheckpoint, ModuleBatchesRejectCheckpointOptions) {
  std::vector<est::ModuleSpec> specs(1);
  specs[0].kind = est::ModuleKind::AudioAmp;
  specs[0].gain = 100.0;
  specs[0].bw_hz = 20e3;
  SupervisorOptions sup;
  sup.checkpoint_path = temp_path("mod.ckpt");
  EXPECT_THROW(run_supervised_module_batch(proc(), specs, sup), SpecError);
}

// ---------------------------------------------------------------------------
// Supervised module batches share the ladder.

TEST(SupervisorBatch, ModuleLadderRecoversAndIsolates) {
  using est::ModuleKind;
  using est::ModuleSpec;
  std::vector<ModuleSpec> specs(2);
  specs[0].kind = ModuleKind::AudioAmp;
  specs[0].gain = 100.0;
  specs[0].bw_hz = 20e3;
  specs[1].kind = ModuleKind::Integrator;  // not synthesizable: permanent

  SupervisorOptions sup;
  sup.batch.seed = 5;
  sup.batch.synth.use_ape_seed = true;
  sup.batch.synth.anneal.iterations = 60;
  sup.batch.threads = 1;
  sup.retry.plain_retries = 1;
  const auto r = run_supervised_module_batch(proc(), specs, sup);
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_EQ(r.jobs[0].attempts, 1);
  EXPECT_FALSE(r.jobs[1].ok);
  // Permanent failure, no estimate fallback configured: one attempt only.
  EXPECT_EQ(r.jobs[1].attempts, 1);
  EXPECT_EQ(r.stats.failed, 1);
}

}  // namespace
}  // namespace ape::runtime
