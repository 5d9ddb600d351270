#include "src/runtime/supervisor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "src/lint/lint.h"
#include "src/runtime/runner.h"
#include "src/util/error.h"
#include "src/util/json.h"

namespace ape::runtime {
namespace {

/// Comment of an outcome produced by the EstimateOnly rung.
constexpr const char* kEstimateFallback = "estimate-only fallback";

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

RetryRung rung_from_string(const std::string& s) {
  for (RetryRung r : {RetryRung::Initial, RetryRung::Retry,
                      RetryRung::NumericRecovery, RetryRung::Relaxed,
                      RetryRung::EstimateOnly, RetryRung::Fail}) {
    if (s == to_string(r)) return r;
  }
  throw ParseError("checkpoint: unknown retry rung '" + s + "'");
}

/// Run job \p index's full recovery ladder (see supervisor.h) into \p r.
/// Every attempt — a synthesis attempt (detail::run_one) or the
/// estimate fallback — runs on the current (worker) thread under the
/// job's budget and, on relaxed rungs, JobContext::relaxed, both set in
/// the job context.
template <class Spec, class Outcome>
void supervise_one(const est::Process& proc, const Spec& spec, size_t index,
                   uint64_t fp, const SupervisorOptions& options,
                   SupervisionStats& stats, JobResult<Outcome>& r) {
  const RetryPolicy& policy = options.retry;

  if (options.quarantine != nullptr) {
    std::string why;
    if (options.quarantine->quarantined(fp, &why)) {
      r.quarantined = true;
      r.error = annotate_with_context("quarantined: " + why);
      ++stats.quarantine_skips;
      return;
    }
  }

  // One budget for the whole ladder: the deadline bounds the job, not
  // each attempt. Installed in the job context so every solver poll site
  // below (Newton ladders, sweeps, transient sub-steps, AC points, the
  // anneal loop) observes it without options plumbing; chained to the
  // caller's budget, so an enclosing deadline or cancel bounds it too.
  RunBudget budget;
  if (options.job_timeout_s > 0.0) budget.set_deadline_in(options.job_timeout_s);
  if (options.cancel != nullptr) budget.attach_cancel(options.cancel);
  ScopedBudget job(budget);

  Outcome best{};
  bool have_best = false;
  int attempt = 0;
  RetryRung rung = RetryRung::Initial;
  std::string last_error;

  // The one stop check, made before every attempt and right after a
  // synthesis attempt returns (a throwing attempt reaches it through the
  // loop). Cancellation wins over the deadline; a job stopped by its
  // deadline keeps its best-so-far outcome, \p partial included.
  auto stopped = [&](Outcome* partial) {
    if (budget.cancelled()) {
      r.cancelled = true;
      r.ok = false;
      r.error = annotate_with_context("cancelled");
      ++stats.cancelled_jobs;
      return true;
    }
    if (!budget.exhausted()) return false;
    r.deadline_hit = true;
    ++stats.deadline_hits;
    if (partial != nullptr) {
      best = std::move(*partial);
      have_best = true;
    }
    if (have_best) {
      // Partial but reportable.
      r.outcome = std::move(best);
      r.ok = true;
    } else {
      r.error = annotate_with_context(
          std::string("deadline exceeded") +
          (last_error.empty() ? "" : " (last attempt: " + last_error + ")"));
    }
    return true;
  };
  // Set once a lint/feasibility verdict (LintError, e.g. APE-F001) has
  // fired for this job: the spec is provably defective, which is a fact
  // about the *input*, not flakiness of the pipeline — so neither the
  // verdict nor the follow-on estimate-fallback failure may feed the
  // quarantine registry (it tracks fingerprints that fail *unexpectedly*).
  bool lint_verdict = false;
  bool attempt_failed = false;
  auto record_attempt_failure = [&](const std::string& error) {
    last_error = error;
    attempt_failed = true;
  };
  // The breaker counts failed jobs, not attempts: one job whose every
  // rung failed is one strike, recorded when its ladder runs out.
  auto record_job_failure = [&]() {
    if (attempt_failed && !lint_verdict && options.quarantine != nullptr &&
        options.quarantine->record_failure(fp, last_error,
                                           options.quarantine_threshold)) {
      ++stats.quarantined_new;
    }
  };
  auto escalate = [&](ErrorClass klass) {
    rung = policy.next_rung(klass, attempt);
    // A permanent failure jumps straight to the estimate fallback; the
    // attempt ordinal must jump with it, so a *failing* estimate then
    // maps to Fail instead of re-entering the EstimateOnly rung.
    attempt = rung == RetryRung::EstimateOnly
                  ? std::max(policy.estimate_attempt(), attempt + 1)
                  : attempt + 1;
  };

  for (;;) {
    if (stopped(nullptr)) return;
    if (rung == RetryRung::Fail) break;

    r.final_rung = rung;
    ++r.attempts;
    ++stats.attempts;
    if (attempt > 0) ++stats.retries;
    if (rung == RetryRung::Relaxed) ++stats.relaxed_attempts;
    if (rung == RetryRung::NumericRecovery) ++stats.numeric_recovery_attempts;

    ErrorContext attempt_scope("attempt[" + std::to_string(attempt) + "](" +
                               to_string(rung) + ")");
    // Per-attempt fault injection (tests): configured and installed here,
    // on the worker thread, because JobContext::fork drops the submitting
    // thread's injector (its counters and Rng are unsynchronized).
    spice::FaultInjector injector;
    if (options.fault_setup) options.fault_setup(index, attempt, injector);
    ScopedJobContext attempt_context([&](JobContext& c) {
      if (rung == RetryRung::Relaxed) c.relaxed = true;
      // The numeric-recovery rung re-runs the attempt with the health
      // layer forced on: every solve equilibrates, estimates its
      // condition and refines (DESIGN.md section 15).
      if (rung == RetryRung::NumericRecovery) {
        c.health_mode = NumericHealthMode::Force;
      }
      if (options.fault_setup) c.fault_injector = &injector;
    });

    try {
      if (rung == RetryRung::EstimateOnly) {
        r.outcome = detail::estimate_outcome(proc, spec, options.batch,
                                              kEstimateFallback);
        r.ok = true;
        r.estimate_fallback = true;
        ++stats.estimate_fallbacks;
        record_job_failure();
        return;
      }
      Outcome out = detail::run_one(proc, spec, index, options.batch);
      // The deadline may have fired mid-attempt while the search still
      // returned (the anneal loop stops cooperatively): keep that result.
      if (stopped(&out)) return;
      if (out.sim_failed) {
        // Synthesis finished but the simulator verification threw —
        // usually transient non-convergence the Relaxed rung can clear.
        // Keep the outcome: if the ladder runs dry, best-so-far beats an
        // empty failure, and the EstimateOnly rung would *discard* a
        // synthesized design for a bare estimate, so stop before it.
        best = std::move(out);
        have_best = true;
        record_attempt_failure(annotate_with_context(
            "simulator verification failed (best-so-far outcome kept)"));
        const RetryRung next = policy.next_rung(ErrorClass::Transient, attempt);
        ++attempt;
        if (next == RetryRung::EstimateOnly || next == RetryRung::Fail) break;
        rung = next;
        continue;
      }
      r.outcome = std::move(out);
      r.ok = true;
      if (options.quarantine != nullptr) options.quarantine->record_success(fp);
      return;
    } catch (const lint::LintError& e) {
      lint_verdict = true;
      record_attempt_failure(e.what());
      escalate(e.klass());  // Permanent: straight to the estimate fallback
    } catch (const Error& e) {
      record_attempt_failure(e.what());
      escalate(e.klass());
    } catch (const std::exception& e) {
      // Non-ape exceptions carry no taxonomy; treat them as transient
      // (same safe default as the MemoCache negative-caching policy).
      record_attempt_failure(annotate_with_context(e.what()));
      escalate(ErrorClass::Transient);
    }
  }

  // Ladder exhausted.
  record_job_failure();
  if (have_best) {
    r.outcome = std::move(best);
    r.ok = true;
  } else {
    r.error = last_error.empty()
                  ? annotate_with_context("retry ladder exhausted")
                  : last_error;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint format (opamp batches), version 3:
//
//   { "version": 3, "kind": "opamp", "seed": "<u64 decimal>",
//     "jobs": [ { "index": i, "fp": "<u64 decimal>", "done": bool,
//                 "ok": bool, "error": "...", "attempts": n,
//                 "rung": "initial|retry|relaxed|estimate-only|fail",
//                 "deadline_hit": b, "quarantined": b,
//                 "estimate_fallback": b,
//                 "cost": "<hex-float>", "evaluations": n, "skipped": n,
//                 "nonfinite": n, "bias_solved": n, "bias_reused": n,
//                 "budget_exhausted": b,
//                 "restarts_run": n, "best_restart": n,
//                 "sim_failed": b, "functional": b, "meets_spec": b,
//                 "comment": "...", "best_x": ["<hex-float>", ...] }, ... ] }
//
// best_x as hex floats is the whole trick: design, simulator report and
// Table-1 diagnosis are pure functions of (process, spec, best_x)
// (finalize_opamp_outcome), and job seeds are pure streams of (seed, i),
// so no RNG state and no design serialization are needed for bit-exact
// resume. Cancelled jobs are written done=false so a resume re-runs them.
//
// "fp" is spec_fingerprint, FNV-1a over the binary cache key (cache.h).
// Version 3 is the first with that key; version 2 hashed the earlier
// hex-float text key, so its fingerprints can never match, and version 1
// also lacked bias_solved / bias_reused. Both are refused.

constexpr long kCheckpointVersion = 3;

std::string checkpoint_json(uint64_t seed, const std::vector<uint64_t>& fps,
                            const std::vector<OpAmpJobResult>& jobs,
                            const std::vector<char>& done) {
  json::Writer w;
  w.begin_object()
      .field("version", kCheckpointVersion)
      .field("kind", "opamp")
      .field("seed", std::to_string(seed))
      .key("jobs")
      .begin_array();
  for (size_t i = 0; i < jobs.size(); ++i) {
    const OpAmpJobResult& j = jobs[i];
    const synth::SynthesisOutcome& o = j.outcome;
    w.begin_object()
        .field("index", i)
        .field("fp", std::to_string(fps[i]))
        .field("done", done[i] != 0)
        .field("ok", j.ok)
        .field("error", j.error)
        .field("attempts", j.attempts)
        .field("rung", to_string(j.final_rung))
        .field("deadline_hit", j.deadline_hit)
        .field("quarantined", j.quarantined)
        .field("estimate_fallback", j.estimate_fallback)
        .field("cost", json::hex_double(o.cost))
        .field("evaluations", o.evaluations)
        .field("skipped", o.skipped_candidates)
        .field("nonfinite", o.rejected_nonfinite)
        .field("bias_solved", o.bias_stages.solved)
        .field("bias_reused", o.bias_stages.reused)
        .field("budget_exhausted", o.budget_exhausted)
        .field("restarts_run", o.restarts_run)
        .field("best_restart", o.best_restart)
        .field("sim_failed", o.sim_failed)
        .field("functional", o.functional)
        .field("meets_spec", o.meets_spec)
        .field("comment", o.comment)
        .key("best_x")
        .begin_array();
    for (const double x : o.best_x) w.value(json::hex_double(x));
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return w.str() + "\n";
}

void write_checkpoint(const std::string& path, uint64_t seed,
                      const std::vector<uint64_t>& fps,
                      const std::vector<OpAmpJobResult>& jobs,
                      const std::vector<char>& done) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) throw Error("checkpoint: cannot write '" + tmp + "'");
    f << checkpoint_json(seed, fps, jobs, done);
    if (!f.good()) throw Error("checkpoint: write to '" + tmp + "' failed");
  }
  // Atomic publication: a reader (or a crash) sees the old checkpoint or
  // the new one, never a torn file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("checkpoint: cannot rename '" + tmp + "' to '" + path + "'");
  }
}

uint64_t parse_u64(const json::Value& v, const char* what) {
  const std::string& s = v.as_string();
  char* end = nullptr;
  const uint64_t value = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || end == s.c_str() || *end != '\0') {
    throw ParseError(std::string("checkpoint: bad ") + what + " '" + s + "'");
  }
  return value;
}

const json::Value& require(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) {
    throw ParseError(std::string("checkpoint: missing field '") + key + "'");
  }
  return *v;
}

/// Restore finished jobs from \p path into jobs/done. Validates that the
/// checkpoint belongs to this exact run (seed, job count, per-job spec
/// fingerprints) before touching anything.
void restore_checkpoint(const std::string& path, const est::Process& proc,
                        const std::vector<est::OpAmpSpec>& specs,
                        const SupervisorOptions& options,
                        const std::vector<uint64_t>& fps,
                        std::vector<OpAmpJobResult>& jobs,
                        std::vector<char>& done, SupervisionStats& stats) {
  ErrorContext scope("resume('" + path + "')");
  std::ifstream f(path);
  if (!f) throw ParseError("checkpoint: cannot read '" + path + "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  const json::Value doc = json::parse(buf.str());

  if (require(doc, "version").as_long() != kCheckpointVersion) {
    throw ParseError("checkpoint: unsupported version");
  }
  if (require(doc, "kind").as_string() != "opamp") {
    throw ParseError("checkpoint: kind is not 'opamp'");
  }
  if (parse_u64(require(doc, "seed"), "seed") != options.batch.seed) {
    throw ParseError("checkpoint: seed does not match this run");
  }
  const json::Value& entries = require(doc, "jobs");
  if (entries.items.size() != specs.size()) {
    throw ParseError("checkpoint: job count " +
                     std::to_string(entries.items.size()) +
                     " does not match spec count " +
                     std::to_string(specs.size()));
  }

  for (const json::Value& e : entries.items) {
    const size_t i = static_cast<size_t>(require(e, "index").as_long());
    if (i >= specs.size()) throw ParseError("checkpoint: job index out of range");
    if (parse_u64(require(e, "fp"), "fp") != fps[i]) {
      throw ParseError("checkpoint: spec fingerprint mismatch at job " +
                       std::to_string(i) + " (different spec file or process?)");
    }
    if (!require(e, "done").as_bool()) continue;

    OpAmpJobResult r;
    r.index = i;
    r.ok = require(e, "ok").as_bool();
    r.error = require(e, "error").as_string();
    r.attempts = static_cast<int>(require(e, "attempts").as_long());
    r.final_rung = rung_from_string(require(e, "rung").as_string());
    r.deadline_hit = require(e, "deadline_hit").as_bool();
    r.quarantined = require(e, "quarantined").as_bool();
    r.estimate_fallback = require(e, "estimate_fallback").as_bool();
    r.resumed = true;

    if (r.ok) {
      const bool sim_failed = require(e, "sim_failed").as_bool();
      const double cost = require(e, "cost").as_hex_double();
      std::vector<double> best_x;
      for (const json::Value& x : require(e, "best_x").items) {
        best_x.push_back(x.as_hex_double());
      }
      if (r.estimate_fallback) {
        // The fallback is a pure estimate: re-derive it.
        r.outcome = detail::estimate_outcome(proc, specs[i], options.batch,
                                             kEstimateFallback);
      } else if (!sim_failed) {
        // Full bit-exact re-derivation from the winning point.
        r.outcome =
            synth::finalize_opamp_outcome(proc, specs[i], best_x, cost);
      } else {
        // The stored attempt's verification failed (deadline or fault):
        // re-running the simulator now could produce a *different*
        // outcome, so reconstruct analytically and keep the stored
        // diagnosis instead.
        r.outcome.cost = cost;
        r.outcome.best_x = best_x;
        r.outcome.sim_failed = true;
        r.outcome.functional = require(e, "functional").as_bool();
        r.outcome.meets_spec = require(e, "meets_spec").as_bool();
        r.outcome.comment = require(e, "comment").as_string();
        if (!best_x.empty()) {
          const synth::OpAmpVars v =
              synth::OpAmpVars::unpack(best_x, specs[i].buffer);
          r.outcome.design = synth::design_from_vars(proc, v, specs[i]);
        }
      }
      r.outcome.evaluations =
          static_cast<int>(require(e, "evaluations").as_long());
      r.outcome.skipped_candidates =
          static_cast<int>(require(e, "skipped").as_long());
      r.outcome.rejected_nonfinite =
          static_cast<int>(require(e, "nonfinite").as_long());
      r.outcome.bias_stages.solved = require(e, "bias_solved").as_long();
      r.outcome.bias_stages.reused = require(e, "bias_reused").as_long();
      r.outcome.budget_exhausted = require(e, "budget_exhausted").as_bool();
      r.outcome.restarts_run =
          static_cast<int>(require(e, "restarts_run").as_long());
      r.outcome.best_restart =
          static_cast<int>(require(e, "best_restart").as_long());
    }

    jobs[i] = std::move(r);
    done[i] = 1;
    ++stats.resumed_jobs;
  }
}

}  // namespace

uint64_t spec_fingerprint(const est::Process& proc,
                          const est::OpAmpSpec& spec) {
  return fnv1a(cache_key(proc, spec));
}

uint64_t spec_fingerprint(const est::Process& proc,
                          const est::ModuleSpec& spec) {
  return fnv1a(cache_key(proc, spec));
}

bool QuarantineRegistry::quarantined(uint64_t fp, std::string* why) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fp);
  if (it == map_.end() || !it->second.quarantined) return false;
  if (why != nullptr) *why = it->second.error;
  return true;
}

bool QuarantineRegistry::record_failure(uint64_t fp, const std::string& error,
                                        int threshold) {
  std::lock_guard<std::mutex> lock(mu_);
  State& st = map_[fp];
  ++st.consecutive;
  if (st.quarantined || st.consecutive < std::max(threshold, 1)) return false;
  st.quarantined = true;
  st.error = error;
  return true;
}

void QuarantineRegistry::record_success(uint64_t fp) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(fp);
  if (it != map_.end()) it->second.consecutive = 0;
}

size_t QuarantineRegistry::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& [fp, st] : map_) {
    if (st.quarantined) ++n;
  }
  return n;
}

void QuarantineRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

void SupervisionStats::accumulate(const SupervisionStats& o) {
  attempts += o.attempts;
  retries += o.retries;
  numeric_recovery_attempts += o.numeric_recovery_attempts;
  relaxed_attempts += o.relaxed_attempts;
  estimate_fallbacks += o.estimate_fallbacks;
  deadline_hits += o.deadline_hits;
  cancelled_jobs += o.cancelled_jobs;
  quarantine_skips += o.quarantine_skips;
  quarantined_new += o.quarantined_new;
  checkpoints_written += o.checkpoints_written;
  resumed_jobs += o.resumed_jobs;
}

void SupervisionStats::to_json(json::Writer& w) const {
  w.field("attempts", attempts)
      .field("retries", retries)
      .field("numeric_recovery_attempts", numeric_recovery_attempts)
      .field("relaxed_attempts", relaxed_attempts)
      .field("estimate_fallbacks", estimate_fallbacks)
      .field("deadline_hits", deadline_hits)
      .field("cancelled_jobs", cancelled_jobs)
      .field("quarantine_skips", quarantine_skips)
      .field("quarantined_new", quarantined_new)
      .field("checkpoints_written", checkpoints_written)
      .field("resumed_jobs", resumed_jobs);
}

namespace {

/// The supervised batch body shared by opamp and module batches: every
/// job's recovery ladder fanned out by the batch runner, plus the
/// opamp-only checkpoint/resume around it.
template <class Spec>
auto supervised_batch(const est::Process& proc, const std::vector<Spec>& specs,
                      const SupervisorOptions& options, const char* label) {
  using Outcome = decltype(detail::run_one(proc, specs.front(), 0, options.batch));
  constexpr bool kCheckpoints = std::is_same_v<Spec, est::OpAmpSpec>;
  detail::BatchRunner runner(options.batch.threads, options.batch.cache);
  const size_t n = specs.size();

  BatchResult<Outcome> out;
  out.jobs.resize(n);  // index set by the runner or the checkpoint restore
  std::vector<uint64_t> fps(n);
  for (size_t i = 0; i < n; ++i) fps[i] = spec_fingerprint(proc, specs[i]);
  std::vector<char> done(n, 0);
  auto checkpoint = [&] {
    if constexpr (kCheckpoints) {
      write_checkpoint(options.checkpoint_path, options.batch.seed, fps,
                       out.jobs, done);
      ++out.supervision.checkpoints_written;
    }
  };
  if constexpr (kCheckpoints) {
    if (!options.resume_path.empty()) {
      restore_checkpoint(options.resume_path, proc, specs, options, fps,
                         out.jobs, done, out.supervision);
    }
  }

  std::vector<size_t> pending;
  for (size_t i = 0; i < n; ++i) {
    if (done[i] == 0) pending.push_back(i);
  }
  // Each job tallies its own ladder counters; they merge in index order.
  std::vector<SupervisionStats> job_stats(n);
  size_t since_checkpoint = 0;
  const size_t every =
      static_cast<size_t>(std::max(options.checkpoint_every, 1));
  runner.run(
      label, pending, out.jobs,
      [&](size_t i, JobResult<Outcome>& r) {
        supervise_one(proc, specs[i], i, fps[i], options, job_stats[i], r);
      },
      // Under the runner's lock: checkpoints always snapshot a
      // consistent (jobs, done) pair.
      [&](size_t i) {
        // A cancelled job is *unfinished*: a resume re-runs it, which is
        // what makes resumed results identical to an uninterrupted run.
        done[i] = out.jobs[i].cancelled ? 0 : 1;
        if (!options.checkpoint_path.empty() && ++since_checkpoint >= every) {
          checkpoint();
          since_checkpoint = 0;
        }
        if (options.on_job_done) options.on_job_done(i, out.jobs[i].ok);
      });
  if (!options.checkpoint_path.empty()) checkpoint();

  for (const SupervisionStats& s : job_stats) out.supervision.accumulate(s);
  runner.finish(out.jobs, [](const auto& j) { return j.outcome.meets_spec; },
                out.stats);
  return out;
}

}  // namespace

OpAmpBatchResult run_supervised_opamp_batch(
    const est::Process& proc, const std::vector<est::OpAmpSpec>& specs,
    const SupervisorOptions& options) {
  return supervised_batch(proc, specs, options, "opamp_batch");
}

ModuleBatchResult run_supervised_module_batch(
    const est::Process& proc, const std::vector<est::ModuleSpec>& specs,
    const SupervisorOptions& options) {
  if (!options.checkpoint_path.empty() || !options.resume_path.empty()) {
    throw SpecError(
        "run_supervised_module_batch: checkpoint/resume is only supported "
        "for opamp batches (module outcomes are not reconstructible from "
        "best_x alone yet)");
  }
  return supervised_batch(proc, specs, options, "module_batch");
}

OpAmpJobResult run_supervised_opamp_job(const est::Process& proc,
                                        const est::OpAmpSpec& spec,
                                        const SupervisorOptions& options,
                                        size_t index,
                                        SupervisionStats* stats) {
  if (!options.checkpoint_path.empty() || !options.resume_path.empty()) {
    throw SpecError(
        "run_supervised_opamp_job: checkpoint/resume applies to batches, "
        "not single supervised jobs");
  }
  OpAmpJobResult r;
  r.index = index;
  SupervisionStats local;
  supervise_one(proc, spec, index, spec_fingerprint(proc, spec), options,
                local, r);
  if (stats != nullptr) stats->accumulate(local);
  return r;
}

}  // namespace ape::runtime
