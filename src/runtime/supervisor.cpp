#include "src/runtime/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
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
/// job's ambient budget and, on relaxed rungs, under
/// ScopedSolverRelaxation.
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
  // each attempt. Installed ambiently so every solver poll site below
  // (Newton ladders, sweeps, transient sub-steps, AC points, the anneal
  // loop) observes it without options plumbing.
  RunBudget budget;
  if (options.job_timeout_s > 0.0) budget.set_deadline_in(options.job_timeout_s);
  if (options.cancel != nullptr) budget.attach_cancel(options.cancel);
  ScopedJobBudget ambient(budget);

  Outcome best{};
  bool have_best = false;
  int attempt = 0;
  RetryRung rung = RetryRung::Initial;
  std::string last_error;

  auto cancelled_result = [&]() {
    r.cancelled = true;
    r.ok = false;
    r.error = annotate_with_context("cancelled");
    ++stats.cancelled_jobs;
  };
  auto deadline_result = [&]() {
    r.deadline_hit = true;
    ++stats.deadline_hits;
    if (have_best) {
      // Best-so-far from an earlier attempt: partial but reportable.
      r.outcome = std::move(best);
      r.ok = true;
    } else {
      r.error = annotate_with_context(
          std::string("deadline exceeded") +
          (last_error.empty() ? "" : " (last attempt: " + last_error + ")"));
    }
  };
  // Set once a lint/feasibility verdict (LintError, e.g. APE-F001) has
  // fired for this job: the spec is provably defective, which is a fact
  // about the *input*, not flakiness of the pipeline — so neither the
  // verdict nor the follow-on estimate-fallback failure may feed the
  // quarantine registry (it tracks fingerprints that fail *unexpectedly*).
  bool lint_verdict = false;
  auto record_attempt_failure = [&](const std::string& error) {
    last_error = error;
    if (!lint_verdict && options.quarantine != nullptr &&
        options.quarantine->record_failure(fp, error,
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
    if (budget.cancelled()) {
      cancelled_result();
      return;
    }
    if (budget.exhausted()) {
      deadline_result();
      return;
    }
    if (rung == RetryRung::Fail) break;

    if (attempt > 0) {
      double wait = policy.backoff_s(index, attempt);
      wait = std::min(wait, std::max(budget.seconds_left(), 0.0));
      if (wait > 0.0 && std::isfinite(wait)) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        ++stats.backoff_waits;
        stats.backoff_seconds += wait;
      }
    }

    r.final_rung = rung;
    ++r.attempts;
    ++stats.attempts;
    if (attempt > 0) ++stats.retries;
    if (rung == RetryRung::Relaxed) ++stats.relaxed_attempts;
    if (rung == RetryRung::NumericRecovery) ++stats.numeric_recovery_attempts;

    ErrorContext attempt_scope("attempt[" + std::to_string(attempt) + "](" +
                               to_string(rung) + ")");
    std::optional<ScopedSolverRelaxation> relax;
    if (rung == RetryRung::Relaxed) relax.emplace(policy.relaxation);
    // The numeric-recovery rung re-runs the attempt with the health
    // layer forced on: every solve equilibrates, estimates its condition
    // and refines (DESIGN.md section 15).
    std::optional<ScopedNumericHealthMode> health_mode;
    if (rung == RetryRung::NumericRecovery) {
      health_mode.emplace(NumericHealthMode::Force);
    }
    // Per-attempt fault injection (tests): configured and installed here,
    // on the worker thread, because a thread_local injector installed on
    // the submitting thread never reaches a pool worker.
    spice::FaultInjector injector;
    std::optional<spice::ScopedFaultInjection> fault;
    if (options.fault_setup) {
      options.fault_setup(index, attempt, injector);
      fault.emplace(injector);
    }

    try {
      if (rung == RetryRung::EstimateOnly) {
        r.outcome = detail::estimate_outcome(proc, spec, options.batch,
                                              kEstimateFallback);
        r.ok = true;
        r.estimate_fallback = true;
        ++stats.estimate_fallbacks;
        return;
      }
      Outcome out = detail::run_one(proc, spec, index, options.batch);
      if (budget.cancelled()) {
        cancelled_result();
        return;
      }
      if (budget.exhausted()) {
        // The deadline fired mid-attempt but the search still returned
        // (the anneal loop stops cooperatively): keep the partial result.
        r.outcome = std::move(out);
        r.ok = true;
        r.deadline_hit = true;
        ++stats.deadline_hits;
        return;
      }
      if (out.sim_failed && policy.retry_sim_failures) {
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
      if (budget.cancelled()) {
        cancelled_result();
        return;
      }
      lint_verdict = true;
      record_attempt_failure(e.what());
      if (budget.exhausted()) {
        deadline_result();
        return;
      }
      escalate(e.klass());  // Permanent: straight to the estimate fallback
    } catch (const Error& e) {
      if (budget.cancelled()) {
        cancelled_result();
        return;
      }
      record_attempt_failure(e.what());
      if (budget.exhausted()) {
        deadline_result();
        return;
      }
      escalate(e.klass());
    } catch (const std::exception& e) {
      // Non-ape exceptions carry no taxonomy; treat them as transient
      // (same safe default as the MemoCache negative-caching policy).
      record_attempt_failure(annotate_with_context(e.what()));
      if (budget.exhausted()) {
        deadline_result();
        return;
      }
      escalate(ErrorClass::Transient);
    }
  }

  // Ladder exhausted.
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
// Checkpoint format (opamp batches), version 1:
//
//   { "version": 1, "kind": "opamp", "seed": "<u64 decimal>",
//     "jobs": [ { "index": i, "fp": "<u64 decimal>", "done": bool,
//                 "ok": bool, "error": "...", "attempts": n,
//                 "rung": "initial|retry|relaxed|estimate-only|fail",
//                 "deadline_hit": b, "quarantined": b,
//                 "estimate_fallback": b,
//                 "cost": "<hex-float>", "evaluations": n, "skipped": n,
//                 "nonfinite": n, "budget_exhausted": b,
//                 "restarts_run": n, "best_restart": n,
//                 "sim_failed": b, "functional": b, "meets_spec": b,
//                 "comment": "...", "best_x": ["<hex-float>", ...] }, ... ] }
//
// best_x as hex floats is the whole trick: design, simulator report and
// Table-1 diagnosis are pure functions of (process, spec, best_x)
// (finalize_opamp_outcome), and job seeds are pure streams of (seed, i),
// so no RNG state and no design serialization are needed for bit-exact
// resume. Cancelled jobs are written done=false so a resume re-runs them.

std::string checkpoint_json(uint64_t seed, const std::vector<uint64_t>& fps,
                            const std::vector<OpAmpJobResult>& jobs,
                            const std::vector<char>& done) {
  std::ostringstream os;
  os << "{\n  \"version\": 1,\n  \"kind\": \"opamp\",\n  \"seed\": \"" << seed
     << "\",\n  \"jobs\": [\n";
  for (size_t i = 0; i < jobs.size(); ++i) {
    const OpAmpJobResult& j = jobs[i];
    const synth::SynthesisOutcome& o = j.outcome;
    os << "    {\"index\": " << i << ", \"fp\": \"" << fps[i] << "\""
       << ", \"done\": " << (done[i] != 0 ? "true" : "false")
       << ", \"ok\": " << (j.ok ? "true" : "false") << ", \"error\": \""
       << json::escape(j.error) << "\", \"attempts\": " << j.attempts
       << ", \"rung\": \"" << to_string(j.final_rung) << "\""
       << ", \"deadline_hit\": " << (j.deadline_hit ? "true" : "false")
       << ", \"quarantined\": " << (j.quarantined ? "true" : "false")
       << ", \"estimate_fallback\": " << (j.estimate_fallback ? "true" : "false")
       << ", \"cost\": \"" << json::hex_double(o.cost) << "\""
       << ", \"evaluations\": " << o.evaluations
       << ", \"skipped\": " << o.skipped_candidates
       << ", \"nonfinite\": " << o.rejected_nonfinite
       << ", \"budget_exhausted\": " << (o.budget_exhausted ? "true" : "false")
       << ", \"restarts_run\": " << o.restarts_run
       << ", \"best_restart\": " << o.best_restart
       << ", \"sim_failed\": " << (o.sim_failed ? "true" : "false")
       << ", \"functional\": " << (o.functional ? "true" : "false")
       << ", \"meets_spec\": " << (o.meets_spec ? "true" : "false")
       << ", \"comment\": \"" << json::escape(o.comment) << "\""
       << ", \"best_x\": [";
    for (size_t k = 0; k < o.best_x.size(); ++k) {
      if (k != 0) os << ", ";
      os << "\"" << json::hex_double(o.best_x[k]) << "\"";
    }
    os << "]}" << (i + 1 < jobs.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
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

  if (require(doc, "version").as_long() != 1) {
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
  backoff_waits += o.backoff_waits;
  backoff_seconds += o.backoff_seconds;
  deadline_hits += o.deadline_hits;
  cancelled_jobs += o.cancelled_jobs;
  quarantine_skips += o.quarantine_skips;
  quarantined_new += o.quarantined_new;
  checkpoints_written += o.checkpoints_written;
  resumed_jobs += o.resumed_jobs;
}

std::string SupervisionStats::summary() const {
  std::ostringstream os;
  os << "supervision: attempts=" << attempts << " retries=" << retries
     << " numeric_recovery=" << numeric_recovery_attempts
     << " relaxed=" << relaxed_attempts
     << " estimate_fallbacks=" << estimate_fallbacks;
  if (backoff_waits > 0) {
    os << " backoff_waits=" << backoff_waits << " backoff_s=" << backoff_seconds;
  }
  os << " deadline_hits=" << deadline_hits << " cancelled=" << cancelled_jobs
     << " quarantine_skips=" << quarantine_skips
     << " quarantined_new=" << quarantined_new;
  if (checkpoints_written > 0) os << " checkpoints=" << checkpoints_written;
  if (resumed_jobs > 0) os << " resumed=" << resumed_jobs;
  return os.str();
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
