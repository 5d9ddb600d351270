/// synth_batch: the paper's Table 4 flow at batch scale. A closed batch of
/// 32 APE-seeded opamp synthesis jobs runs through runtime::run_opamp_batch
/// with lint_first on and 800 anneal iterations per job, on at most three
/// pool workers. The annealer's cost function does most of the work, so
/// this is the workload that exercises it.
///
/// The traced run replays every job phase by phase through the public
/// calls the batch job makes (lint_spec, prove_opamp_feasibility,
/// OpAmpEstimator::estimate, anneal with a cost function built from
/// evaluate_opamp_vars + opamp_cost, finalize_opamp_outcome) and checks
/// that each replayed best point and cost are bit-identical to the batch.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <thread>

#include "src/estimator/verify.h"
#include "src/lint/lint.h"
#include "src/lint/prove.h"
#include "src/runtime/batch.h"
#include "src/synth/anneal.h"
#include "src/synth/astrx.h"
#include "src/synth/sizing.h"
#include "src/util/error.h"
#include "src/util/rng.h"
#include "spice_probe.h"
#include "trace.h"
#include "workload.h"
#include "workloads.h"

namespace perfbench {

using ape::est::OpAmpSpec;
using ape::est::Process;
using ape::runtime::OpAmpBatchResult;
using ape::synth::SynthesisOutcome;

namespace {

constexpr size_t kJobs = 32;
constexpr int kIterations = 800;  // the serve default
/// synthesize_opamp's score for a candidate whose evaluation throws.
constexpr double kSkippedCandidateCost = 1e6;
/// At most this many traced replays of the batch (each records about
/// 26k spans).
constexpr int kMaxReplays = 3;

struct Inputs {
  Process proc = Process::default_1u2();
  std::vector<OpAmpCase> cases;
  std::vector<OpAmpSpec> specs;
  int workers = 1;
  uint64_t seed = 1;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  in.seed = seed;
  SeedStream rng(seed);
  GenOptions g;
  g.perturb = 0.08;
  g.repeat_share = 0.3125;      // 10 of 32 jobs repeat a spec: cache hits
  g.infeasible_share = 0.0625;  // 2 of 32 are refuted before any search
  in.cases = gen_opamps(rng, kJobs, g, in.proc);
  for (const OpAmpCase& c : in.cases) in.specs.push_back(c.spec);
  // At most three workers, one fewer than the hardware threads: the spare
  // thread keeps the OS and run.py off the pool, which steadies the
  // figures on a shared four-thread box.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  in.workers = std::clamp(hw - 1, 1, 3);
  return in;
}

ape::runtime::BatchOptions batch_options(const Inputs& in,
                                         ape::runtime::EstimateCache* cache) {
  ape::runtime::BatchOptions o;
  o.threads = in.workers;
  o.seed = in.seed;
  o.cache = cache;
  o.lint_first = true;
  o.synth.use_ape_seed = true;
  o.synth.anneal.iterations = kIterations;
  return o;
}

bool same_outcome(const SynthesisOutcome& a, const SynthesisOutcome& b) {
  return a.cost == b.cost && a.best_x == b.best_x &&
         a.evaluations == b.evaluations && a.meets_spec == b.meets_spec;
}

/// Output checks of one batch; returns the number of failed jobs and
/// fills the simulator-derived quality figures.
long check_batch(const Inputs& in, const OpAmpBatchResult& b, RunResult& r,
                 long* met, long* feasible, std::vector<double>& err_pct) {
  long failed = 0;
  for (size_t i = 0; i < b.jobs.size(); ++i) {
    const auto& job = b.jobs[i];
    const OpAmpCase& c = in.cases[i];
    const std::string tag = "synth_batch job " + std::to_string(i);
    if (c.infeasible) {
      const bool refuted =
          !job.ok && job.error.find("proven infeasible") != std::string::npos;
      r.check(refuted, tag + ": infeasible spec not refuted: " + job.error);
      failed += refuted ? 0 : 1;
      continue;
    }
    const SynthesisOutcome& o = job.outcome;
    const bool ok = job.ok && o.evaluations == kIterations;
    r.check(ok, tag + ": synthesis failed: " + job.error);
    if (!ok) {
      ++failed;
      continue;
    }
    // A design whose verification failed is a finished job that does not
    // meet spec (the outcome says so); it has no simulator figures.
    ++*feasible;
    if (o.meets_spec) ++*met;
    if (o.sim_failed || !o.sim.ugf_hz) continue;
    // Analytic performance of the final sizing vs. its SPICE verification.
    add_est_sim_error(err_pct, o.design.perf.gain, o.sim.gain);
    add_est_sim_error(err_pct, o.design.perf.ugf_hz, *o.sim.ugf_hz);
    add_est_sim_error(err_pct, o.design.perf.dc_power, o.sim.power);
  }
  return failed;
}

/// The untraced timed loop: whole batches, a fresh estimate cache each
/// (one batch = one invocation of a batch tool).
struct BatchLoop {
  OpAmpBatchResult first;
  double wall_s = 0.0;             ///< summed batch wall time
  std::vector<double> job_ms;      ///< every feasible job of every batch
  std::vector<double> busy_ratio;  ///< sum of job wall / (batch wall x workers)
  std::vector<double> estimate_us; ///< in-process estimates of the batch's specs
  long batches = 0;
  bool deterministic = true;       ///< every batch matched the first
};

BatchLoop run_batches(const Inputs& in, double seconds) {
  BatchLoop loop;
  const ape::est::OpAmpEstimator estimator(in.proc);
  CpuRotation cpus;  // the estimate samples of each batch on the next CPU
  const int64_t t_end = now_ns() + static_cast<int64_t>(seconds * 1e9);
  do {
    ape::runtime::EstimateCache cache;
    const int64_t t0 = now_ns();
    OpAmpBatchResult b =
        ape::runtime::run_opamp_batch(in.proc, in.specs, batch_options(in, &cache));
    const double wall = double(now_ns() - t0) * 1e-9;
    loop.wall_s += wall;
    double busy = 0.0;
    for (const auto& j : b.jobs) {
      if (!j.ok) continue;
      loop.job_ms.push_back(j.outcome.cpu_seconds * 1e3);
      busy += j.outcome.cpu_seconds;
    }
    loop.busy_ratio.push_back(busy / (wall * in.workers));
    // The APE seed every job starts from, timed in-process between
    // batches so the samples spread over the whole run. The pool threads
    // of the next batch inherit the mask, so it is released first.
    cpus.next();
    for (const OpAmpCase& c : in.cases) {
      if (c.infeasible || c.repeat) continue;
      const int64_t e0 = now_ns();
      (void)estimator.estimate(c.spec);
      loop.estimate_us.push_back(double(now_ns() - e0) * 1e-3);
    }
    cpus.release();
    if (loop.batches == 0) {
      loop.first = std::move(b);
    } else {
      for (size_t i = 0; i < b.jobs.size(); ++i) {
        const auto& x = b.jobs[i];
        const auto& y = loop.first.jobs[i];
        if (x.ok != y.ok || (x.ok && !same_outcome(x.outcome, y.outcome))) {
          loop.deterministic = false;
        }
      }
    }
    ++loop.batches;
  } while (now_ns() < t_end);
  return loop;
}

/// Counters of one traced job replay.
struct ReplayCounts {
  long evaluations = 0;
  long accepted = 0;
  long skipped = 0;
  long refuted = 0;
};

/// Replay job \p i phase by phase, exactly as runtime::detail::run_one_opamp
/// and synth::synthesize_opamp run it (single restart, contracted proven
/// box, APE seed with +/-20% intervals, 1.15 target margin).
SynthesisOutcome replay_job(const Inputs& in, size_t i, int32_t job_id,
                            SpanLog& log, ReplayCounts& counts, bool* refuted) {
  const OpAmpSpec& spec = in.specs[i];
  ScopedSpan job(&log, "job", job_id);
  {
    ScopedSpan s(&log, "lint.lint_spec", job_id);
    ape::lint::require_clean(ape::lint::lint_spec(spec, in.proc), "lint-first");
  }
  ape::lint::FeasibilityProof proof;
  {
    ScopedSpan s(&log, "lint.prove", job_id);
    proof = ape::lint::prove_opamp_feasibility(in.proc, spec);
  }
  *refuted = proof.infeasible;
  if (proof.infeasible) {
    ++counts.refuted;
    return {};
  }

  ape::est::OpAmpDesign seed;
  {
    ScopedSpan s(&log, "estimator.estimate", job_id);
    seed = ape::est::OpAmpEstimator(in.proc).estimate(spec);
  }
  std::vector<double> x0 = ape::synth::vars_from_design(seed).pack();
  std::vector<std::pair<double, double>> bounds =
      ape::synth::seeded_bounds(x0, 0.2, in.proc, spec.buffer);
  if (proof.feasible_box.size() == bounds.size()) {
    for (size_t k = 0; k < bounds.size(); ++k) {
      const double lo = std::max(bounds[k].first, proof.feasible_box[k].first);
      const double hi = std::min(bounds[k].second, proof.feasible_box[k].second);
      if (lo <= hi) {
        bounds[k] = {lo, hi};
        x0[k] = std::clamp(x0[k], lo, hi);
      }
    }
  }
  OpAmpSpec target = spec;
  target.gain *= 1.15;
  target.ugf_hz *= 1.15;
  auto cost = [&](const std::vector<double>& x) {
    ScopedSpan s(&log, "synth.cost", job_id);
    try {
      const ape::synth::OpAmpVars v = ape::synth::OpAmpVars::unpack(x, spec.buffer);
      return ape::synth::opamp_cost(
          ape::synth::evaluate_opamp_vars(in.proc, v, spec.ibias, spec.cload),
          target);
    } catch (const ape::Error&) {
      ++counts.skipped;
      return kSkippedCandidateCost;
    }
  };
  ape::synth::AnnealOptions ao;
  ao.iterations = kIterations;
  ao.seed = ape::Rng::derive_stream(in.seed, i);
  ape::synth::AnnealResult ar;
  {
    ScopedSpan s(&log, "synth.anneal", job_id);
    ar = ape::synth::anneal(cost, bounds, x0, ao);
  }
  counts.evaluations += ar.evaluations;
  counts.accepted += ar.accepted;
  ScopedSpan s(&log, "synth.finalize", job_id);
  SynthesisOutcome out =
      ape::synth::finalize_opamp_outcome(in.proc, spec, ar.best_x, ar.best_cost);
  out.evaluations = ar.evaluations;
  return out;
}

/// Every job of the batch replayed on `workers` threads; returns the
/// replay throughput [jobs/s].
double replay_batch(const Inputs& in, int pass, const OpAmpBatchResult& ref,
                    SpanLog& merged, ReplayCounts& totals, RunResult& r,
                    long* mismatches) {
  std::atomic<size_t> next{0};
  std::vector<SpanLog> logs(static_cast<size_t>(in.workers));
  std::vector<ReplayCounts> counts(static_cast<size_t>(in.workers));
  std::vector<std::string> errors(kJobs);
  std::vector<char> match(kJobs, 0);
  auto worker = [&](size_t w) {
    for (size_t i; (i = next.fetch_add(1)) < kJobs;) {
      const int32_t job_id = static_cast<int32_t>(pass * kJobs + i);
      bool refuted = false;
      try {
        const SynthesisOutcome o =
            replay_job(in, i, job_id, logs[w], counts[w], &refuted);
        const auto& b = ref.jobs[i];
        match[i] = refuted ? !b.ok : (b.ok && same_outcome(o, b.outcome));
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    }
  };
  const int64_t t0 = now_ns();
  std::vector<std::thread> threads;
  for (size_t w = 0; w < logs.size(); ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();
  const double wall = double(now_ns() - t0) * 1e-9;
  for (size_t w = 0; w < logs.size(); ++w) {
    merged.merge(logs[w]);
    totals.evaluations += counts[w].evaluations;
    totals.accepted += counts[w].accepted;
    totals.skipped += counts[w].skipped;
    totals.refuted += counts[w].refuted;
  }
  for (size_t i = 0; i < kJobs; ++i) {
    r.check(match[i] != 0, "synth_batch replay of job " + std::to_string(i) +
                               " differs from the batch outcome " + errors[i]);
    if (!match[i]) ++*mismatches;
  }
  return double(kJobs) / wall;
}

}  // namespace

RunResult run_synth_batch(const Options& opts) {
  const int64_t g0 = now_ns();
  const Inputs in = make_inputs(opts.seed);
  const int64_t inputs_ns = now_ns() - g0;
  if (opts.setup_probe) {
    ape::runtime::EstimateCache cache;  // the batch's only other set-up
    report_ready(inputs_ns);
    return {};
  }
  RunResult r;
  std::printf("synth_batch: %zu jobs (%d workers, %d iterations, lint_first)\n",
              kJobs, in.workers, kIterations);

  const BatchLoop loop = run_batches(in, opts.trace ? opts.seconds / 2 : opts.seconds);
  long met = 0, feasible = 0;
  std::vector<double> err_pct;
  const long failed = check_batch(in, loop.first, r, &met, &feasible, err_pct);
  r.check(loop.deterministic, "synth_batch: repeated batches differ");
  r.check(loop.first.stats.kernel.workspace_regrowths == 0,
          "synth_batch: workspace regrowths");
  r.attempted = static_cast<long>(kJobs) * loop.batches;
  r.failed = failed * loop.batches;
  // Throughput over the whole run; per-job (and per-spec estimate) means
  // over the batches, then the median over jobs.
  const double jobs_per_s = double(kJobs * loop.batches) / loop.wall_s;
  const double job_p50_ms =
      median_of_means(loop.job_ms, loop.job_ms.size() / size_t(loop.batches));
  const double estimate_p50_us = median_of_means(
      loop.estimate_us, loop.estimate_us.size() / size_t(loop.batches));
  std::printf("batches %ld, %.3f jobs/s, cache hits %ld misses %ld\n",
              loop.batches, jobs_per_s, loop.first.stats.cache.hits,
              loop.first.stats.cache.misses);
  print_latency("synthesis job (ms)", loop.job_ms, "ms");

  if (!opts.trace) {
    print_latency("estimate (us)", loop.estimate_us, "us");
    r.add("jobs_per_s", jobs_per_s, "1/s");
    r.add("job_p50_ms", job_p50_ms, "ms");
    r.add("estimate_p50_us", estimate_p50_us, "us");
    r.add("spec_met_ratio", feasible > 0 ? double(met) / double(feasible) : 0.0,
          "ratio");
    r.add("est_sim_err_pct", median(err_pct), "%");
    return r;
  }

  // Traced replay of the same inputs.
  SpanLog spans;
  ReplayCounts totals;
  long mismatches = 0;
  std::vector<double> traced_jps;
  const int64_t t_end = now_ns() + static_cast<int64_t>(opts.seconds / 2 * 1e9);
  for (int pass = 0; pass < kMaxReplays && (pass == 0 || now_ns() < t_end); ++pass) {
    traced_jps.push_back(
        replay_batch(in, pass, loop.first, spans, totals, r, &mismatches));
  }
  std::printf("replayed %zu jobs x %zu passes, %ld mismatches\n", kJobs,
              traced_jps.size(), mismatches);
  r.attempted += static_cast<long>(kJobs * traced_jps.size());
  r.failed += mismatches;

  // Probes outside the job spans: the final designs' verification, the
  // per-analysis split of their testbenches, and the MOS model at their
  // bias points.
  SpanLog probes;
  std::vector<double> sim_ms;
  std::vector<NetlistSplit> splits;
  std::deque<ape::spice::MosModelCard> cards;
  std::vector<BiasPoint> points;
  for (size_t i = 0; i < kJobs; ++i) {
    const auto& job = loop.first.jobs[i];
    if (!job.ok || job.outcome.sim_failed || in.cases[i].repeat) continue;
    const int64_t t0 = now_ns();
    {
      ScopedSpan s(&probes, "estimator.simulate_opamp", static_cast<int32_t>(i));
      (void)ape::est::simulate_opamp(job.outcome.design, in.proc, true);
    }
    sim_ms.push_back(double(now_ns() - t0) * 1e-6);
    splits.push_back(split_opamp("job" + std::to_string(i) + "/open_loop",
                                 job.outcome.design, in.proc, probes));
    collect_bias_points(job.outcome.design, in.proc, cards, points);
  }
  print_splits(splits);
  spans.merge(probes);
  const auto layers = layer_times(spans);
  print_layer_table(layers);

  auto self_per_call = [&](const char* name, double scale) {
    auto it = layers.find(name);
    return it == layers.end() || it->second.calls == 0
               ? 0.0
               : it->second.self_ns / double(it->second.calls) * scale;
  };
  // Share of the replayed jobs' wall time inside layer spans: the layer
  // self times account for the job time when this is close to 1.
  const LayerTime& job_t = layers.at("job");
  const double coverage = 1.0 - job_t.self_ns / job_t.total_ns;
  const double untraced = jobs_per_s;
  double traced_s = 0.0;  // total replay time, to match the untraced figure
  for (double jps : traced_jps) traced_s += double(kJobs) / jps;
  const double traced = double(kJobs * traced_jps.size()) / traced_s;

  // The split is a probe outside the batch: an annealed design whose
  // unity-gain step does not converge (simulate_opamp then reports slew
  // 0, as the batch did) is listed above but does not fail the run.
  std::vector<double> dc, ac, noise, tran;
  for (const NetlistSplit& s : splits) {
    dc.push_back(s.dc_us);
    ac.push_back(s.ac_us);
    noise.push_back(s.noise_us);
    if (s.tran_ms > 0.0) tran.push_back(s.tran_ms);
  }
  r.add("estimator.estimate_us", span_p50(layers, "estimator.estimate", 1e-3), "us");
  r.add("estimator.simulate_opamp_ms", median(sim_ms), "ms");
  r.add("lint.prove_us", span_p50(layers, "lint.prove", 1e-3), "us");
  r.add("lint.refuted", double(totals.refuted) / double(traced_jps.size()), "count");
  r.add("synth.cost_evals",
        double(totals.evaluations) / double(std::max<long>(1, feasible)) /
            double(traced_jps.size()),
        "count");
  r.add("synth.cost_eval_us", span_p50(layers, "synth.cost", 1e-3), "us");
  r.add("synth.anneal_self_ms", self_per_call("synth.anneal", 1e-6), "ms");
  r.add("synth.accept_ratio",
        double(totals.accepted) / double(std::max<long>(1, totals.evaluations)),
        "ratio");
  r.add("synth.skipped_ratio",
        double(totals.skipped) / double(std::max<long>(1, totals.evaluations)),
        "ratio");
  r.add("synth.finalize_ms", span_p50(layers, "synth.finalize", 1e-6), "ms");
  r.add("spice.mos_eval_ns", time_mos_eval_ns(points), "ns");
  r.add("spice.dc_us", median(dc), "us");
  r.add("spice.ac_us", median(ac), "us");
  r.add("spice.noise_us", median(noise), "us");
  r.add("spice.tran_ms", median(tran), "ms");
  add_kernel_metrics(loop.first.stats.kernel, r);
  r.add("runtime.cache_hit_ratio", loop.first.stats.cache.hit_rate(), "ratio");
  r.add("runtime.pool_busy_ratio", median(loop.busy_ratio), "ratio");
  r.add("trace.overhead_pct", 100.0 * (untraced - traced) / untraced, "%");
  r.add("trace.job_coverage_ratio", coverage, "ratio");
  r.add("trace.spans", double(spans.spans().size()), "count");

  const std::string path = opts.workdir + "/spans-synth_batch.jsonl";
  r.check(write_spans(spans, path), "cannot write " + path);
  return r;
}

}  // namespace perfbench
