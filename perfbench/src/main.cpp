/// perfbench: one command for every workload of the repository benchmark.
///
///   perfbench --workload <synth_batch|verify_sweep|serve_mixed>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--workdir <dir>] [--setup-probe]
///
/// Prints human-readable lines, then as its last line one JSON object
/// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
/// with --trace 0, the per-layer metrics with --trace 1. run.py builds
/// this binary, adds setup_s, and is the entry point BENCHMARK.json names.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

struct Spec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics every workload reports (setup_s is added by run.py).
constexpr Spec kEndToEnd[] = {
    {"jobs_per_s", "1/s"},       {"job_p50_ms", "ms"},
    {"estimate_p50_us", "us"},   {"spec_met_ratio", "ratio"},
    {"est_sim_err_pct", "%"},    {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MiB"},
};

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise reports 0.
constexpr Spec kPerLayer[] = {
    {"estimator.estimate_us", "us"},
    {"estimator.module_estimate_us", "us"},
    {"estimator.simulate_opamp_ms", "ms"},
    {"lint.prove_us", "us"},
    {"lint.refuted", "count"},
    {"synth.cost_evals", "count"},
    {"synth.cost_eval_us", "us"},
    {"synth.anneal_self_ms", "ms"},
    {"synth.accept_ratio", "ratio"},
    {"synth.skipped_ratio", "ratio"},
    {"synth.finalize_ms", "ms"},
    {"synth.verify_module_ms", "ms"},
    {"spice.mos_eval_ns", "ns"},
    {"spice.dc_us", "us"},
    {"spice.ac_us", "us"},
    {"spice.noise_us", "us"},
    {"spice.tran_ms", "ms"},
    {"spice.module_dc_us", "us"},
    {"spice.module_ac_us", "us"},
    {"spice.module_noise_us", "us"},
    {"spice.module_tran_ms", "ms"},
    {"spice.factorizations", "count"},
    {"spice.solves", "count"},
    {"spice.ac_points", "count"},
    {"spice.refined_ratio", "ratio"},
    {"spice.symbolic_reuses", "count"},
    {"spice.sparse_fallbacks", "count"},
    {"spice.workspace_regrowths", "count"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"runtime.pool_busy_ratio", "ratio"},
    {"serve.ping_p50_us", "us"},
    {"serve.overhead_us", "us"},
    {"serve.infeasible_p50_us", "us"},
    {"serve.degraded_ratio", "ratio"},
    {"serve.shed_ratio", "ratio"},
    {"serve.proven_infeasible_ratio", "ratio"},
    {"serve.peak_in_flight", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.job_coverage_ratio", "ratio"},
    {"trace.spans", "count"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <synth_batch|verify_sweep|serve_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>] "
               "[--setup-probe]\n");
  return 2;
}

/// The final line: exactly the metrics of the chosen table, in order.
template <size_t N>
void print_result(RunResult& r, const Spec (&table)[N], bool missing_is_zero) {
  std::string json = "{\"correct\": ";
  std::string metrics;
  for (const Spec& s : table) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : r.metrics) {
      if (m.name == s.name) {
        value = m.value;
        found = true;
      }
    }
    r.check(found || missing_is_zero, std::string("metric not measured: ") + s.name);
    r.check(std::isfinite(value), std::string("metric not finite: ") + s.name);
    if (!std::isfinite(value)) value = 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", s.name, value, s.unit);
    metrics += buf;
  }
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-probe") {
      opts.setup_probe = true;
    } else if (a == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opts.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
      trace_given = true;
    } else if (a == "--workdir" && has_value) {
      opts.workdir = argv[++i];
    } else {
      return usage();
    }
  }
  if (opts.workload.empty() || !(opts.seconds > 0.0) ||
      (!trace_given && !opts.setup_probe)) {
    return usage();
  }

  RunResult (*run)(const perfbench::Options&) = nullptr;
  if (opts.workload == "synth_batch") run = perfbench::run_synth_batch;
  if (opts.workload == "verify_sweep") run = perfbench::run_verify_sweep;
  if (opts.workload == "serve_mixed") run = perfbench::run_serve_mixed;
  if (run == nullptr) return usage();

  try {
    RunResult r = run(opts);
    if (opts.setup_probe) return 0;
    if (opts.trace) {
      print_result(r, kPerLayer, /*missing_is_zero=*/true);
    } else {
      r.add("ok_ratio",
            r.attempted > 0 ? double(r.attempted - r.failed) / double(r.attempted)
                            : 0.0,
            "ratio");
      r.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
      print_result(r, kEndToEnd, /*missing_is_zero=*/false);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
