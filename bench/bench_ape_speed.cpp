/// Reproduces the paper's CPU-time claim for the estimator itself:
/// "The CPU time required to execute the APE for all the ten opamps
/// combined was 0.12 seconds" and "within 0.14 seconds for all the
/// [module] examples". google-benchmark microbenches over each level of
/// the hierarchy plus the two headline batch figures.
///
/// On top of the microbenches, a serial-vs-pooled batch comparison
/// (DESIGN.md §7) drives a 32-spec synthesis batch through
/// runtime::run_opamp_batch at 1 thread and at the hardware thread
/// count, checks the two runs are bit-identical, and writes the
/// machine-readable BENCH_ape_speed.json (jobs/s, speedup, cache hit
/// rate) that seeds the performance trajectory. Skip it with
/// --no-batch when only the microbenches are wanted.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_meta.h"
#include "bench/bench_util.h"
#include "src/util/diagnostics.h"
#include "src/estimator/components.h"
#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/runtime/batch.h"
#include "src/spice/analysis.h"
#include "src/spice/parser.h"

using namespace ape;
using namespace ape::est;

static const Process& proc() {
  static const Process p = Process::default_1u2();
  return p;
}

static void BM_TransistorSizing(benchmark::State& state) {
  const TransistorEstimator xe(proc());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        xe.size_for_gm_id(spice::MosType::Nmos, 100e-6, 10e-6));
  }
}
BENCHMARK(BM_TransistorSizing);

static void BM_ComponentEstimate_DiffCmos(benchmark::State& state) {
  const ComponentEstimator ce(proc());
  ComponentSpec spec{ComponentKind::DiffCmos, 1e-6, 1000.0, 0.0, 0.5e-12};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ce.estimate(spec));
  }
}
BENCHMARK(BM_ComponentEstimate_DiffCmos);

static void BM_OpAmpEstimate(benchmark::State& state) {
  const OpAmpEstimator oe(proc());
  OpAmpSpec spec;
  spec.gain = 200;
  spec.ugf_hz = 5e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;
  spec.buffer = true;
  spec.zout = 10e3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oe.estimate(spec));
  }
}
BENCHMARK(BM_OpAmpEstimate);

/// The paper's headline: all ten Table 1 opamps end-to-end.
static void BM_ApeAllTenOpAmps(benchmark::State& state) {
  const OpAmpEstimator oe(proc());
  const auto rows = bench::table1_specs();
  for (auto _ : state) {
    for (const auto& row : rows) {
      benchmark::DoNotOptimize(oe.estimate(bench::to_spec(row)));
    }
  }
}
BENCHMARK(BM_ApeAllTenOpAmps)->Unit(benchmark::kMillisecond);

/// The paper's second headline: all five Table 5 modules.
static void BM_ApeAllFiveModules(benchmark::State& state) {
  const ModuleEstimator me(proc());
  const auto specs = bench::table5_specs();
  for (auto _ : state) {
    for (const auto& spec : specs) {
      benchmark::DoNotOptimize(me.estimate(spec));
    }
  }
}
BENCHMARK(BM_ApeAllFiveModules)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Serial vs pooled batch comparison -> BENCH_ape_speed.json.

namespace {

/// The 32-spec batch of the determinism/speedup acceptance check: the
/// ten Table-1 specs cycled with small spec perturbations so the shared
/// estimate cache sees both repeats (hits) and fresh specs (misses).
std::vector<OpAmpSpec> batch32() {
  const auto rows = bench::table1_specs();
  std::vector<OpAmpSpec> specs;
  for (size_t i = 0; i < 32; ++i) {
    OpAmpSpec s = bench::to_spec(rows[i % rows.size()]);
    if (i >= 20) s.gain *= 1.0 + 0.01 * double(i - 20);  // 12 distinct extras
    specs.push_back(s);
  }
  return specs;
}

runtime::BatchOptions batch_options(int threads,
                                    runtime::EstimateCache* cache) {
  runtime::BatchOptions o;
  o.threads = threads;
  o.seed = 99;
  o.cache = cache;
  o.synth.use_ape_seed = true;
  o.synth.anneal.iterations = 400;  // real search, batch-sized
  return o;
}

bool same_outcome(const synth::SynthesisOutcome& a,
                  const synth::SynthesisOutcome& b) {
  if (a.cost != b.cost || a.evaluations != b.evaluations ||
      a.meets_spec != b.meets_spec) {
    return false;
  }
  if (a.design.transistors.size() != b.design.transistors.size()) return false;
  for (size_t i = 0; i < a.design.transistors.size(); ++i) {
    if (a.design.transistors[i].w != b.design.transistors[i].w ||
        a.design.transistors[i].l != b.design.transistors[i].l) {
      return false;
    }
  }
  return true;
}

/// The BM_OpAmpEstimate spec, reused for the single-thread trajectory
/// metric and the compiled-kernel audit below.
OpAmpSpec headline_spec() {
  OpAmpSpec spec;
  spec.gain = 200;
  spec.ugf_hz = 5e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;
  spec.buffer = true;
  spec.zout = 10e3;
  return spec;
}

/// Single-thread opamp estimate-path latency in microseconds — the
/// metric the committed BENCH_ape_speed.json trajectory (and the
/// check_bench regression gate) tracks across PRs.
double time_estimate_path_us() {
  const OpAmpEstimator oe(proc());
  const OpAmpSpec spec = headline_spec();
  (void)oe.estimate(spec);  // warm caches
  // Best of five repetitions: the minimum discards scheduler noise, so
  // the committed trajectory value is stable enough for the 20% gate.
  const int iters = 200;
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) benchmark::DoNotOptimize(oe.estimate(spec));
    const auto t1 = std::chrono::steady_clock::now();
    const double us =
        std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
    if (us < best) best = us;
  }
  return best;
}

/// Run the headline opamp's testbench through DC + AC on the compiled
/// MNA kernel and return the combined KernelStats: the workspace audit
/// (workspace_regrowths == 0 proves the Newton / AC inner loops ran
/// allocation-free after setup).
KernelStats kernel_audit() {
  const OpAmpEstimator oe(proc());
  const OpAmpDesign d = oe.estimate(headline_spec());
  spice::Circuit ckt =
      spice::parse_netlist(d.testbench(proc(), OpAmpTb::OpenLoop).netlist);
  ConvergenceReport rep;
  spice::DcOptions dopts;
  dopts.report = &rep;
  (void)spice::dc_operating_point(ckt, dopts);
  KernelStats ks = rep.kernel;
  ScopedJobContext sink([&ks](JobContext& c) { c.kernel_sink = &ks; });
  (void)spice::ac_analysis(ckt, 1.0, 1e8, 10);
  return ks;
}

/// One serial batch run with the lint-first prove gate on or off,
/// returning the measured wall seconds.
double timed_serial_batch(const std::vector<OpAmpSpec>& specs,
                          bool lint_first) {
  runtime::EstimateCache cache;
  runtime::BatchOptions o = batch_options(1, &cache);
  o.lint_first = lint_first;
  return runtime::run_opamp_batch(proc(), specs, o).stats.wall_seconds;
}

struct ProveBench {
  long overhead_bp = 0;     ///< prove-gate cost on an all-feasible batch,
                            ///< in basis points of the no-prove wall time
  double pruning_speedup = 0.0;  ///< mixed-batch wall-clock win
  double feasible_without_s = 0.0, feasible_with_s = 0.0;
  double mixed_without_s = 0.0, mixed_with_s = 0.0;
};

/// Feasibility-prove A/B (DESIGN.md section 14). Two acceptance claims:
/// on a batch where every spec is reachable the gate must cost <5% wall
/// clock (it proves, contracts, then the anneal dominates); on a batch
/// salted with provably-infeasible specs it must win outright, because
/// refuted jobs fail in microseconds instead of annealing to nowhere.
/// check_bench gates both (absolute 500 bp / relative speedup).
ProveBench run_prove_comparison() {
  ProveBench pb;
  const auto rows = bench::table1_specs();

  // All-feasible: the ten Table-1 specs. Best-of-2 per arm discards
  // scheduler noise that would otherwise dwarf a microsecond gate.
  std::vector<OpAmpSpec> feasible;
  for (const auto& row : rows) feasible.push_back(bench::to_spec(row));
  auto best2 = [&](bool lint_first) {
    double best = 1e300;
    for (int i = 0; i < 2; ++i) {
      const double s = timed_serial_batch(feasible, lint_first);
      if (s < best) best = s;
    }
    return best;
  };
  pb.feasible_without_s = best2(false);
  pb.feasible_with_s = best2(true);
  const double overhead =
      pb.feasible_without_s > 0.0
          ? (pb.feasible_with_s - pb.feasible_without_s) / pb.feasible_without_s
          : 0.0;
  pb.overhead_bp = overhead > 0.0 ? long(overhead * 1e4 + 0.5) : 0;

  // Mixed: half the specs carry an area budget below the 8-device
  // minimum-geometry floor — provably unreachable, but the estimator
  // treats the budget as informational, so without the gate each one
  // still burns a full anneal discovering a cost plateau. Built from
  // the *unbuffered* Table-1 rows only: buffered specs are outside the
  // interval model and deliberately stay neutral (DESIGN.md section 14),
  // so salting them would prove nothing.
  std::vector<size_t> unbuffered;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].buffer) unbuffered.push_back(i);
  }
  std::vector<OpAmpSpec> mixed;
  for (size_t i = 0; i < 12; ++i) {
    OpAmpSpec s = bench::to_spec(rows[unbuffered[i % unbuffered.size()]]);
    if (i % 2 == 1) s.area_budget = 1e-11;
    mixed.push_back(s);
  }
  pb.mixed_without_s = timed_serial_batch(mixed, false);
  pb.mixed_with_s = timed_serial_batch(mixed, true);
  pb.pruning_speedup =
      pb.mixed_with_s > 0.0 ? pb.mixed_without_s / pb.mixed_with_s : 0.0;

  std::printf("\n-- feasibility-prove gate (DESIGN.md 14) --\n");
  std::printf("all-feasible: %.2f s bare, %.2f s with prove gate (%ld bp)\n",
              pb.feasible_without_s, pb.feasible_with_s, pb.overhead_bp);
  std::printf("mixed (6 feasible + 6 refuted): %.2f s bare, %.2f s "
              "with prove gate -> %.2fx\n",
              pb.mixed_without_s, pb.mixed_with_s, pb.pruning_speedup);
  return pb;
}

/// One health A/B pair: per-run latency with the layer off and in
/// ambient Auto mode, and Auto's cost in basis points of the off time.
struct HealthArm {
  double off_us = 0.0;
  double on_us = 0.0;
  long overhead_bp = 0;
};

struct HealthBench {
  HealthArm dc;    ///< headline opamp open-loop DC solve
  HealthArm ac;    ///< its open-loop AC sweep (1 Hz - 1 GHz, 20/decade)
  HealthArm tran;  ///< its unity-gain step transient (the slew run)
};

/// Best-of-reps latency of \p run in microseconds under health mode
/// off / Auto. The arms alternate rep by rep, so drift in machine load
/// hits both alike, and the minimum over a fixed inner loop discards
/// scheduler noise, which would otherwise dwarf a 200 bp gate on a
/// microsecond-scale solve.
template <class Run>
HealthArm time_health_arms(int iters, int reps, const Run& run) {
  const auto time_once = [&](bool health_on) {
    ScopedJobContext arm([health_on](JobContext& c) {
      if (!health_on) c.health_mode = NumericHealthMode::Off;
    });
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) run();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::micro>(t1 - t0).count() / iters;
  };
  run();  // warm
  HealthArm a;
  a.off_us = a.on_us = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    a.off_us = std::min(a.off_us, time_once(false));
    a.on_us = std::min(a.on_us, time_once(true));
  }
  const double overhead = a.off_us > 0.0 ? (a.on_us - a.off_us) / a.off_us : 0.0;
  a.overhead_bp = overhead > 0.0 ? long(overhead * 1e4 + 0.5) : 0;
  return a;
}

/// Numerical-health A/B (DESIGN.md section 15) on the healthy headline
/// opamp: ambient Auto mode versus runs with the layer forced off, for
/// the DC solve, the open-loop AC sweep and the unity-step transient.
/// On a well-conditioned system Auto tracks only the in-loop pivot
/// min/max (free), and AC solves whose unscaled proxy trips only check
/// their residual. check_bench gates the recorded health_overhead_*bp:
/// the DC arm at 200 bp, the longer AC and transient arms at 3x their
/// run-to-run spread.
HealthBench run_health_comparison() {
  HealthBench hb;
  const OpAmpEstimator oe(proc());
  const OpAmpDesign d = oe.estimate(headline_spec());
  spice::Circuit ckt =
      spice::parse_netlist(d.testbench(proc(), OpAmpTb::OpenLoop).netlist);
  hb.dc = time_health_arms(100, 7, [&] {
    benchmark::DoNotOptimize(spice::dc_operating_point(ckt, spice::DcOptions{}));
  });
  hb.ac = time_health_arms(20, 15, [&] {
    benchmark::DoNotOptimize(spice::ac_analysis(ckt, 1.0, 1e9, 20));
  });
  // The unity step as simulate_opamp runs it (grid from the estimated
  // slew); each run parses afresh because transient() leaves the
  // devices' integrator state behind.
  const std::string step = d.testbench(proc(), OpAmpTb::UnityStep).netlist;
  const double pw = std::clamp(8.0 * 0.8 / std::max(d.perf.slew, 1e3), 2e-6, 5e-3);
  hb.tran = time_health_arms(3, 9, [&] {
    spice::Circuit tc = spice::parse_netlist(step);
    benchmark::DoNotOptimize(spice::transient(tc, pw / 200.0, 1e-6 + 2.0 * pw));
  });
  std::printf("\n-- numerical-health layer (DESIGN.md 15) --\n");
  const auto line = [](const char* what, const HealthArm& a, const char* unit,
                       double scale) {
    std::printf("headline opamp %s: %.1f %s health-off, %.1f %s health-on (%ld bp)\n",
                what, a.off_us * scale, unit, a.on_us * scale, unit,
                a.overhead_bp);
  };
  line("DC solve", hb.dc, "us", 1.0);
  line("open-loop AC sweep", hb.ac, "us", 1.0);
  line("unity-step transient", hb.tran, "ms", 1e-3);
  return hb;
}

int run_batch_comparison() {
  const auto specs = batch32();
  const int hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("\n-- batch mode: %zu specs, serial vs %d threads --\n",
              specs.size(), hw);
  runtime::EstimateCache serial_cache;
  const auto serial =
      runtime::run_opamp_batch(proc(), specs, batch_options(1, &serial_cache));
  runtime::EstimateCache pooled_cache;
  const auto pooled =
      runtime::run_opamp_batch(proc(), specs, batch_options(hw, &pooled_cache));

  // Per-core scaling curve: the same batch at 1, 2, 4, ... hw threads
  // (endpoints reuse the serial / pooled runs above). The curve is the
  // trajectory's answer to "where does the pool stop paying for itself"
  // — check_bench gates only the endpoints, the curve is informational.
  std::vector<int> curve_threads{1};
  for (int t = 2; t < hw; t *= 2) curve_threads.push_back(t);
  if (hw > 1) curve_threads.push_back(hw);
  json::Writer w;
  w.begin_object();
  bench::write_meta(w);
  w.key("scaling").begin_array();
  for (const int t : curve_threads) {
    double wall, jps;
    if (t == 1) {
      wall = serial.stats.wall_seconds;
      jps = serial.stats.jobs_per_second;
    } else if (t == hw) {
      wall = pooled.stats.wall_seconds;
      jps = pooled.stats.jobs_per_second;
    } else {
      runtime::EstimateCache cache;
      const auto r =
          runtime::run_opamp_batch(proc(), specs, batch_options(t, &cache));
      wall = r.stats.wall_seconds;
      jps = r.stats.jobs_per_second;
    }
    std::printf("scaling: %2d threads -> %.2f s (%.2f jobs/s)\n", t, wall, jps);
    w.begin_object()
        .field("threads", t)
        .field("wall_seconds", wall)
        .field("jobs_per_second", jps)
        .end_object();
  }
  w.end_array();

  bool identical = serial.jobs.size() == pooled.jobs.size();
  for (size_t i = 0; identical && i < serial.jobs.size(); ++i) {
    identical = serial.jobs[i].ok == pooled.jobs[i].ok &&
                (!serial.jobs[i].ok ||
                 same_outcome(serial.jobs[i].outcome, pooled.jobs[i].outcome));
  }
  const double speedup = pooled.stats.wall_seconds > 0.0
                             ? serial.stats.wall_seconds /
                                   pooled.stats.wall_seconds
                             : 0.0;

  // A speedup measured on one hardware thread is not a speedup claim:
  // the pool run degenerates to serial-with-overhead. Record the real
  // thread count and mark the comparison invalid rather than publishing
  // a meaningless 1.0x as evidence for or against the pool.
  const bool speedup_valid = hw > 1;

  std::printf("serial: %.2f s (%.2f jobs/s)\n", serial.stats.wall_seconds,
              serial.stats.jobs_per_second);
  std::printf("pooled: %.2f s (%.2f jobs/s) on %d threads -> %.2fx\n",
              pooled.stats.wall_seconds, pooled.stats.jobs_per_second, hw,
              speedup);
  if (!speedup_valid) {
    std::printf(
        "WARNING: only 1 hardware thread available; the serial-vs-pooled "
        "comparison cannot demonstrate a speedup on this machine "
        "(parallel_speedup_valid=false in the JSON record).\n");
  }
  std::printf("deterministic match: %s, cache hit rate %.2f\n",
              identical ? "yes" : "NO", pooled.stats.cache.hit_rate());

  const double est_us = time_estimate_path_us();
  const KernelStats ks = kernel_audit();
  std::printf("estimate path: %.1f us/opamp (single thread)\n", est_us);
  std::printf("%s\n", ks.summary().c_str());

  const ProveBench pb = run_prove_comparison();
  const HealthBench hb = run_health_comparison();

  w.field("jobs", specs.size())
      .field("hardware_threads", hw)
      .field("serial_seconds", serial.stats.wall_seconds)
      .field("pooled_seconds", pooled.stats.wall_seconds)
      .field("serial_jobs_per_second", serial.stats.jobs_per_second)
      .field("pooled_jobs_per_second", pooled.stats.jobs_per_second)
      .field("speedup", speedup)
      .field("parallel_speedup_valid", speedup_valid)
      .field("deterministic_match", identical)
      .field("failed_jobs", pooled.stats.failed)
      .field("cache_hits", pooled.stats.cache.hits)
      .field("cache_misses", pooled.stats.cache.misses)
      .field("cache_hit_rate", pooled.stats.cache.hit_rate())
      .field("estimate_path_us", est_us)
      .field("prove_overhead_bp", pb.overhead_bp)
      .field("prove_pruning_speedup", pb.pruning_speedup)
      .field("prove_feasible_seconds",
             std::pair(pb.feasible_without_s, pb.feasible_with_s))
      .field("prove_mixed_seconds",
             std::pair(pb.mixed_without_s, pb.mixed_with_s))
      .field("health_overhead_bp", hb.dc.overhead_bp)
      .field("health_solve_us", std::pair(hb.dc.off_us, hb.dc.on_us))
      .field("health_overhead_ac_bp", hb.ac.overhead_bp)
      .field("health_ac_us", std::pair(hb.ac.off_us, hb.ac.on_us))
      .field("health_overhead_tran_bp", hb.tran.overhead_bp)
      .field("health_tran_us", std::pair(hb.tran.off_us, hb.tran.on_us))
      .field("kernel", ks)
      .field("batch_kernel", pooled.stats.kernel)
      .end_object();
  if (!bench::write_record("BENCH_ape_speed.json", w)) return 1;
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool with_batch = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-batch") == 0) {
      with_batch = false;
      for (int k = i; k + 1 < argc; ++k) argv[k] = argv[k + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return with_batch ? run_batch_comparison() : 0;
}
