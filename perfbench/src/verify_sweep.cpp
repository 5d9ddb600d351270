/// verify_sweep: the est-vs-sim flow of the paper's Tables 2, 3 and 5.
/// One thread estimates each opamp and runs the full simulator check on
/// it (simulate_opamp: DC, AC, common-mode, Zout and a transient step),
/// then estimates and verifies the Table 5 modules (verify_module). The
/// MNA kernel does almost all of the work and the annealer none, so this
/// is the control workload for annealer changes; it also stresses the MOS
/// model through Newton stamping (gm, gds, gmb and capacitances) where the
/// annealer reads only the drain current.
///
/// The traced run adds the per-analysis split: DC, AC, noise and
/// transient timed separately on every opamp open-loop testbench and
/// module netlist, with each netlist's dimension and dense/sparse path.

#include <cstdio>
#include <deque>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/verify.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "spice_probe.h"
#include "trace.h"
#include "workload.h"
#include "workloads.h"

namespace perfbench {

using ape::est::ModuleSpec;
using ape::est::OpAmpSpec;
using ape::est::Process;

namespace {

constexpr size_t kOpAmps = 24;          // six perturbed copies of each kept row
constexpr size_t kModulesPerKind = 1;   // one perturbed copy of each Table 5 module

struct Inputs {
  Process proc = Process::default_1u2();
  std::vector<OpAmpSpec> opamps;
  std::vector<ModuleSpec> modules;
};

Inputs make_inputs(uint64_t seed) {
  Inputs in;
  SeedStream rng(seed);
  GenOptions g;
  g.perturb = 0.08;
  // Only the rows whose every analysis converges under the perturbation
  // (a workload must not fail operations) and whose simulated UGF is not
  // at the 0.9 x spec verdict threshold (so spec_met_ratio is the same
  // for every seed). In a 40-seed scan the unity-gain step of the APE
  // designs of oa1, oa3, oa6, oa7 and oa8 sometimes found no DC operating
  // point, and oa5's UGF ratio spans 0.896..0.913.
  g.rows = {0, 2, 4, 9};
  for (const OpAmpCase& c : gen_opamps(rng, kOpAmps, g, in.proc)) {
    in.opamps.push_back(c.spec);
  }
  in.modules = gen_modules(rng, kModulesPerKind, g);
  return in;
}

/// The simulator's answer for one design, kept to check that every pass
/// reproduces the first.
struct Verified {
  ape::est::OpAmpPerf est;
  ape::est::OpAmpSimReport sim;
  ape::synth::ModuleSynthesisOutcome module;
};

/// One pass over every design: estimate, then verify. Appends per-design
/// latencies; \p log (may be null) records one span per call.
std::vector<Verified> sweep(const Inputs& in, std::vector<double>& est_us,
                            std::vector<double>& verify_ms, SpanLog* log,
                            RunResult& r, long* failed) {
  const ape::est::OpAmpEstimator oe(in.proc);
  const ape::est::ModuleEstimator me(in.proc);
  std::vector<Verified> out;
  int32_t id = 0;
  for (const OpAmpSpec& spec : in.opamps) {
    Verified v;
    ScopedSpan design(log, "design", id);
    try {
      const int64_t t0 = now_ns();
      ape::est::OpAmpDesign d;
      {
        ScopedSpan s(log, "estimator.estimate", id);
        d = oe.estimate(spec);
      }
      const int64_t t1 = now_ns();
      {
        ScopedSpan s(log, "estimator.simulate_opamp", id);
        v.sim = ape::est::simulate_opamp(d, in.proc, true);
      }
      const int64_t t2 = now_ns();
      est_us.push_back(double(t1 - t0) * 1e-3);
      verify_ms.push_back(double(t2 - t1) * 1e-6);
      v.est = d.perf;
      // simulate_opamp swallows failures of its auxiliary analyses;
      // a missing figure means one of them did not converge.
      const bool ok = v.sim.ugf_hz.has_value() && v.sim.cmrr_db.has_value() &&
                      v.sim.slew > 0.0 && v.sim.zout > 0.0;
      char what[200];
      std::snprintf(what, sizeof what,
                    "verify_sweep: opamp %d analysis did not converge "
                    "(ugf %d cmrr %d slew %g zout %g)",
                    id, v.sim.ugf_hz.has_value(), v.sim.cmrr_db.has_value(),
                    v.sim.slew, v.sim.zout);
      r.check(ok, what);
      *failed += ok ? 0 : 1;
    } catch (const ape::Error& e) {
      r.check(false, std::string("verify_sweep: opamp: ") + e.what());
      ++*failed;
    }
    out.push_back(v);
    ++id;
  }
  for (const ModuleSpec& spec : in.modules) {
    Verified v;
    ScopedSpan design(log, "design", id);
    try {
      ape::est::ModuleDesign d;
      {
        ScopedSpan s(log, "estimator.module_estimate", id);
        d = me.estimate(spec);
      }
      const int64_t t1 = now_ns();
      {
        ScopedSpan s(log, "synth.verify_module", id);
        ape::synth::verify_module(in.proc, d, v.module);
      }
      const int64_t t2 = now_ns();
      verify_ms.push_back(double(t2 - t1) * 1e-6);
      const bool ok = v.module.sim_gain != 0.0 || v.module.sim_delay_s > 0.0;
      r.check(ok, std::string("verify_sweep: module ") +
                      ape::est::to_string(spec.kind) + " produced no result");
      *failed += ok ? 0 : 1;
    } catch (const ape::Error& e) {
      r.check(false, std::string("verify_sweep: module: ") + e.what());
      ++*failed;
    }
    out.push_back(v);
    ++id;
  }
  return out;
}

bool same_result(const Verified& a, const Verified& b) {
  return a.sim.gain == b.sim.gain && a.sim.ugf_hz == b.sim.ugf_hz &&
         a.sim.power == b.sim.power && a.sim.slew == b.sim.slew &&
         a.module.sim_gain == b.module.sim_gain &&
         a.module.sim_bw_hz == b.module.sim_bw_hz &&
         a.module.sim_delay_s == b.module.sim_delay_s &&
         a.module.sim_slew == b.module.sim_slew;
}

/// finalize_opamp_outcome's Table-1 verdict applied to the APE design:
/// working bias point, gain and UGF within 10% of spec, area within 15%.
bool meets_spec(const OpAmpSpec& spec, const Verified& v, const Process& proc) {
  if (v.sim.out_dc < 0.25 || v.sim.out_dc > proc.vdd - 0.25) return false;
  if (v.sim.gain < 0.9 * spec.gain) return false;
  if (v.sim.ugf_hz.value_or(0.0) < 0.9 * spec.ugf_hz) return false;
  return spec.area_budget <= 0.0 || v.est.gate_area <= 1.15 * spec.area_budget;
}

}  // namespace

RunResult run_verify_sweep(const Options& opts) {
  const int64_t g0 = now_ns();
  const Inputs in = make_inputs(opts.seed);
  const int64_t inputs_ns = now_ns() - g0;
  if (opts.setup_probe) {
    report_ready(inputs_ns);
    return {};
  }
  RunResult r;
  const size_t designs = in.opamps.size() + in.modules.size();
  std::printf("verify_sweep: %zu opamps + %zu modules per pass, 1 thread\n",
              in.opamps.size(), in.modules.size());

  std::vector<double> est_us, verify_ms;
  double busy_s = 0.0;  // summed pass wall time
  std::vector<Verified> first;
  long failed = 0, passes = 0;
  bool deterministic = true;
  ape::KernelStats kernel;  // the first pass's MNA counters
  const double budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  const int64_t t_end = now_ns() + static_cast<int64_t>(budget * 1e9);
  CpuRotation cpus;  // each pass on the next CPU
  do {
    cpus.next();
    ape::KernelStats pass_kernel;
    const int64_t t0 = now_ns();
    std::vector<Verified> got;
    {
      ape::ScopedKernelStatsSink sink(pass_kernel);
      got = sweep(in, est_us, verify_ms, nullptr, r, &failed);
    }
    const double pass_s = double(now_ns() - t0) * 1e-9;
    busy_s += pass_s;
    if (passes == 0) {
      first = std::move(got);
      kernel = pass_kernel;
    } else {
      for (size_t i = 0; i < got.size(); ++i) {
        deterministic = deterministic && same_result(got[i], first[i]);
      }
    }
    ++passes;
  } while (now_ns() < t_end);
  cpus.release();
  r.check(deterministic, "verify_sweep: repeated passes differ");
  r.check(kernel.workspace_regrowths == 0, "verify_sweep: workspace regrowths");
  r.attempted = static_cast<long>(designs) * passes;
  r.failed = failed;

  long met = 0;
  std::vector<double> err_pct;
  for (size_t i = 0; i < in.opamps.size(); ++i) {
    const Verified& v = first[i];
    if (!v.sim.ugf_hz) continue;
    if (meets_spec(in.opamps[i], v, in.proc)) ++met;
    add_est_sim_error(err_pct, v.est.gain, v.sim.gain);
    add_est_sim_error(err_pct, v.est.ugf_hz, *v.sim.ugf_hz);
    add_est_sim_error(err_pct, v.est.dc_power, v.sim.power);
  }
  // Throughput over the whole run and per-design means over the passes:
  // the passes rotate over the CPUs, whose speeds differ.
  const double jobs_per_s = double(designs * passes) / busy_s;
  std::printf("passes %ld, %.3f designs/s\n", passes, jobs_per_s);
  print_latency("verification (ms)", verify_ms, "ms");
  print_latency("estimate (us)", est_us, "us");
  std::printf("%s\n", kernel.summary().c_str());

  if (!opts.trace) {
    r.add("jobs_per_s", jobs_per_s, "1/s");
    r.add("job_p50_ms", median_of_means(verify_ms, designs), "ms");
    r.add("estimate_p50_us", median_of_means(est_us, in.opamps.size()), "us");
    r.add("spec_met_ratio", double(met) / double(in.opamps.size()), "ratio");
    r.add("est_sim_err_pct", median(err_pct), "%");
    return r;
  }

  // Traced pass: one span per estimate / verification call.
  SpanLog spans;
  std::vector<double> t_est, t_verify;
  const int64_t t0 = now_ns();
  (void)sweep(in, t_est, t_verify, &spans, r, &failed);
  const double traced_rate = double(designs) / (double(now_ns() - t0) * 1e-9);
  r.attempted += static_cast<long>(designs);
  r.failed = failed;

  // Per-analysis split on every netlist the sweep verifies.
  std::vector<NetlistSplit> op_splits, mod_splits;
  std::deque<ape::spice::MosModelCard> cards;
  std::vector<BiasPoint> points;
  const ape::est::OpAmpEstimator oe(in.proc);
  for (size_t i = 0; i < in.opamps.size(); ++i) {
    const ape::est::OpAmpDesign d = oe.estimate(in.opamps[i]);
    op_splits.push_back(split_opamp("opamp" + std::to_string(i) + "/open_loop",
                                    d, in.proc, spans));
    collect_bias_points(d, in.proc, cards, points);
  }
  const ape::est::ModuleEstimator me(in.proc);
  for (const ModuleSpec& spec : in.modules) {
    mod_splits.push_back(split_module(
        std::string("module/") + ape::est::to_string(spec.kind),
        me.estimate(spec), in.proc, spans));
  }
  print_splits(op_splits);
  print_splits(mod_splits);
  const auto layers = layer_times(spans);
  print_layer_table(layers);

  auto collect = [&](const std::vector<NetlistSplit>& splits, double NetlistSplit::*f) {
    std::vector<double> v;
    for (const NetlistSplit& s : splits) {
      if (s.*f > 0.0) v.push_back(s.*f);
    }
    return median(v);
  };
  for (const auto* splits : {&op_splits, &mod_splits}) {
    for (const NetlistSplit& s : *splits) {
      r.check(s.ok, "analysis failed on " + s.name + ": " + s.error);
    }
  }
  r.add("estimator.estimate_us", span_p50(layers, "estimator.estimate", 1e-3), "us");
  r.add("estimator.module_estimate_us", span_p50(layers, "estimator.module_estimate", 1e-3), "us");
  r.add("estimator.simulate_opamp_ms", span_p50(layers, "estimator.simulate_opamp", 1e-6), "ms");
  r.add("synth.verify_module_ms", span_p50(layers, "synth.verify_module", 1e-6), "ms");
  r.add("spice.mos_eval_ns", time_mos_eval_ns(points), "ns");
  r.add("spice.dc_us", collect(op_splits, &NetlistSplit::dc_us), "us");
  r.add("spice.ac_us", collect(op_splits, &NetlistSplit::ac_us), "us");
  r.add("spice.noise_us", collect(op_splits, &NetlistSplit::noise_us), "us");
  r.add("spice.tran_ms", collect(op_splits, &NetlistSplit::tran_ms), "ms");
  r.add("spice.module_dc_us", collect(mod_splits, &NetlistSplit::dc_us), "us");
  r.add("spice.module_ac_us", collect(mod_splits, &NetlistSplit::ac_us), "us");
  r.add("spice.module_noise_us", collect(mod_splits, &NetlistSplit::noise_us), "us");
  r.add("spice.module_tran_ms", collect(mod_splits, &NetlistSplit::tran_ms), "ms");
  add_kernel_metrics(kernel, r);
  r.add("trace.overhead_pct", 100.0 * (jobs_per_s - traced_rate) / jobs_per_s, "%");
  const LayerTime& design_t = layers.at("design");
  r.add("trace.job_coverage_ratio", 1.0 - design_t.self_ns / design_t.total_ns,
        "ratio");
  r.add("trace.spans", double(spans.spans().size()), "count");

  const std::string path = opts.workdir + "/spans-verify_sweep.jsonl";
  r.check(write_spans(spans, path), "cannot write " + path);
  return r;
}

}  // namespace perfbench
