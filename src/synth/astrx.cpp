#include "src/synth/astrx.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <thread>

#include "src/runtime/executor.h"
#include "src/spice/analysis.h"
#include "src/spice/fault.h"
#include "src/spice/measure.h"
#include "src/spice/parser.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"

namespace ape::synth {
namespace {

/// Cost assigned to candidates whose evaluation threw: a plateau far
/// above any real constraint-violation cost so the annealer walks away,
/// while the failure is counted instead of silently dropped.
constexpr double kSkippedCandidateCost = 1e6;

using est::ModuleDesign;
using est::ModuleKind;
using est::ModuleSpec;
using est::OpAmpDesign;
using est::OpAmpSpec;
using est::Process;

/// Geometric center of a box (the "no initial point" start).
std::vector<double> box_center(const std::vector<std::pair<double, double>>& b) {
  std::vector<double> x(b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    x[i] = std::sqrt(std::max(b[i].first, 1e-300) *
                     std::max(b[i].second, 1e-300));
  }
  return x;
}

/// One restart's absorbed failures and bias-solve work (per restart, so
/// parallel restarts never share a mutable).
struct RestartCounters {
  int skipped = 0;
  BiasStageCounts bias;
};

/// One restart's search outcome plus its counters.
struct RestartRun {
  AnnealResult ar;
  RestartCounters counters;
};

/// Aggregated multi-start result.
struct MultiStartResult {
  AnnealResult best;
  int best_restart = 0;
  int restarts_run = 1;
  int skipped = 0;             ///< summed over restarts
  int rejected_nonfinite = 0;  ///< summed over restarts
  int evaluations = 0;         ///< summed over restarts
  BiasStageCounts bias;        ///< summed over restarts
  bool budget_exhausted = false;
};

/// Run opts.restarts independent anneals of the cost produced by
/// \p make_cost (called once per restart with that restart's
/// counters) and pick the winner: lowest best_cost, lowest restart index
/// on ties. Restart 0 anneals with opts.anneal.seed verbatim; restart
/// r > 0 with the derived stream Rng::derive_stream(seed, r). Unless a
/// budget stops it, every restart runs to completion, so the aggregate is
/// bit-identical whether the restarts execute serially or on a pool of
/// any size.
MultiStartResult multi_start_anneal(
    const std::function<std::function<double(const std::vector<double>&)>(
        RestartCounters* counters)>& make_cost,
    const std::vector<std::pair<double, double>>& bounds,
    const std::vector<double>& x0, const SynthesisOptions& opts) {
  const int m = std::max(opts.restarts, 1);
  std::vector<RestartRun> runs(static_cast<size_t>(m));

  auto run_one = [&](int r) {
    AnnealOptions ao = opts.anneal;
    if (r > 0) ao.seed = Rng::derive_stream(opts.anneal.seed, uint64_t(r));
    RestartRun run;
    run.ar = anneal(make_cost(&run.counters), bounds, x0, ao);
    return run;
  };

  int threads = opts.restart_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  threads = std::min(threads, m);

  int executed = m;
  if (m == 1 || threads <= 1) {
    // Serial mode honours the proven cost floor: once a restart lands
    // within early_stop_frac of a bound no point in the box can beat,
    // further restarts are provably wasted and are not launched.
    double best_so_far = std::numeric_limits<double>::infinity();
    for (int r = 0; r < m; ++r) {
      runs[size_t(r)] = run_one(r);
      best_so_far = std::min(best_so_far, runs[size_t(r)].ar.best_cost);
      if (opts.cost_lower_bound > 0.0 && r + 1 < m &&
          best_so_far <=
              opts.cost_lower_bound * (1.0 + opts.early_stop_frac)) {
        executed = r + 1;
        break;
      }
    }
  } else {
    // Each restart runs under the caller's job context (provenance,
    // budget, solver policy) minus its unsynchronized members.
    const JobContext inherited = job_context().fork();
    runtime::Executor pool(threads);
    std::vector<std::future<RestartRun>> futures;
    futures.reserve(static_cast<size_t>(m));
    for (int r = 0; r < m; ++r) {
      futures.push_back(pool.submit([&run_one, &inherited, r] {
        ScopedJobContext job(inherited);
        ErrorContext scope("restart[" + std::to_string(r) + "]");
        return run_one(r);
      }));
    }
    for (int r = 0; r < m; ++r) runs[size_t(r)] = futures[size_t(r)].get();
  }

  MultiStartResult ms;
  ms.restarts_run = executed;
  ms.best = runs[0].ar;
  for (int r = 0; r < executed; ++r) {
    const RestartRun& run = runs[size_t(r)];
    ms.skipped += run.counters.skipped;
    ms.bias.solved += run.counters.bias.solved;
    ms.bias.reused += run.counters.bias.reused;
    ms.rejected_nonfinite += run.ar.rejected_nonfinite;
    ms.evaluations += run.ar.evaluations;
    ms.budget_exhausted = ms.budget_exhausted || run.ar.budget_exhausted;
    if (r > 0 && run.ar.best_cost < ms.best.best_cost) {
      ms.best = run.ar;
      ms.best_restart = r;
    }
  }
  return ms;
}

}  // namespace

SynthesisOutcome synthesize_opamp(const Process& proc, const OpAmpSpec& spec,
                                  const SynthesisOptions& opts) {
  ErrorContext scope("synthesize_opamp");
  const double t0 = now_seconds();
  const bool buffered = spec.buffer;

  std::vector<std::pair<double, double>> bounds;
  std::vector<double> x0;
  if (opts.use_ape_seed) {
    OpAmpDesign seed_local;
    const OpAmpDesign* seed = opts.seed_design;
    if (seed == nullptr) {
      seed_local = est::OpAmpEstimator(proc).estimate(spec);
      seed = &seed_local;
    }
    x0 = vars_from_design(*seed).pack();
    bounds = seeded_bounds(x0, opts.interval_frac, proc, buffered);
  } else {
    bounds = blind_bounds(proc, buffered);
    x0 = box_center(bounds);
  }
  // Proven feasible box (SynthesisOptions::feasible_box): every sizing
  // that can meet the spec lies inside it, so restricting the search —
  // and therefore every restart's random walk — to the intersection
  // loses nothing and skips provably-hopeless regions. Dimension
  // mismatch (buffered layout vs the 13-var proof) leaves the bounds
  // untouched.
  if (opts.feasible_box.size() == bounds.size()) {
    for (size_t i = 0; i < bounds.size(); ++i) {
      const double lo = std::max(bounds[i].first, opts.feasible_box[i].first);
      const double hi = std::min(bounds[i].second, opts.feasible_box[i].second);
      if (lo <= hi) {
        bounds[i] = {lo, hi};
        x0[i] = std::clamp(x0[i], lo, hi);
      }
    }
  }

  OpAmpSpec target = spec;
  target.gain *= opts.target_margin;
  target.ugf_hz *= opts.target_margin;
  // Worst-corner yield term (SynthesisOptions::yield_weight): score the
  // candidate at every corner card (through that corner's memo) and add
  // the worst weighted corner cost on top of the nominal cost. A corner
  // that cannot evaluate the candidate contributes the skipped plateau,
  // so corner-fragile points are penalized, never silently accepted.
  const bool yield_aware =
      opts.yield_weight > 0.0 && !opts.corner_procs.empty();
  auto corner_term = [&opts, &spec, target, yield_aware](
                         std::vector<BiasMemo>& corner_memos,
                         const OpAmpVars& v) {
    if (!yield_aware) return 0.0;
    double worst = 0.0;
    for (BiasMemo& memo : corner_memos) {
      double c;
      try {
        c = opamp_cost(evaluate_opamp_vars(memo, v, spec.cload), target);
      } catch (const Error&) {
        c = kSkippedCandidateCost;
      }
      if (c > worst) worst = c;
    }
    return opts.yield_weight * worst;
  };
  // Each restart's cost owns its bias memos: one for the nominal process
  // and, for the yield term, one per corner card.
  auto make_cost = [&proc, &spec, &opts, target, buffered, yield_aware,
                    &corner_term](RestartCounters* counters) {
    BiasMemo nominal(proc, spec.ibias, counters->bias);
    std::vector<BiasMemo> corner_memos;
    if (yield_aware) {
      corner_memos.reserve(opts.corner_procs.size());
      for (const Process& cp : opts.corner_procs) {
        corner_memos.emplace_back(cp, spec.ibias, counters->bias);
      }
    }
    return [&spec, target, buffered, &corner_term, counters, nominal,
            corner_memos](const std::vector<double>& x) mutable {
      try {
        if (auto* fi = job_context().fault_injector) fi->on_cost_eval();
        const OpAmpVars v = OpAmpVars::unpack(x, buffered);
        return opamp_cost(evaluate_opamp_vars(nominal, v, spec.cload), target) +
               corner_term(corner_memos, v);
      } catch (const Error&) {
        // A candidate the estimator cannot evaluate (SpecError on a wild
        // geometry, numerical failure) is a bad point, not a dead run.
        ++counters->skipped;
        return kSkippedCandidateCost;
      }
    };
  };
  const MultiStartResult ms = multi_start_anneal(make_cost, bounds, x0, opts);
  const AnnealResult& ar = ms.best;

  SynthesisOutcome out = finalize_opamp_outcome(proc, spec, ar.best_x, ar.best_cost);
  out.skipped_candidates = ms.skipped;
  out.rejected_nonfinite = ms.rejected_nonfinite;
  out.budget_exhausted = ms.budget_exhausted;
  out.evaluations = ms.evaluations;
  out.bias_stages = ms.bias;
  out.restarts_run = ms.restarts_run;
  out.best_restart = ms.best_restart;
  out.cpu_seconds = now_seconds() - t0;
  return out;
}

SynthesisOutcome finalize_opamp_outcome(const Process& proc,
                                        const OpAmpSpec& spec,
                                        const std::vector<double>& best_x,
                                        double best_cost) {
  ErrorContext scope("finalize_opamp_outcome");
  const bool buffered = spec.buffer;
  SynthesisOutcome out;
  out.cost = best_cost;
  out.best_x = best_x;
  const OpAmpVars best = OpAmpVars::unpack(best_x, buffered);
  out.design = design_from_vars(proc, best, spec, &out.functional);

  // Verify on the full simulator (skip the transient when clearly broken).
  bool sim_ok = false;
  try {
    out.sim = est::simulate_opamp(out.design, proc, /*with_transient=*/out.functional);
    sim_ok = true;
  } catch (const Error&) {
    sim_ok = false;
  }
  out.sim_failed = !sim_ok;

  // Table-1 style diagnosis against the spec.
  const double vdd = proc.vdd;
  if (!sim_ok || !out.functional || out.sim.out_dc < 0.25 ||
      out.sim.out_dc > vdd - 0.25) {
    out.comment = "doesn't work";
    return out;
  }
  if (out.sim.gain < 0.9 * spec.gain) {
    out.comment = out.sim.gain < 0.5 * spec.gain ? "Gain << Spec" : "Gain < spec";
    return out;
  }
  const double ugf = out.sim.ugf_hz.value_or(0.0);
  if (ugf < 0.9 * spec.ugf_hz) {
    out.comment = "UGF < spec";
    return out;
  }
  if (spec.area_budget > 0.0 &&
      out.design.perf.gate_area > 1.15 * spec.area_budget) {
    out.comment = out.design.perf.gate_area > 3.0 * spec.area_budget
                      ? "Area >> Spec"
                      : "Area > spec";
    return out;
  }
  out.meets_spec = true;
  out.comment = "Meets spec";
  return out;
}

// ---------------------------------------------------------------------------
// Module-level synthesis.

namespace {

/// How many distinct opamp geometry blocks a module optimizes (the flash
/// ADC shares one comparator sizing across all 2^n - 1 instances).
size_t distinct_amps(const ModuleDesign& proto) {
  switch (proto.spec.kind) {
    case ModuleKind::FlashAdc: return 1;
    default: return proto.opamps.size();
  }
}

bool table5_kind(ModuleKind k) {
  switch (k) {
    case ModuleKind::AudioAmp:
    case ModuleKind::SampleHold:
    case ModuleKind::FlashAdc:
    case ModuleKind::LowPassFilter:
    case ModuleKind::BandPassFilter:
      return true;
    default:
      return false;
  }
}

/// Names of the passive unknowns per kind.
std::vector<std::string> passive_vars(const ModuleDesign& proto) {
  switch (proto.spec.kind) {
    case ModuleKind::AudioAmp: return {"Rb"};
    case ModuleKind::SampleHold: return {"Rb", "Ch"};
    case ModuleKind::FlashAdc: return {"Rseg"};
    case ModuleKind::LowPassFilter: {
      std::vector<std::string> names;
      for (size_t st = 0; st < proto.opamps.size(); ++st) {
        const std::string s = std::to_string(st);
        names.push_back("R" + s);
        names.push_back("C" + s);
        names.push_back("Rb" + s);
      }
      return names;
    }
    case ModuleKind::BandPassFilter: return {"R1", "R2", "C"};
    default: return {};
  }
}

std::pair<double, double> passive_blind_bound(const std::string& name) {
  if (name == "Ch") return {1e-12, 1e-9};
  if (name == "Rseg") return {500.0, 100e3};
  if (name[0] == 'C') return {10e-12, 1e-6};
  return {100.0, 10e6};  // resistors
}

double get_passive(const ModuleDesign& d, const std::string& name) {
  for (const auto& p : d.passives) {
    if (p.name == name) return p.value;
  }
  throw SpecError("module synthesis: missing passive " + name);
}

void set_passive(ModuleDesign& d, const std::string& name, double value) {
  for (auto& p : d.passives) {
    if (p.name == name) {
      p.value = value;
      return;
    }
  }
  throw SpecError("module synthesis: missing passive " + name);
}

/// Build the candidate module design from an unknown vector.
ModuleDesign module_from_vars(const Process& proc, const ModuleDesign& proto,
                              const std::vector<double>& x,
                              bool* functional_out) {
  ModuleDesign d = proto;
  const size_t n_amps = distinct_amps(proto);
  const bool buffered = proto.opamps.front().spec.buffer;
  const size_t stride = buffered ? 15 : 13;
  bool functional = true;

  for (size_t a = 0; a < n_amps; ++a) {
    std::vector<double> sub(x.begin() + a * stride,
                            x.begin() + (a + 1) * stride);
    const OpAmpVars v = OpAmpVars::unpack(sub, buffered);
    const OpAmpSpec aspec = proto.opamps[a].spec;
    bool amp_functional = false;
    OpAmpDesign ad = design_from_vars(proc, v, aspec, &amp_functional);
    if (!amp_functional) functional = false;
    if (proto.spec.kind == ModuleKind::FlashAdc) {
      for (auto& amp : d.opamps) amp = ad;
    } else {
      d.opamps[a] = ad;
    }
  }
  const auto pnames = passive_vars(proto);
  for (size_t i = 0; i < pnames.size(); ++i) {
    set_passive(d, pnames[i], x[n_amps * stride + i]);
  }
  if (functional_out != nullptr) *functional_out = functional;
  return d;
}

/// Fast (macromodel / analytic) metrics of a candidate module.
struct ModuleMetrics {
  bool ok = false;
  double gain = 0.0, bw = 0.0, f3db = 0.0, f0 = 0.0, delay = 0.0, area = 0.0,
         slew = 0.0;
};

ModuleMetrics module_metrics_fast(const Process& proc, const ModuleDesign& d,
                                  bool functional, int* skipped) {
  ModuleMetrics m;
  m.area = est::amp_area(d);
  for (const auto& s : d.switches) m.area += s.gate_area();
  if (!functional) return m;

  if (d.spec.kind == ModuleKind::FlashAdc) {
    const auto& comp = d.opamps.front().perf;
    const double lsb = proc.vdd / (1 << d.spec.order);
    const double v_ov = 0.5 * lsb;
    const double t_linear =
        0.5 * proc.vdd / (2.0 * M_PI * std::max(comp.ugf_hz, 1.0) * v_ov);
    const double t_slew = 0.5 * proc.vdd / std::max(comp.slew, 1.0);
    const double r_ladder = get_passive(d, "Rseg") * (1 << d.spec.order) / 4.0;
    const double cin = d.opamps.front().transistors.front().cgs * 2.0;
    m.delay = std::max(t_linear, t_slew) + 3.0 * r_ladder * cin;
    m.slew = comp.slew;
    m.ok = comp.gain > 10.0;
    return m;
  }

  try {
    const double fc = d.spec.kind == ModuleKind::AudioAmp ||
                              d.spec.kind == ModuleKind::SampleHold
                          ? d.spec.bw_hz
                          : d.spec.f0_hz;
    const spice::Bode bode = est::macro_bode(d, proc, fc * 1e-2, fc * 1e2, 10);
    m.gain = bode.dc_gain();
    m.bw = bode.f_3db().value_or(0.0);
    m.f3db = m.bw;
    if (d.spec.kind == ModuleKind::BandPassFilter) {
      m.f0 = bode.peak_freq();
      m.gain = bode.peak_gain();
      m.bw = bode.bandwidth_3db().value_or(0.0);
    }
    m.slew = d.opamps.front().perf.slew;
    m.ok = true;
  } catch (const Error&) {
    // Macromodel netlist failed to parse/solve for this candidate:
    // score it as non-functional and count the skip.
    m.ok = false;
    if (skipped != nullptr) ++*skipped;
  }
  return m;
}

double module_cost(const ModuleMetrics& m, const ModuleSpec& spec,
                   bool functional) {
  if (!functional || !m.ok) return kNonFunctionalCost;
  auto rel = [](double value, double target) {
    return target > 0.0 ? value / target - 1.0 : 0.0;
  };
  auto under = [&](double value, double target) {
    return std::max(0.0, -rel(value, target));
  };
  auto over = [&](double value, double target) {
    return std::max(0.0, rel(value, target));
  };
  double c = 0.0;
  switch (spec.kind) {
    case ModuleKind::AudioAmp: {
      const double g = std::fabs(rel(std::fabs(m.gain), spec.gain));
      const double b = under(m.bw, spec.bw_hz);
      c = 10.0 * g * g + 10.0 * b * b;
      break;
    }
    case ModuleKind::SampleHold: {
      const double g = std::fabs(rel(std::fabs(m.gain), spec.gain));
      const double b = under(m.bw, spec.bw_hz);
      const double s = under(m.slew, spec.slew);
      c = 10.0 * g * g + 10.0 * b * b + 4.0 * s * s;
      break;
    }
    case ModuleKind::FlashAdc: {
      const double dl = over(m.delay, spec.delay_s);
      c = 10.0 * dl * dl;
      break;
    }
    case ModuleKind::LowPassFilter: {
      const double f = std::fabs(rel(m.f3db, spec.f0_hz));
      c = 20.0 * f * f;
      break;
    }
    case ModuleKind::BandPassFilter: {
      const double f = std::fabs(rel(m.f0, spec.f0_hz));
      const double b = std::fabs(rel(m.bw, spec.f0_hz));  // BW = f0 shape
      c = 20.0 * f * f + 5.0 * b * b;
      break;
    }
    default:
      break;  // unreachable: synthesize_module guards on table5_kind
  }
  if (spec.area_budget > 0.0) {
    const double a = over(m.area, spec.area_budget);
    c += 4.0 * a * a;
  }
  c += 0.02 * m.area / 5e-9;
  return c;
}

}  // namespace

void verify_module(const Process& proc, const ModuleDesign& d,
                   ModuleSynthesisOutcome& out) {
  ErrorContext scope("verify_module");
  const est::Testbench tb = d.testbench(proc);
  spice::Circuit ckt = spice::parse_netlist(tb.netlist);

  out.sim_area = est::amp_area(d);
  for (const auto& s : d.switches) out.sim_area += s.gate_area();

  if (d.spec.kind == ModuleKind::FlashAdc ||
      d.spec.kind == ModuleKind::Comparator) {
    const double window = 3.0 * std::max(d.spec.delay_s, d.perf.delay_s) + 2e-6;
    const auto tr = spice::transient(ckt, window / 600.0, 1e-6 + window);
    const auto tc = spice::crossing_time(tr, ckt.find_node("out"), 0.5 * proc.vdd);
    out.sim_delay_s = tc ? std::max(*tc - 1e-6, 0.0) : window;
    return;
  }

  (void)spice::dc_operating_point(ckt);
  const double fc = (d.spec.kind == ModuleKind::AudioAmp ||
                     d.spec.kind == ModuleKind::SampleHold ||
                     d.spec.kind == ModuleKind::InvertingAmp ||
                     d.spec.kind == ModuleKind::Adder)
                        ? d.spec.bw_hz
                        : d.spec.f0_hz;
  // Integrators put their lossy corner decades below the unity-gain
  // frequency: start the sweep low enough to see the true DC gain.
  const double f_start =
      d.spec.kind == ModuleKind::Integrator ? fc * 1e-4 : fc * 1e-2;
  const auto ac = spice::ac_analysis(ckt, f_start, fc * 300.0, 20);
  const spice::Bode bode(ac, ckt.find_node("out"));
  out.sim_gain = bode.dc_gain();
  out.sim_bw_hz = bode.f_3db().value_or(0.0);
  out.sim_f3db_hz = out.sim_bw_hz;
  out.sim_f20db_hz = bode.mag_crossing(bode.dc_gain() / 10.0).value_or(0.0);
  if (d.spec.kind == ModuleKind::BandPassFilter) {
    out.sim_f0_hz = bode.peak_freq();
    out.sim_gain = bode.peak_gain();
    out.sim_bw_hz = bode.bandwidth_3db().value_or(0.0);
  }

  if (d.spec.kind == ModuleKind::SampleHold) {
    // Slew from the built-in input pulse.
    const double est_slew = std::max(d.perf.slew, 1e3);
    const double window = std::clamp(8.0 * 0.4 / est_slew, 2e-6, 1e-2);
    const auto tr = spice::transient(ckt, window / 300.0, 1e-6 + window);
    const spice::NodeId out_node = ckt.find_node("out");
    const double v0 = tr.voltage(out_node, 0);
    const double v1 = spice::final_value(tr, out_node);
    const auto t20 = spice::crossing_time(tr, out_node, v0 + 0.2 * (v1 - v0));
    const auto t80 = spice::crossing_time(tr, out_node, v0 + 0.8 * (v1 - v0));
    if (t20 && t80 && *t80 > *t20) {
      out.sim_slew = 0.6 * std::fabs(v1 - v0) / (*t80 - *t20);
    }
  }
}

ModuleSynthesisOutcome synthesize_module(const Process& proc,
                                         const ModuleSpec& spec,
                                         const SynthesisOptions& opts) {
  ErrorContext scope("synthesize_module");
  if (!table5_kind(spec.kind)) {
    throw SpecError(
        "synthesize_module: only the Table-5 module kinds (amp, s&h, adc, "
        "lpf, bpf) have synthesis cost models; estimate() supports all kinds");
  }
  const double t0 = now_seconds();

  // Structure (topology) comes from the estimator in both modes; blind
  // mode discards its sizing, mirroring ASTRX's fixed-topology premise.
  ModuleDesign proto_local;
  if (opts.module_proto == nullptr) {
    proto_local = est::ModuleEstimator(proc).estimate(spec);
  }
  const ModuleDesign& proto =
      opts.module_proto != nullptr ? *opts.module_proto : proto_local;
  const size_t n_amps = distinct_amps(proto);
  const bool buffered = proto.opamps.front().spec.buffer;
  const auto pnames = passive_vars(proto);

  std::vector<std::pair<double, double>> bounds;
  std::vector<double> seed;
  for (size_t a = 0; a < n_amps; ++a) {
    const auto sub = vars_from_design(proto.opamps[a]).pack();
    seed.insert(seed.end(), sub.begin(), sub.end());
    const auto b = blind_bounds(proc, buffered);
    bounds.insert(bounds.end(), b.begin(), b.end());
  }
  for (const auto& name : pnames) {
    seed.push_back(get_passive(proto, name));
    bounds.push_back(passive_blind_bound(name));
  }
  std::vector<double> x0;
  if (opts.use_ape_seed) {
    x0 = seed;
    bounds = narrow_box(seed, opts.interval_frac, bounds);
  } else {
    x0 = box_center(bounds);
  }

  auto make_cost = [&proc, &proto, &spec](RestartCounters* counters) {
    return [&proc, &proto, &spec, counters](const std::vector<double>& x) {
      try {
        if (auto* fi = job_context().fault_injector) fi->on_cost_eval();
        bool functional = false;
        const ModuleDesign cand = module_from_vars(proc, proto, x, &functional);
        return module_cost(
            module_metrics_fast(proc, cand, functional, &counters->skipped),
            spec, functional);
      } catch (const Error&) {
        ++counters->skipped;
        return kSkippedCandidateCost;
      }
    };
  };
  const MultiStartResult ms = multi_start_anneal(make_cost, bounds, x0, opts);
  const AnnealResult& ar = ms.best;

  ModuleSynthesisOutcome out;
  out.cost = ar.best_cost;
  out.skipped_candidates = ms.skipped;
  out.rejected_nonfinite = ms.rejected_nonfinite;
  out.budget_exhausted = ms.budget_exhausted;
  out.evaluations = ms.evaluations;
  out.restarts_run = ms.restarts_run;
  out.best_restart = ms.best_restart;
  out.best_x = ar.best_x;
  bool functional = false;
  out.design = module_from_vars(proc, proto, ar.best_x, &functional);
  out.functional = functional;

  bool sim_ok = false;
  try {
    verify_module(proc, out.design, out);
    sim_ok = true;
  } catch (const Error&) {
    sim_ok = false;
  }
  out.sim_failed = !sim_ok;
  out.cpu_seconds = now_seconds() - t0;

  if (!sim_ok || !functional) {
    out.comment = "Doesn't Work";
    return out;
  }

  // Spec check per kind (simulator-verified).
  auto within = [](double value, double target, double frac) {
    return target <= 0.0 ||
           (value >= target * (1.0 - frac) && value <= target * (1.0 + frac));
  };
  bool ok = true;
  std::string why;
  switch (spec.kind) {
    case ModuleKind::AudioAmp:
      if (!within(std::fabs(out.sim_gain), spec.gain, 0.35)) {
        ok = false;
        why = "gain off spec";
      } else if (out.sim_bw_hz < 0.9 * spec.bw_hz) {
        ok = false;
        why = "BW < spec";
      }
      break;
    case ModuleKind::SampleHold:
      if (!within(std::fabs(out.sim_gain), spec.gain, 0.25)) {
        ok = false;
        why = "gain off spec";
      } else if (out.sim_bw_hz < 0.9 * spec.bw_hz) {
        ok = false;
        why = "BW < spec";
      } else if (out.sim_slew < 0.9 * spec.slew) {
        ok = false;
        why = "SR < spec";
      }
      break;
    case ModuleKind::FlashAdc:
      if (out.sim_delay_s > 1.1 * spec.delay_s) {
        ok = false;
        why = "delay > spec";
      }
      break;
    case ModuleKind::LowPassFilter:
      if (!within(out.sim_f3db_hz, spec.f0_hz, 0.15)) {
        ok = false;
        why = "f-3dB off spec";
      }
      break;
    case ModuleKind::BandPassFilter:
      if (!within(out.sim_f0_hz, spec.f0_hz, 0.15)) {
        ok = false;
        why = "f0 off spec";
      }
      break;
    default:
      break;  // unreachable: synthesize_module guards on table5_kind
  }
  if (ok && spec.area_budget > 0.0 && out.sim_area > 2.0 * spec.area_budget) {
    ok = false;
    why = "area >> spec";
  }
  out.meets_spec = ok;
  out.comment = ok ? "Meets spec" : why;
  return out;
}

}  // namespace ape::synth
