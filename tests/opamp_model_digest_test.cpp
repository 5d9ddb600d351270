// Bit-identity digests of the two-stage opamp model.
//
// The estimator (OpAmpEstimator), the annealer's analytic evaluation
// (evaluate_opamp_vars, opamp_cost, design_from_vars) and the feasibility
// prover (prove_opamp_feasibility) all describe the same two-stage Miller
// opamp. These tests hash every number they produce over a fixed corpus,
// bit for bit, so one ulp of any covered value changes a digest:
//
//  - 2,000 estimates: the 10 Table 1 rows x 200 gain/UGF perturbations
//    (Wilson and buffered rows included), every OpAmpPerf and
//    TransistorDesign field, or the error text of an infeasible spec;
//  - the annealer's evaluation, cost and materialized design at the APE
//    seed point and at seeded samples of the blind and seeded boxes of
//    every row (buffered and non-functional points included);
//  - the prover's metric bounds, verdicts and contracted feasible box for
//    random specs at every process corner;
//  - the module layer built on the opamp: estimates of every module kind,
//    two chain allocations and short seeded and blind module syntheses.
//
// The expectations were recorded before the opamp model was refactored to
// one shared composition, box and cost; a refactor must keep them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/estimator/constraints.h"
#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/lint/prove.h"
#include "src/stat/corners.h"
#include "src/synth/astrx.h"
#include "src/synth/sizing.h"
#include "src/util/error.h"
#include "src/util/rng.h"

namespace ape {
namespace {

using Box = std::vector<std::pair<double, double>>;

/// FNV-1a over the exact bytes of what it is fed.
class Digest {
public:
  void bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void str(const std::string& s) {
    num(static_cast<int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void num(int64_t v) { bytes(&v, sizeof v); }
  void num(double v) { bytes(&v, sizeof v); }
  uint64_t value() const { return h_; }

private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_transistor(Digest& d, const est::TransistorDesign& t) {
  d.num(static_cast<int64_t>(t.type));
  for (double v : {t.w, t.l, t.id, t.vgs, t.vds, t.vbs, t.vth, t.vdsat, t.gm,
                   t.gds, t.gmb, t.cgs, t.cgd, t.cgb, t.cdb, t.csb}) {
    d.num(v);
  }
}

void digest_perf(Digest& d, const est::OpAmpPerf& p) {
  for (double v : {p.gain, p.ugf_hz, p.phase_margin, p.dc_power, p.gate_area,
                   p.ibias, p.zout, p.cmrr_db, p.slew, p.input_noise_v2, p.cc,
                   p.rz, p.input_cm}) {
    d.num(v);
  }
}

void digest_design(Digest& d, const est::OpAmpDesign& od) {
  const est::OpAmpSpec& s = od.spec;
  for (double v : {s.gain, s.ugf_hz, s.ibias, s.cload, s.zout, s.area_budget}) {
    d.num(v);
  }
  d.num(static_cast<int64_t>(s.source));
  d.num(static_cast<int64_t>(s.buffer));
  digest_perf(d, od.perf);
  d.num(static_cast<int64_t>(od.transistors.size()));
  for (const auto& t : od.transistors) digest_transistor(d, t);
  for (const auto& r : od.roles) d.str(r);
}

void digest_box(Digest& d, const Box& box) {
  d.num(static_cast<int64_t>(box.size()));
  for (const auto& [lo, hi] : box) {
    d.num(lo);
    d.num(hi);
  }
}

void digest_interval(Digest& d, const util::Interval& v) {
  d.num(static_cast<int64_t>(v.empty()));
  d.num(v.lo());
  d.num(v.hi());
}

const est::TransistorDesign& role(const est::OpAmpDesign& d,
                                  const std::string& name) {
  for (size_t i = 0; i < d.roles.size(); ++i) {
    if (d.roles[i] == name) return d.transistors[i];
  }
  throw LookupError("no role " + name);
}

/// The 2,000-estimate corpus: each Table 1 row with 200 seeded
/// perturbations of its gain and UGF targets (one decade wide each).
std::vector<est::OpAmpSpec> estimate_corpus() {
  std::vector<est::OpAmpSpec> specs;
  Rng rng(0xD16E57u);
  for (const auto& row : bench::table1_specs()) {
    const est::OpAmpSpec base = bench::to_spec(row);
    for (int k = 0; k < 200; ++k) {
      est::OpAmpSpec s = base;
      s.gain = base.gain * std::pow(10.0, rng.uniform(-0.5, 0.5));
      s.ugf_hz = base.ugf_hz * std::pow(10.0, rng.uniform(-0.5, 0.5));
      specs.push_back(s);
    }
  }
  return specs;
}

/// Log-uniform point in \p box (sizing ranges span decades).
std::vector<double> sample_point(const Box& box, Rng& rng) {
  std::vector<double> x(box.size());
  for (size_t i = 0; i < box.size(); ++i) {
    x[i] = std::exp(rng.uniform(std::log(box[i].first), std::log(box[i].second)));
  }
  return x;
}

TEST(OpAmpModelDigest, DigestSeesOneUlp) {
  Digest a, b;
  a.num(1.0);
  b.num(std::nextafter(1.0, 2.0));
  EXPECT_NE(a.value(), b.value());
}

TEST(OpAmpModelDigest, EstimatesMatchTheRecordedDigest) {
  const est::Process proc = est::Process::default_1u2();
  const est::OpAmpEstimator est(proc);
  Digest d;
  int ok = 0, infeasible = 0;
  for (const est::OpAmpSpec& spec : estimate_corpus()) {
    try {
      const est::OpAmpDesign od = est.estimate(spec);
      d.str("ok");
      digest_design(d, od);
      ++ok;
    } catch (const SpecError& e) {
      d.str(e.what());
      ++infeasible;
    }
  }
  std::printf("estimates: %d sized, %d infeasible\n", ok, infeasible);
  EXPECT_EQ(ok + infeasible, 2000);
  EXPECT_GT(ok, 1500);  // the corpus is mostly feasible estimates
  EXPECT_EQ(d.value(), 0x9a4a19c6d981297cull) << std::hex << "0x" << d.value();
}

// The composition's max(..., 1e-15) guards protect the annealer's wild
// geometries. For an estimate they must never bind, or they would move
// its numbers.
TEST(OpAmpModelDigest, CompositionGuardsNeverBindForAnEstimate) {
  const est::Process proc = est::Process::default_1u2();
  const est::OpAmpEstimator est(proc);
  int checked = 0;
  for (const est::OpAmpSpec& spec : estimate_corpus()) {
    est::OpAmpDesign od;
    try {
      od = est.estimate(spec);
    } catch (const SpecError&) {
      continue;
    }
    ++checked;
    EXPECT_GE(role(od, "m1").gds + role(od, "m4").gds, 1e-15);
    EXPECT_GE(role(od, "m6").gds + role(od, "m7").gds, 1e-15);
    if (spec.buffer) {
      const auto& m9 = role(od, "m9");
      EXPECT_GE(m9.gm + m9.gmb + m9.gds + role(od, "m10").gds, 1e-15);
    }
  }
  EXPECT_GT(checked, 1500);
}

TEST(OpAmpModelDigest, AnnealerEvaluationsMatchTheRecordedDigest) {
  const est::Process proc = est::Process::default_1u2();
  const est::OpAmpEstimator est(proc);
  Digest d;
  Rng rng(0xA22EA1u);
  int functional[2] = {0, 0}, broken[2] = {0, 0};  // [buffered]
  for (const auto& row : bench::table1_specs()) {
    const est::OpAmpSpec spec = bench::to_spec(row);
    const bool buffered = spec.buffer;
    const std::vector<double> seed =
        synth::vars_from_design(est.estimate(spec)).pack();
    const Box blind = synth::blind_bounds(proc, buffered);
    const Box seeded = synth::seeded_bounds(seed, 0.2, proc, buffered);
    digest_box(d, blind);
    digest_box(d, seeded);
    std::vector<std::vector<double>> points{seed};
    for (int k = 0; k < 40; ++k) points.push_back(sample_point(seeded, rng));
    for (int k = 0; k < 40; ++k) points.push_back(sample_point(blind, rng));
    for (const auto& x : points) {
      const synth::OpAmpVars v = synth::OpAmpVars::unpack(x, buffered);
      try {
        const synth::OpAmpEval e =
            synth::evaluate_opamp_vars(proc, v, spec.ibias, spec.cload);
        d.num(static_cast<int64_t>(e.functional));
        for (double f : {e.gain, e.ugf_hz, e.phase_margin, e.gate_area,
                         e.dc_power, e.slew, e.zout, e.itail, e.imbalance}) {
          d.num(f);
        }
        d.num(synth::opamp_cost(e, spec));
        digest_design(d, synth::design_from_vars(proc, v, spec));
        (e.functional ? functional : broken)[buffered ? 1 : 0]++;
      } catch (const Error& e) {
        d.str(e.what());
      }
    }
  }
  std::printf("points: functional %d/%d, non-functional %d/%d (unbuffered/buffered)\n",
              functional[0], functional[1], broken[0], broken[1]);
  // Both kinds of point, with and without the output buffer.
  EXPECT_GT(functional[0], 0);
  EXPECT_GT(functional[1], 0);
  EXPECT_GT(broken[0], 0);
  EXPECT_GT(broken[1], 0);
  EXPECT_EQ(d.value(), 0x595ae3bff8458e73ull) << std::hex << "0x" << d.value();
}

/// Targets reach past what the blind box can prove, so the corpus holds
/// refuted specs as well as feasible ones.
est::OpAmpSpec random_spec(Rng& rng) {
  est::OpAmpSpec spec;
  spec.gain = std::pow(10.0, rng.uniform(0.5, 8.0));
  spec.ugf_hz = std::pow(10.0, rng.uniform(3.0, 11.0));
  spec.ibias = std::pow(10.0, rng.uniform(-7.0, -4.0));
  spec.cload = std::pow(10.0, rng.uniform(-13.0, -10.0));
  if (rng.uniform() < 0.5) {
    spec.area_budget = std::pow(10.0, rng.uniform(-10.0, -6.0));
  }
  return spec;
}

/// 30 random specs at each of the 7 corners, proven over the default
/// (blind) box with contraction on.
std::vector<std::pair<est::Process, est::OpAmpSpec>> prove_corpus() {
  const std::vector<est::Process> corners =
      stat::CornerSet::all().realize(est::Process::default_1u2());
  std::vector<std::pair<est::Process, est::OpAmpSpec>> cases;
  Rng rng(0xF0F0u);
  for (int k = 0; k < 30; ++k) {
    const est::OpAmpSpec spec = random_spec(rng);
    for (const est::Process& proc : corners) cases.emplace_back(proc, spec);
  }
  return cases;
}

TEST(OpAmpModelDigest, ProverBoundsMatchTheRecordedDigest) {
  Digest d;
  int infeasible = 0, feasible = 0;
  for (const auto& [proc, spec] : prove_corpus()) {
    const lint::FeasibilityProof p = lint::prove_opamp_feasibility(proc, spec);
    d.str(p.corner);
    d.num(static_cast<int64_t>(p.infeasible));
    for (const util::Interval* b :
         {&p.bounds.gain, &p.bounds.ugf_hz, &p.bounds.phase_margin,
          &p.bounds.slew, &p.bounds.dc_power, &p.bounds.gate_area,
          &p.bounds.input_noise_v2}) {
      digest_interval(d, *b);
    }
    digest_box(d, p.feasible_box);
    for (const auto& f : p.report.findings) {
      d.str(f.rule);
      d.str(f.message);
      d.str(f.where);
    }
    (p.infeasible ? infeasible : feasible)++;
  }
  std::printf("proofs: %d feasible, %d infeasible\n", feasible, infeasible);
  EXPECT_GT(infeasible, 0);
  EXPECT_GT(feasible, 0);
  EXPECT_EQ(d.value(), 0x68a2128de1914ce9ull) << std::hex << "0x" << d.value();
}

// cost_lower_bound is the one prover number allowed to move in the last
// bit: synth::opamp_cost computes each weighted square as (w * x) * x.
// It must stay within 1e-15 relative of the term-wise floor over the
// proven bounds, written here as w * (x * x).
TEST(OpAmpModelDigest, ProverCostFloorMatchesTheTermwiseFloor) {
  auto sq = [](double v) { return v * v; };
  int positive = 0;
  for (const auto& [proc, spec] : prove_corpus()) {
    const lint::FeasibilityProof p = lint::prove_opamp_feasibility(proc, spec);
    const lint::MetricBounds& b = p.bounds;
    double c = 0.0;
    if (spec.gain > 0.0) {
      c += 10.0 * sq(std::max(0.0, 1.0 - b.gain.hi() / spec.gain));
    }
    if (spec.ugf_hz > 0.0) {
      c += 10.0 * sq(std::max(0.0, 1.0 - b.ugf_hz.hi() / spec.ugf_hz));
    }
    if (spec.area_budget > 0.0) {
      c += 4.0 * sq(std::max(0.0, b.gate_area.lo() / spec.area_budget - 1.0));
    }
    c += 2.0 * sq(std::max(0.0, 45.0 - b.phase_margin.hi()) / 45.0);
    c += 0.05 * std::max(0.0, b.dc_power.lo()) / 1e-3;
    c += 0.02 * std::max(0.0, b.gate_area.lo()) / 5e-9;
    const double expect = std::min(c, 1e3);
    if (expect > 0.0) ++positive;
    EXPECT_LE(std::fabs(p.cost_lower_bound - expect), 1e-15 * expect)
        << p.corner << ": " << p.cost_lower_bound << " vs " << expect;
  }
  EXPECT_GT(positive, 0);
}

void digest_module(Digest& d, const est::ModuleDesign& m) {
  const est::ModulePerf& p = m.perf;
  for (double v : {p.gain, p.bw_hz, p.f3db_hz, p.f20db_hz, p.f0_hz, p.delay_s,
                   p.slew, p.gate_area, p.dc_power, p.f_unity_hz, p.lsb_v,
                   m.vref}) {
    d.num(v);
  }
  for (const auto& o : m.opamps) digest_design(d, o);
  for (const auto& t : m.switches) digest_transistor(d, t);
  for (const auto& pv : m.passives) {
    d.str(pv.name);
    d.num(pv.value);
  }
}

TEST(OpAmpModelDigest, ModuleResultsMatchTheRecordedDigest) {
  const est::Process proc = est::Process::default_1u2();
  std::vector<est::ModuleSpec> specs = bench::table5_specs();
  {
    est::ModuleSpec s;
    s.kind = est::ModuleKind::InvertingAmp;
    s.gain = 10.0;
    s.bw_hz = 50e3;
    specs.push_back(s);
    s = est::ModuleSpec{};
    s.kind = est::ModuleKind::Integrator;
    s.f0_hz = 10e3;
    s.gain = 100.0;
    specs.push_back(s);
    s = est::ModuleSpec{};
    s.kind = est::ModuleKind::Comparator;
    s.delay_s = 2e-6;
    specs.push_back(s);
    s = est::ModuleSpec{};
    s.kind = est::ModuleKind::Adder;
    s.order = 3;
    s.gain = 2.0;
    s.bw_hz = 50e3;
    specs.push_back(s);
    s = est::ModuleSpec{};
    s.kind = est::ModuleKind::R2RDac;
    s.order = 4;
    s.delay_s = 2e-6;
    specs.push_back(s);
  }
  Digest d;
  const est::ModuleEstimator me(proc);
  for (const est::ModuleSpec& s : specs) digest_module(d, me.estimate(s));

  for (const est::ChainAllocation& a :
       {est::allocate_gain_chain(proc, 100.0, 20e3, 2),
        est::allocate_amp_filter_chain(proc, 10.0, 1e3)}) {
    d.num(static_cast<int64_t>(a.feasible));
    for (double v : {a.system_gain, a.system_bw_hz, a.total_area, a.total_power}) {
      d.num(v);
    }
    for (const auto& m : a.designs) digest_module(d, m);
  }

  for (const bool seeded : {true, false}) {
    for (const est::ModuleSpec& s : bench::table5_specs()) {
      synth::SynthesisOptions opts;
      opts.use_ape_seed = seeded;
      opts.anneal.iterations = 40;
      opts.restart_threads = 1;
      const synth::ModuleSynthesisOutcome o = synth::synthesize_module(proc, s, opts);
      d.num(o.cost);
      for (double v : o.best_x) d.num(v);
      d.num(static_cast<int64_t>(o.functional));
      d.num(static_cast<int64_t>(o.skipped_candidates));
      d.num(static_cast<int64_t>(o.sim_failed));
      for (double v : {o.sim_gain, o.sim_bw_hz, o.sim_f3db_hz, o.sim_f20db_hz,
                       o.sim_f0_hz, o.sim_delay_s, o.sim_slew, o.sim_area}) {
        d.num(v);
      }
      d.str(o.comment);
      digest_module(d, o.design);
    }
  }
  EXPECT_EQ(d.value(), 0xf483470a8cca2a04ull) << std::hex << "0x" << d.value();
}

}  // namespace
}  // namespace ape
