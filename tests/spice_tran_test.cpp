#include <gtest/gtest.h>

#include <cmath>

#include "bench/bench_util.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/estimator/verify.h"
#include "src/spice/analysis.h"
#include "src/spice/circuit.h"
#include "src/spice/devices.h"
#include "src/spice/fault.h"
#include "src/spice/measure.h"
#include "src/spice/parser.h"
#include "tests/reference_analyses.h"
#include "tests/test_models.h"

namespace ape::spice {
namespace {

Waveform step(double v0, double v1, double td = 1e-6) {
  Waveform w;
  w.kind = Waveform::Kind::Pulse;
  w.v1 = v0;
  w.v2 = v1;
  w.td = td;
  w.tr = 1e-9;
  w.tf = 1e-9;
  w.pw = 1.0;  // effectively a step
  w.per = 2.0;
  w.dc = v0;
  return w;
}

TEST(SpiceTran, RcStepResponseTimeConstant) {
  // tau = 1 ms; at t = tau the output reaches 1 - 1/e.
  Circuit ckt("rct");
  ckt.add<VSource>("vin", ckt.node("in"), kGround, step(0.0, 1.0, 0.0));
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("out"), 1e3);
  ckt.add<Capacitor>("c1", ckt.node("out"), kGround, 1e-6);
  const auto tr = transient(ckt, 10e-6, 10e-3);
  const NodeId out = ckt.find_node("out");
  // Sample near t = tau.
  double v_tau = 0.0;
  for (size_t k = 0; k < tr.time_s.size(); ++k) {
    if (tr.time_s[k] >= 1e-3) {
      v_tau = tr.voltage(out, k);
      break;
    }
  }
  EXPECT_NEAR(v_tau, 1.0 - std::exp(-1.0), 0.01);
  EXPECT_NEAR(final_value(tr, out), 1.0, 1e-3);
}

TEST(SpiceTran, SinSourceAmplitude) {
  Circuit ckt("sint");
  Waveform w;
  w.kind = Waveform::Kind::Sin;
  w.sin_vo = 1.0;
  w.sin_va = 0.5;
  w.sin_freq = 1e3;
  ckt.add<VSource>("vin", ckt.node("in"), kGround, w);
  ckt.add<Resistor>("r1", ckt.node("in"), kGround, 1e3);
  const auto tr = transient(ckt, 5e-6, 2e-3);
  const NodeId in = ckt.find_node("in");
  double vmin = 1e9, vmax = -1e9;
  for (size_t k = 0; k < tr.time_s.size(); ++k) {
    vmin = std::min(vmin, tr.voltage(in, k));
    vmax = std::max(vmax, tr.voltage(in, k));
  }
  EXPECT_NEAR(vmax, 1.5, 0.01);
  EXPECT_NEAR(vmin, 0.5, 0.01);
}

TEST(SpiceTran, PwlRamp) {
  Circuit ckt("pwlt");
  Waveform w;
  w.kind = Waveform::Kind::Pwl;
  w.pwl = {{0.0, 0.0}, {1e-3, 2.0}};
  ckt.add<VSource>("vin", ckt.node("in"), kGround, w);
  ckt.add<Resistor>("r1", ckt.node("in"), kGround, 1e3);
  const auto tr = transient(ckt, 50e-6, 1e-3);
  const NodeId in = ckt.find_node("in");
  // Slope = 2 V / 1 ms = 2000 V/s.
  EXPECT_NEAR(slew_rate(tr, in), 2000.0, 20.0);
}

TEST(SpiceTran, CurrentSourceChargesCapLinearly) {
  // A 1 uA current step into 1 nF slews at 1000 V/ms.
  Circuit ckt("ict");
  Waveform w;
  w.kind = Waveform::Kind::Pulse;
  w.v1 = 0.0;
  w.v2 = 1e-6;
  w.td = 0.0;
  w.tr = 1e-9;
  w.tf = 1e-9;
  w.pw = 1.0;
  w.per = 2.0;
  w.dc = 0.0;
  ckt.add<ISource>("i1", kGround, ckt.node("out"), w);
  ckt.add<Capacitor>("c1", ckt.node("out"), kGround, 1e-9);
  ckt.add<Resistor>("rleak", ckt.node("out"), kGround, 1e12);
  const auto tr = transient(ckt, 10e-6, 1e-3);
  const NodeId out = ckt.find_node("out");
  // dv/dt = I/C = 1e-6/1e-9 = 1000 V/s; after 1 ms the node sits near 1 V.
  EXPECT_NEAR(final_value(tr, out), 1.0, 0.02);
  EXPECT_NEAR(slew_rate(tr, out), 1000.0, 20.0);
}

TEST(SpiceTran, InverterSwitchesAndDelays) {
  // Resistive-load NMOS inverter driven by a step.
  Circuit ckt("inv");
  const auto* m = ckt.add_model(test::nmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, [] {
    Waveform w;
    w.dc = 5.0;
    return w;
  }());
  ckt.add<VSource>("vg", ckt.node("g"), kGround, step(0.0, 5.0, 1e-7));
  ckt.add<Resistor>("rd", ckt.node("vdd"), ckt.node("d"), 20e3);
  ckt.add<Capacitor>("cl", ckt.node("d"), kGround, 1e-12);
  ckt.add<Mosfet>("m1", ckt.node("d"), ckt.node("g"), kGround, kGround, m,
                  10e-6, 2e-6);
  const auto tr = transient(ckt, 2e-9, 1e-6);
  const NodeId d = ckt.find_node("d");
  EXPECT_NEAR(tr.voltage(d, 0), 5.0, 0.01);  // off before the step
  EXPECT_LT(final_value(tr, d), 0.5);        // pulled low after
  const auto tcross = crossing_time(tr, d, 2.5);
  ASSERT_TRUE(tcross.has_value());
  EXPECT_GT(*tcross, 1e-7);
  EXPECT_LT(*tcross, 3e-7);
}

TEST(SpiceTran, TransientLeavesTheAcOperatingPointAlone) {
  // Common-source stage whose gate steps from 1.5 V to 2.5 V: the final
  // transient state sits far from the DC point. The AC sweep linearizes
  // around the DC operating point (Mosfet::op(), from the last save_op),
  // so a transient in between must not move it by a single bit.
  Circuit ckt("cs");
  const auto* m = ckt.add_model(test::nmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, [] {
    Waveform w;
    w.dc = 5.0;
    return w;
  }());
  Waveform vg = step(1.5, 2.5, 1e-7);
  vg.ac_mag = 1.0;
  ckt.add<VSource>("vg", ckt.node("g"), kGround, vg);
  ckt.add<Resistor>("rd", ckt.node("vdd"), ckt.node("d"), 20e3);
  ckt.add<Capacitor>("cl", ckt.node("d"), kGround, 1e-12);
  const auto& m1 = ckt.add<Mosfet>("m1", ckt.node("d"), ckt.node("g"), kGround,
                                   kGround, m, 10e-6, 2e-6);
  (void)dc_operating_point(ckt);
  const AcResult before = ac_analysis(ckt, 1e3, 1e9, 5);
  const double gm_dc = m1.op().gm;
  const auto tr = transient(ckt, 2e-9, 1e-6);
  const NodeId d = ckt.find_node("d");
  ASSERT_GT(std::fabs(final_value(tr, d) - tr.voltage(d, 0)), 0.5);
  EXPECT_EQ(m1.op().gm, gm_dc);
  const AcResult after = ac_analysis(ckt, 1e3, 1e9, 5);
  ASSERT_EQ(before.freq_hz.size(), after.freq_hz.size());
  for (size_t k = 0; k < before.freq_hz.size(); ++k) {
    EXPECT_EQ(before.freq_hz[k], after.freq_hz[k]);
    ASSERT_EQ(before.solutions[k].size(), after.solutions[k].size());
    for (size_t i = 0; i < before.solutions[k].size(); ++i) {
      EXPECT_EQ(before.solutions[k][i], after.solutions[k][i])
          << "point " << k << " entry " << i;
    }
  }
}

TEST(SpiceTran, BadRangeThrows) {
  Circuit ckt("bad");
  ckt.add<VSource>("v1", ckt.node("a"), kGround, step(0, 1));
  ckt.add<Resistor>("r1", ckt.node("a"), kGround, 1e3);
  EXPECT_THROW(transient(ckt, 0.0, 1e-3), SpecError);
  EXPECT_THROW(transient(ckt, 1e-3, 1e-4), SpecError);
}

TEST(SpiceTran, TrapezoidalBeatsLargeStepError) {
  // Even with a coarse step the trapezoidal rule keeps the RC solution
  // within a percent at t >> tau transitions.
  Circuit ckt("rc2");
  ckt.add<VSource>("vin", ckt.node("in"), kGround, step(0.0, 1.0, 0.0));
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("out"), 1e3);
  ckt.add<Capacitor>("c1", ckt.node("out"), kGround, 1e-6);
  const auto tr = transient(ckt, 100e-6, 10e-3);
  EXPECT_NEAR(final_value(tr, ckt.find_node("out")), 1.0, 1e-3);
}

// ---------------------------------------------------------------------------
// Transient work reuse: MOSFET bypass, per-step charge companions and
// factor reuse (DESIGN.md section 8).

Waveform dcv(double v) {
  Waveform w;
  w.dc = v;
  return w;
}

/// Common-source stage with a capacitive load; \p vg drives the gate.
Circuit make_cs_stage(const Waveform& vg) {
  Circuit ckt("cs");
  const auto* m = ckt.add_model(test::nmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, dcv(5.0));
  ckt.add<VSource>("vg", ckt.node("g"), kGround, vg);
  ckt.add<Resistor>("rd", ckt.node("vdd"), ckt.node("d"), 20e3);
  ckt.add<Capacitor>("cl", ckt.node("d"), kGround, 1e-12);
  ckt.add<Mosfet>("m1", ckt.node("d"), ckt.node("g"), kGround, kGround, m,
                  10e-6, 2e-6);
  return ckt;
}

/// Current mirror into a capacitive load, constant sources only.
Circuit make_loaded_mirror() {
  Circuit ckt("mirror");
  const auto* m = ckt.add_model(test::nmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, dcv(5.0));
  ckt.add<ISource>("iref", ckt.node("vdd"), ckt.node("ref"), dcv(100e-6));
  ckt.add<Mosfet>("m1", ckt.node("ref"), ckt.node("ref"), kGround, kGround, m,
                  20e-6, 2e-6);
  ckt.add<Mosfet>("m2", ckt.node("out"), ckt.node("ref"), kGround, kGround, m,
                  20e-6, 2e-6);
  ckt.add<Resistor>("rl", ckt.node("vdd"), ckt.node("out"), 10e3);
  ckt.add<Capacitor>("cl", ckt.node("out"), kGround, 1e-12);
  return ckt;
}

/// Steps of 2^-k seconds: every grid time k * h is exact in binary, so
/// every full step's dt = t_target - t is bitwise the same and the
/// companion conductances repeat bit for bit. (On a decimal grid dt
/// jitters in its last bits, and a step factors afresh although nothing
/// moved.)
double dyadic(int k) { return std::ldexp(1.0, -k); }

ConvergenceReport run_tran(Circuit ckt, double t_step, double t_stop) {
  ConvergenceReport rep;
  TranOptions opts;
  opts.report = &rep;
  (void)transient(ckt, t_step, t_stop, opts);
  return rep;
}

/// MOSFET evaluations: nonlinear stamps that did not bypass.
long evaluations(const KernelStats& k) { return k.nonlinear_stamps - k.device_bypasses; }

TEST(SpiceTranBypass, ConstantSourcesBypassEveryMosfetAndReuseFactors) {
  // Nothing moves after the DC point. Each MOSFET is evaluated once, on
  // the first iteration of the first step; the first step (backward
  // Euler) and the second (the first trapezoidal one) stamp different
  // companion conductances and factor once each; every later step only
  // bypasses and reuses the factors.
  const double h = dyadic(20);  // ~0.95 us
  const ConvergenceReport two = run_tran(make_loaded_mirror(), h, 2 * h);
  const ConvergenceReport many = run_tran(make_loaded_mirror(), h, 20 * h);
  const KernelStats& k2 = two.kernel;
  const KernelStats& kn = many.kernel;
  EXPECT_EQ(evaluations(k2), 2);
  EXPECT_EQ(k2.factorizations, 2);
  EXPECT_EQ(evaluations(kn), 2) << kn.summary();
  EXPECT_EQ(kn.factorizations, 2) << kn.summary();
  EXPECT_EQ(kn.factorizations + kn.factor_reuses, kn.solves);
  EXPECT_EQ(kn.solves, many.newton_iterations);
  EXPECT_EQ(kn.device_bypasses, 2 * (many.newton_iterations - 1));
  EXPECT_EQ(kn.workspace_regrowths, 0);
  EXPECT_GE(many.newton_iterations - two.newton_iterations, 2 * 18);
}

TEST(SpiceTranBypass, TheStepHoldingAPulseEdgeReEvaluates) {
  // The gate steps 1.5 V -> 2.5 V at 20 ns; on a ~1.86 ns grid the edge
  // lies inside the 11th step. Steps 3-10 sit at the DC point and reuse
  // everything; the 11th evaluates the MOSFET and factors again.
  const Waveform vg = step(1.5, 2.5, 20e-9);
  const double h = dyadic(29);
  const KernelStats k2 = run_tran(make_cs_stage(vg), h, 2 * h).kernel;
  const KernelStats k10 = run_tran(make_cs_stage(vg), h, 10 * h).kernel;
  const KernelStats k11 = run_tran(make_cs_stage(vg), h, 11 * h).kernel;
  EXPECT_EQ(evaluations(k10), evaluations(k2));
  EXPECT_EQ(k10.factorizations, k2.factorizations);
  EXPECT_GT(evaluations(k11), evaluations(k10)) << k11.summary();
  EXPECT_GT(k11.factorizations, k10.factorizations) << k11.summary();
  EXPECT_EQ(k11.factorizations + k11.factor_reuses, k11.solves);
}

TEST(SpiceTranBypass, MosfetBypassRuleChecksVoltagesAndCurrent) {
  Circuit ckt = make_cs_stage(dcv(2.0));
  ckt.finalize();
  const auto& m1 = ckt.find_as<Mosfet>("m1");
  const size_t g = static_cast<size_t>(ckt.find_node("g"));
  const size_t d = static_cast<size_t>(ckt.find_node("d"));
  Solution x;
  x.x.assign(ckt.dim(), 0.0);
  x.x[g] = 2.0;
  x.x[d] = 3.0;
  TranContext tc{1e-9, 1e-9, false, 1e-6, 1e-4};
  MnaReal first(ckt.dim()), again(ckt.dim());
  Linearization lin;
  EXPECT_FALSE(m1.stamp_tran_iteration(first, x, tc, lin));  // nothing to reuse
  ASSERT_TRUE(lin.valid);
  const Linearization taken = lin;
  // A 0.5 uV drain move is inside the window: the stamp is the stored
  // linearization, bit for bit.
  x.x[d] += 0.5e-6;
  EXPECT_TRUE(m1.stamp_tran_iteration(again, x, tc, lin));
  EXPECT_EQ(lin.v[1], taken.v[1]);
  for (size_t i = 0; i < ckt.dim() * ckt.dim(); ++i) {
    EXPECT_EQ(first.matrix().data()[i], again.matrix().data()[i]);
  }
  EXPECT_EQ(first.rhs(), again.rhs());
  // 2 uV is outside the default window but inside a tenfold one.
  x.x[d] += 1.5e-6;
  TranContext wide = tc;
  wide.bypass_vntol *= 10.0;
  wide.bypass_reltol *= 10.0;
  Linearization kept = taken;
  EXPECT_TRUE(m1.stamp_tran_iteration(again, x, wide, kept));
  EXPECT_FALSE(m1.stamp_tran_iteration(again, x, tc, lin));
  EXPECT_EQ(lin.v[1], x.x[d]);  // re-evaluated at the new point
  // The current test: a wide voltage window, but the predicted current
  // change gm * 1 mV exceeds reltol * |ids| + 1e-12 A.
  TranContext no_reltol{1e-9, 1e-9, false, 1.0, 0.0};
  x.x[g] += 1e-3;
  EXPECT_FALSE(m1.stamp_tran_iteration(again, x, no_reltol, lin));
}

TEST(SpiceTranBypass, RelaxedRungWidensTheBypassWindow) {
  // The gate ramps 0.4 uV per 1 ns step, so the drain (gain ~5.6) moves
  // about 2.2 uV per step: outside the default 1 uV window on every
  // step, inside the relaxed rung's 10 uV one for several.
  Waveform ramp;
  ramp.kind = Waveform::Kind::Pwl;
  ramp.pwl = {{0.0, 1.5}, {100e-9, 1.5 + 40e-6}};
  ramp.dc = 1.5;
  const KernelStats plain = run_tran(make_cs_stage(ramp), 1e-9, 100e-9).kernel;
  SolverRelaxation rx;
  ConvergenceReport relaxed_rep;
  {
    ScopedJobContext scope([&](JobContext& c) { c.relaxation = &rx; });
    relaxed_rep = run_tran(make_cs_stage(ramp), 1e-9, 100e-9);
  }
  ASSERT_TRUE(relaxed_rep.relaxed_tolerances);
  const KernelStats& relaxed = relaxed_rep.kernel;
  EXPECT_GE(evaluations(plain), 90) << plain.summary();
  EXPECT_LT(evaluations(relaxed) * 3, evaluations(plain)) << relaxed.summary();
}

TEST(SpiceTranBypass, Table1UnitySlewsMatchFullNewton) {
  // The slew simulate_opamp reports, on the transient with bypass and
  // factor reuse and on the full-Newton reference (every device
  // re-evaluated and every system factored on every iteration), for the
  // APE design of every Table 1 row.
  const est::Process proc = est::Process::default_1u2();
  for (const bench::PaperOpAmpRow& row : bench::table1_specs()) {
    SCOPED_TRACE(row.name);
    const est::OpAmpDesign d = est::OpAmpEstimator(proc).estimate(bench::to_spec(row));
    const est::Testbench tb = d.testbench(proc, est::OpAmpTb::UnityStep);
    const est::UnityStepGrid grid = est::unity_step_grid(d);
    Circuit ckt = parse_netlist(tb.netlist);
    Circuit ref_ckt = parse_netlist(tb.netlist);
    ConvergenceReport rep;
    TranOptions opts;
    opts.report = &rep;
    const TranResult got = transient(ckt, grid.t_step, grid.t_stop, opts);
    const TranResult ref = test::ref_transient(ref_ckt, grid.t_step, grid.t_stop);
    const double slew = est::unity_step_slew(got, ckt.find_node("out"), grid.fall_edge);
    const double want =
        est::unity_step_slew(ref, ref_ckt.find_node("out"), grid.fall_edge);
    ASSERT_GT(want, 0.0);
    EXPECT_LE(std::fabs(slew - want), 1e-9 * want) << slew << " vs " << want;
    EXPECT_GT(rep.kernel.device_bypasses, 0);
    EXPECT_GT(rep.kernel.factor_reuses, 0);
    EXPECT_EQ(rep.kernel.factorizations + rep.kernel.factor_reuses, rep.kernel.solves);
    EXPECT_EQ(rep.kernel.workspace_regrowths, 0);
  }
}

TEST(SpiceTran, ExhaustedBudgetStopsBeforeTheInitialOperatingPoint) {
  // The job's budget bounds the initial DC ladder too, not only the
  // time steps: nothing is assembled or solved.
  Circuit ckt = make_cs_stage(step(1.5, 2.5, 1e-7));
  FaultInjector fi;
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });
  RunBudget spent = RunBudget::with_evaluations(0);
  ScopedBudget job(spent);
  try {
    (void)transient(ckt, 2e-9, 1e-6);
    FAIL() << "expected the budget to stop the analysis";
  } catch (const NumericError& e) {
    EXPECT_NE(std::string(e.what()).find("dc_operating_point"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fi.counts().assemblies, 0);
  EXPECT_EQ(fi.counts().lu_solves, 0);
}

}  // namespace
}  // namespace ape::spice
