#include <gtest/gtest.h>

#include <cmath>

#include "src/spice/analysis.h"
#include "src/spice/circuit.h"
#include "src/spice/devices.h"
#include "src/spice/measure.h"
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

}  // namespace
}  // namespace ape::spice
