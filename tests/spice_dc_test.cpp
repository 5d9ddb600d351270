#include <gtest/gtest.h>

#include <cmath>

#include "src/spice/analysis.h"
#include "src/spice/circuit.h"
#include "src/spice/devices.h"
#include "src/spice/fault.h"
#include "src/spice/parser.h"
#include "tests/test_models.h"

namespace ape::spice {
namespace {

Waveform dcv(double v) {
  Waveform w;
  w.dc = v;
  return w;
}

TEST(SpiceDc, VoltageDivider) {
  Circuit ckt("divider");
  ckt.add<VSource>("v1", ckt.node("in"), kGround, dcv(10.0));
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("mid"), 1e3);
  ckt.add<Resistor>("r2", ckt.node("mid"), kGround, 3e3);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "mid"), 7.5, 1e-6);
  EXPECT_NEAR(source_current(ckt, sol, "v1"), -10.0 / 4e3, 1e-9);
}

TEST(SpiceDc, CurrentSourceIntoResistor) {
  Circuit ckt("isrc");
  ckt.add<ISource>("i1", kGround, ckt.node("out"), dcv(1e-3));
  ckt.add<Resistor>("r1", ckt.node("out"), kGround, 2e3);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), 2.0, 1e-6);
}

TEST(SpiceDc, VcvsAmplifies) {
  Circuit ckt("vcvs");
  ckt.add<VSource>("v1", ckt.node("in"), kGround, dcv(0.25));
  ckt.add<Vcvs>("e1", ckt.node("out"), kGround, ckt.node("in"), kGround, 8.0);
  ckt.add<Resistor>("rl", ckt.node("out"), kGround, 1e3);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), 2.0, 1e-6);
}

TEST(SpiceDc, VccsIntoLoad) {
  Circuit ckt("vccs");
  ckt.add<VSource>("v1", ckt.node("in"), kGround, dcv(1.0));
  // i(out->gnd) = gm*vin into 1k: v(out) = -gm*R*vin with current direction
  ckt.add<Vccs>("g1", ckt.node("out"), kGround, ckt.node("in"), kGround, 1e-3);
  ckt.add<Resistor>("rl", ckt.node("out"), kGround, 1e3);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), -1.0, 1e-6);
}

TEST(SpiceDc, CccsMirrorsCurrent) {
  Circuit ckt("cccs");
  ckt.add<VSource>("vs", ckt.node("a"), kGround, dcv(5.0));
  ckt.add<Resistor>("r1", ckt.node("a"), ckt.node("b"), 1e3);
  ckt.add<VSource>("vmeas", ckt.node("b"), kGround, dcv(0.0));
  // 5mA flows through vmeas; F doubles it into rl.
  ckt.add<Cccs>("f1", kGround, ckt.node("out"), &ckt.find_as<VSource>("vmeas"), 2.0);
  ckt.add<Resistor>("rl", ckt.node("out"), kGround, 100.0);
  const auto sol = dc_operating_point(ckt);
  // Branch current flows + to - through vmeas: +5 mA here.
  EXPECT_NEAR(source_current(ckt, sol, "vmeas"), 5e-3, 1e-7);
  // F injects 2 * 5 mA into "out" (p = ground), so v = 10 mA * 100 ohm.
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), 1.0, 1e-5);
}

TEST(SpiceDc, DiodeForwardDrop) {
  Circuit ckt("diode");
  ckt.add<VSource>("v1", ckt.node("in"), kGround, dcv(5.0));
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("d"), 1e3);
  ckt.add<Diode>("d1", ckt.node("d"), kGround);
  const auto sol = dc_operating_point(ckt);
  const double vd = node_voltage(ckt, sol, "d");
  EXPECT_GT(vd, 0.45);
  EXPECT_LT(vd, 0.8);
}

TEST(SpiceDc, NmosCommonSourceOperatingPoint) {
  // VDD=5, Rd=10k, Vg=2V; lambda=0 so Id is the pure square law.
  auto card = test::nmos_card();
  card.lambda = 0.0;
  Circuit ckt("cs");
  const auto* m = ckt.add_model(card);
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, dcv(5.0));
  ckt.add<VSource>("vg", ckt.node("g"), kGround, dcv(2.0));
  ckt.add<Resistor>("rd", ckt.node("vdd"), ckt.node("d"), 10e3);
  ckt.add<Mosfet>("m1", ckt.node("d"), ckt.node("g"), kGround, kGround, m,
                  10e-6, 2e-6);
  const auto sol = dc_operating_point(ckt);
  const double leff = 2e-6 - 2.0 * card.ld;
  const double id = 0.5 * card.kp * (10e-6 / leff) * (2.0 - 0.8) * (2.0 - 0.8);
  EXPECT_NEAR(node_voltage(ckt, sol, "d"), 5.0 - id * 10e3, 2e-3);
  const auto& m1 = ckt.find_as<Mosfet>("m1");
  EXPECT_EQ(m1.op().region, MosRegion::Saturation);
}

TEST(SpiceDc, PmosCommonSource) {
  Circuit ckt("csp");
  const auto* m = ckt.add_model(test::pmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, dcv(5.0));
  ckt.add<VSource>("vg", ckt.node("g"), kGround, dcv(3.0));  // vgs = -2
  ckt.add<Resistor>("rd", ckt.node("d"), kGround, 10e3);
  ckt.add<Mosfet>("m1", ckt.node("d"), ckt.node("g"), ckt.node("vdd"),
                  ckt.node("vdd"), m, 30e-6, 2e-6);
  const auto sol = dc_operating_point(ckt);
  const double vd = node_voltage(ckt, sol, "d");
  EXPECT_GT(vd, 0.5);  // PMOS pulls the output high through the load
  EXPECT_LT(vd, 5.0);
}

TEST(SpiceDc, SimpleCurrentMirrorCopiesCurrent) {
  Circuit ckt("mirror");
  const auto* m = ckt.add_model(test::nmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, dcv(5.0));
  ckt.add<ISource>("iref", ckt.node("vdd"), ckt.node("ref"), dcv(100e-6));
  // Diode-connected reference device.
  ckt.add<Mosfet>("m1", ckt.node("ref"), ckt.node("ref"), kGround, kGround, m,
                  20e-6, 2e-6);
  ckt.add<Mosfet>("m2", ckt.node("out"), ckt.node("ref"), kGround, kGround, m,
                  20e-6, 2e-6);
  ckt.add<Resistor>("rl", ckt.node("vdd"), ckt.node("out"), 10e3);
  const auto sol = dc_operating_point(ckt);
  const double vout = node_voltage(ckt, sol, "out");
  const double i_out = (5.0 - vout) / 10e3;
  // Copy accuracy within a few percent (lambda mismatch between branches).
  EXPECT_NEAR(i_out, 100e-6, 8e-6);
}

TEST(SpiceDc, MirrorRatioScalesWithWidth) {
  Circuit ckt("mirror2x");
  const auto* m = ckt.add_model(test::nmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, dcv(5.0));
  ckt.add<ISource>("iref", ckt.node("vdd"), ckt.node("ref"), dcv(50e-6));
  ckt.add<Mosfet>("m1", ckt.node("ref"), ckt.node("ref"), kGround, kGround, m,
                  10e-6, 2e-6);
  ckt.add<Mosfet>("m2", ckt.node("out"), ckt.node("ref"), kGround, kGround, m,
                  20e-6, 2e-6);  // 2x width -> 2x current
  ckt.add<Resistor>("rl", ckt.node("vdd"), ckt.node("out"), 10e3);
  const auto sol = dc_operating_point(ckt);
  const double i_out = (5.0 - node_voltage(ckt, sol, "out")) / 10e3;
  EXPECT_NEAR(i_out, 100e-6, 10e-6);
}

TEST(SpiceDc, SourceCurrentMatchesLoad) {
  Circuit ckt("kcl");
  ckt.add<VSource>("v1", ckt.node("a"), kGround, dcv(1.0));
  ckt.add<Resistor>("r1", ckt.node("a"), kGround, 50.0);
  ckt.add<Resistor>("r2", ckt.node("a"), kGround, 50.0);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(source_current(ckt, sol, "v1"), -(1.0 / 50.0 + 1.0 / 50.0), 1e-9);
}

TEST(SpiceDc, ThrowsForUnknownNode) {
  Circuit ckt("x");
  ckt.add<VSource>("v1", ckt.node("a"), kGround, dcv(1.0));
  ckt.add<Resistor>("r1", ckt.node("a"), kGround, 50.0);
  const auto sol = dc_operating_point(ckt);
  EXPECT_THROW(node_voltage(ckt, sol, "nope"), LookupError);
}

TEST(SpiceDc, EditAfterFinalizeThrows) {
  Circuit ckt("frozen");
  ckt.add<VSource>("v1", ckt.node("a"), kGround, dcv(1.0));
  ckt.add<Resistor>("r1", ckt.node("a"), kGround, 50.0);
  (void)dc_operating_point(ckt);
  EXPECT_THROW(ckt.add<Resistor>("r2", ckt.node("a"), kGround, 50.0), Error);
}

// ---------------------------------------------------------------------------
// The Seeded plan: a .nodeset guess tried before the ladders.

constexpr const char* kMirrorNetlist = R"(mirror
.model modn nmos (level=1 vto=0.8 kp=80u lambda=0.02 gamma=0.4 phi=0.6)
Vdd vdd 0 DC 5
Iref vdd ref DC 100u
M1 ref ref 0 0 modn W=20u L=2u
M2 out ref 0 0 modn W=20u L=2u
Rl vdd out 10k
)";

Solution solve(const std::string& netlist, ConvergenceReport& rep) {
  Circuit ckt = parse_netlist(netlist);
  DcOptions opts;
  opts.report = &rep;
  return dc_operating_point(ckt, opts);
}

TEST(SpiceDcSeeded, NoNodesetKeepsLadderCountersExactly) {
  // Pinned from the ladder-only solver: a netlist without .nodeset must
  // take exactly the same path, iteration for iteration.
  ConvergenceReport rep;
  (void)solve(kMirrorNetlist, rep);
  EXPECT_EQ(rep.plan, DcPlan::GminLadder);
  EXPECT_EQ(rep.newton_iterations, 37);
  EXPECT_EQ(rep.gmin_rungs_completed, 11);
  EXPECT_EQ(rep.source_steps_completed, 0);
  EXPECT_EQ(rep.final_gmin, 1e-12);
  EXPECT_EQ(rep.kernel.factorizations, 37);
  EXPECT_EQ(rep.kernel.solves, 37);
  EXPECT_EQ(rep.lu_failures, 0);
  EXPECT_EQ(rep.convergence_vetoes, 0);
}

TEST(SpiceDcRelaxed, RelaxedRungWidensTolerancesAndStopsTheLadderEarly) {
  // Pinned from the solver before the relaxed rung's values became
  // constants: the same mirror solved plainly and on the supervision
  // ladder's relaxed rung (tolerances x10, gmin ladder stopped at 1e-10).
  ConvergenceReport plain;
  const Solution want = solve(kMirrorNetlist, plain);
  ConvergenceReport relaxed;
  Solution got;
  {
    ScopedJobContext scope([](JobContext& c) { c.relaxed = true; });
    got = solve(kMirrorNetlist, relaxed);
  }
  EXPECT_FALSE(plain.relaxed_tolerances);
  EXPECT_EQ(plain.plan, DcPlan::GminLadder);
  EXPECT_EQ(plain.final_gmin, 1e-12);
  EXPECT_EQ(plain.gmin_rungs_completed, 11);
  EXPECT_EQ(plain.newton_iterations, 37);
  EXPECT_TRUE(relaxed.relaxed_tolerances);
  EXPECT_EQ(relaxed.plan, DcPlan::GminLadder);
  EXPECT_EQ(relaxed.final_gmin, 1e-10);
  EXPECT_EQ(relaxed.gmin_rungs_completed, 9);
  EXPECT_EQ(relaxed.newton_iterations, 32);
  // Node "out" (MNA row 2), bit for bit: the wider tolerances stop
  // Newton a few microvolts short of the plain answer.
  EXPECT_EQ(want.x.at(2), 0x1.f9602974dd0afp+1);
  EXPECT_EQ(got.x.at(2), 0x1.f9601453217e1p+1);
}

TEST(SpiceDcSeeded, GoodSeedConvergesOnTheSeededPlan) {
  ConvergenceReport ladder;
  const Solution want = solve(kMirrorNetlist, ladder);
  ConvergenceReport rep;
  const Solution got = solve(std::string(kMirrorNetlist) +
                                 ".nodeset V(vdd)=5 V(ref)=1.3 V(out)=3.9\n",
                             rep);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.plan, DcPlan::Seeded);
  EXPECT_STREQ(to_string(rep.plan), "seeded");
  EXPECT_EQ(rep.final_gmin, 1e-12);  // the ladder's final rung
  EXPECT_EQ(rep.gmin_rungs_completed, 0);
  EXPECT_LE(rep.newton_iterations, 6);
  EXPECT_LT(rep.newton_iterations, ladder.newton_iterations);
  ASSERT_EQ(got.x.size(), want.x.size());
  for (size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_NEAR(got.x[i], want.x[i], 1e-6 + 1e-6 * std::fabs(want.x[i]))
        << "entry " << i;
  }
}

TEST(SpiceDcSeeded, WrongSeedFallsBackToTheLadderAnswer) {
  // Hundreds of volts away: the damped Newton closes at most a tenth of
  // the gap per iteration, so the capped seeded solve cannot land, and
  // the ladders then run from zero exactly as without a seed.
  ConvergenceReport ladder;
  const Solution want = solve(kMirrorNetlist, ladder);
  ConvergenceReport rep;
  const Solution got = solve(std::string(kMirrorNetlist) +
                                 ".nodeset V(ref)=400 V(out)=-500\n",
                             rep);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.plan, DcPlan::GminLadder);
  EXPECT_EQ(rep.gmin_rungs_completed, ladder.gmin_rungs_completed);
  EXPECT_EQ(rep.newton_iterations,
            kSeededMaxIterations + ladder.newton_iterations);
  EXPECT_EQ(got.x, want.x);  // bit-identical to the unseeded solve
}

TEST(SpiceDcSeeded, TransientAndSweepStartFromTheSeed) {
  // The DC solves inside transient() and dc_sweep() go through
  // dc_operating_point, so the seed reaches them too: each run makes
  // fewer LU solves (counted by a fault injector that injects nothing).
  const std::string seeded = std::string(kMirrorNetlist) +
                             ".nodeset V(vdd)=5 V(ref)=1.3 V(out)=3.9\n";
  auto lu_solves = [](const std::string& netlist, bool sweep) {
    FaultInjector fi;
    ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });
    Circuit ckt = parse_netlist(netlist);
    if (sweep) {
      (void)dc_sweep(ckt, "Vdd", 4.0, 5.0, 0.5);
    } else {
      (void)transient(ckt, 1e-9, 4e-9);
    }
    return fi.counts().lu_solves;
  };
  EXPECT_LT(lu_solves(seeded, false) + 30, lu_solves(kMirrorNetlist, false));
  EXPECT_LT(lu_solves(seeded, true) + 30, lu_solves(kMirrorNetlist, true));
}

}  // namespace
}  // namespace ape::spice
