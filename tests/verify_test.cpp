/// Tests for the estimator-to-simulator bridge (src/estimator/verify.*)
/// and failure-injection paths: what happens when circuits cannot
/// converge, probes are missing, or measurements have nothing to measure.

#include "src/estimator/verify.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "bench/bench_util.h"
#include "src/spice/analysis.h"
#include "src/spice/parser.h"
#include "src/util/error.h"

namespace ape::est {
namespace {

class VerifyTest : public ::testing::Test {
protected:
  Process proc_ = Process::default_1u2();
};

TEST_F(VerifyTest, SimulateExtractsAllBasicFields) {
  Testbench tb;
  tb.netlist = R"(bridge
Vdd vdd 0 DC 5
Vin in 0 DC 1 AC 1
R1 vdd out 10k
R2 in out 10k
C1 out 0 1n
)";
  tb.out_node = "out";
  tb.in_source = "Vin";
  tb.supply_source = "Vdd";
  const SimMeasurement m = simulate(tb, 10.0, 10e6, 10);
  EXPECT_NEAR(m.out_dc, 3.0, 1e-6);   // (5 + 1)/2 through the divider
  EXPECT_NEAR(m.dc_gain, 0.5, 1e-3);  // R-R divider from the AC input
  EXPECT_GT(m.power, 0.0);
  ASSERT_TRUE(m.f3db_hz.has_value());
  // Pole at 1/(2 pi (R1||R2) C).
  EXPECT_NEAR(*m.f3db_hz, 1.0 / (2.0 * M_PI * 5e3 * 1e-9), 2e3);
}

TEST_F(VerifyTest, DifferentialProbeSubtracts) {
  Testbench tb;
  tb.netlist = R"(diffprobe
Vin in 0 AC 1
R1 in a 1k
R2 a 0 1k
R3 in b 1k
R4 b 0 3k
)";
  tb.out_node = "b";    // 0.75
  tb.out_node2 = "a";   // 0.50
  tb.in_source = "Vin";
  const SimMeasurement m = simulate(tb, 10.0, 1e3, 5);
  EXPECT_NEAR(m.dc_gain, 0.25, 1e-6);
}

TEST_F(VerifyTest, NegativeGainCarriesSign) {
  Testbench tb;
  tb.netlist = R"(inverting
Vin in 0 AC 1
E1 out 0 0 in 2
Rl out 0 1k
)";
  tb.out_node = "out";
  tb.in_source = "Vin";
  const SimMeasurement m = simulate(tb, 10.0, 1e3, 5);
  EXPECT_NEAR(m.dc_gain, -2.0, 1e-6);
}

TEST_F(VerifyTest, ZoutMeasuredThroughProbeSource) {
  Testbench tb;
  tb.netlist = R"(zout
V1 out 0 DC 2 AC 1
R1 out 0 5k
)";
  tb.out_node = "out";
  tb.in_source = "V1";
  const SimMeasurement m = simulate(tb, 10.0, 1e3, 5);
  // AC 1 V across 5k: |I| = 0.2 mA -> zout = 5k.
  EXPECT_NEAR(m.zout, 5e3, 1.0);
}

TEST_F(VerifyTest, SimulateThrowsOnGarbageNetlist) {
  Testbench tb;
  tb.netlist = "title\nR1 a 0\n";
  tb.out_node = "a";
  EXPECT_THROW(simulate(tb), ParseError);
}

TEST_F(VerifyTest, SimulateThrowsOnMissingProbe) {
  Testbench tb;
  tb.netlist = R"(ok
Vin in 0 AC 1
R1 in 0 1k
)";
  tb.out_node = "nonexistent";
  EXPECT_THROW(simulate(tb), LookupError);
}

TEST_F(VerifyTest, DcNonConvergenceSurfacesAsNumericError) {
  // An unsatisfiable loop: two ideal sources forcing different voltages
  // across the same node pair -> singular MNA at every gmin step.
  Testbench tb;
  tb.netlist = R"(conflict
V1 a 0 DC 1
V2 a 0 DC 2
R1 a 0 1k
)";
  tb.out_node = "a";
  EXPECT_THROW(simulate(tb), NumericError);
}

TEST_F(VerifyTest, OpAmpReportSurvivesTransientTrouble) {
  // simulate_opamp must return AC results even when asked for a transient
  // on a design whose step response is marginal; slew falls back to 0
  // rather than poisoning the report.
  OpAmpSpec spec;
  spec.gain = 150;
  spec.ugf_hz = 2e6;
  spec.ibias = 5e-6;
  spec.cload = 10e-12;
  const OpAmpDesign d = OpAmpEstimator(proc_).estimate(spec);
  const OpAmpSimReport r = simulate_opamp(d, proc_, /*with_transient=*/true);
  EXPECT_GT(r.gain, 150.0);
  ASSERT_TRUE(r.ugf_hz.has_value());
  EXPECT_GE(r.slew, 0.0);
}

TEST_F(VerifyTest, ComponentReportContainsCmrrOnlyForDiffPairs) {
  const ComponentEstimator ce(proc_);
  ComponentSpec mirror{ComponentKind::CurrentMirror, 100e-6, 0.0, 0.0, 0.0};
  const ComponentSimReport rm = simulate_component(ce.estimate(mirror), proc_);
  EXPECT_FALSE(rm.cmrr_db.has_value());
  ComponentSpec diff{ComponentKind::DiffCmos, 1e-6, 1000.0, 0.0, 0.5e-12};
  const ComponentSimReport rd = simulate_component(ce.estimate(diff), proc_);
  EXPECT_TRUE(rd.cmrr_db.has_value());
}

// ---------------------------------------------------------------------------
// The APE bias point as the simulator's starting point (.nodeset, the
// Seeded plan of spice::dc_operating_point).

std::string without_nodeset(std::string netlist) {
  const size_t at = netlist.find(".nodeset");
  if (at != std::string::npos) {
    netlist.erase(at, netlist.find('\n', at) + 1 - at);
  }
  return netlist;
}

TEST_F(VerifyTest, EveryTable1TestbenchConvergesFromTheEstimate) {
  // Ten Table 1 rows x (nominal + three perturbed gain/UGF specs) x four
  // testbenches: 160 DC solves, each on the Seeded plan in a handful of
  // Newton iterations and, wherever the gmin ladder from zero finds an
  // operating point at all, on the same one.
  const OpAmpEstimator oe(proc_);
  const double gain_scale[] = {1.0, 0.92, 1.08, 1.05};
  const double ugf_scale[] = {1.0, 1.08, 0.92, 0.95};
  int solves = 0;
  for (const auto& row : bench::table1_specs()) {
    for (int p = 0; p < 4; ++p) {
      OpAmpSpec spec = bench::to_spec(row);
      spec.gain *= gain_scale[p];
      spec.ugf_hz *= ugf_scale[p];
      const OpAmpDesign d = oe.estimate(spec);
      for (OpAmpTb mode : {OpAmpTb::OpenLoop, OpAmpTb::CommonMode,
                           OpAmpTb::ZoutProbe, OpAmpTb::UnityStep}) {
        SCOPED_TRACE(std::string(row.name) + " perturbation " +
                     std::to_string(p) + " testbench " +
                     std::to_string(static_cast<int>(mode)));
        const std::string netlist = d.testbench(proc_, mode).netlist;
        spice::Circuit seeded = spice::parse_netlist(netlist);
        ConvergenceReport rep;
        spice::DcOptions opts;
        opts.report = &rep;
        const spice::Solution x = spice::dc_operating_point(seeded, opts);
        EXPECT_EQ(rep.plan, DcPlan::Seeded);
        EXPECT_LE(rep.newton_iterations, 10);
        ++solves;
        spice::Circuit ladder = spice::parse_netlist(without_nodeset(netlist));
        spice::Solution want;
        try {
          want = spice::dc_operating_point(ladder);
        } catch (const NumericError&) {
          continue;  // e.g. unity steps the ladder cannot start
        }
        for (size_t n = 0; n < seeded.num_nodes(); ++n) {
          EXPECT_NEAR(x.x[n], want.x[n], 1e-6)
              << seeded.node_name(static_cast<int>(n));
        }
      }
    }
  }
  EXPECT_EQ(solves, 160);
}

TEST_F(VerifyTest, UnityStepsTheLadderCouldNotStartNowReportASlew) {
  // Perturbed Table 1 specs whose unity-gain step found no DC operating
  // point from zero (the gmin and source-stepping ladders both failed,
  // so simulate_opamp reported slew 0); from the estimate's bias point
  // the transient starts and the slew is measured.
  struct Case {
    size_t row;
    double gain, ugf_hz;
  };
  const Case cases[] = {{1, 67.047237990586225, 3074993.0540314522},
                        {3, 242.97732920476528, 7563749.5357360495},
                        {8, 101.71279575528465, 1889752.800374052}};
  const auto rows = bench::table1_specs();
  for (const Case& c : cases) {
    SCOPED_TRACE(rows.at(c.row).name);
    OpAmpSpec spec = bench::to_spec(rows.at(c.row));
    spec.gain = c.gain;
    spec.ugf_hz = c.ugf_hz;
    const OpAmpDesign d = OpAmpEstimator(proc_).estimate(spec);
    const OpAmpSimReport r = simulate_opamp(d, proc_, /*with_transient=*/true);
    EXPECT_GT(r.slew, 0.0);
    ASSERT_TRUE(r.ugf_hz.has_value());
  }
}

}  // namespace
}  // namespace ape::est
