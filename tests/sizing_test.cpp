#include "src/synth/sizing.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/estimator/opamp.h"
#include "src/util/error.h"

namespace ape::synth {
namespace {

using est::OpAmpDesign;
using est::OpAmpEstimator;
using est::OpAmpSpec;
using est::Process;

OpAmpSpec basic_spec() {
  OpAmpSpec s;
  s.gain = 200.0;
  s.ugf_hz = 5e6;
  s.ibias = 10e-6;
  s.cload = 10e-12;
  return s;
}

TEST(OpAmpVars, PackUnpackRoundTrip) {
  OpAmpVars v;
  v.w1 = 11e-6;
  v.l1 = 3e-6;
  v.w3 = 7e-6;
  v.l3 = 4e-6;
  v.w5 = 9e-6;
  v.l5 = 6e-6;
  v.w6 = 40e-6;
  v.l6 = 2.5e-6;
  v.w7 = 15e-6;
  v.l7 = 3.3e-6;
  v.w8 = 5e-6;
  v.l8 = 4.8e-6;
  v.cc = 3e-12;
  const auto x = v.pack();
  EXPECT_EQ(x.size(), 13u);
  const OpAmpVars u = OpAmpVars::unpack(x, false);
  EXPECT_EQ(u.pack(), x);

  OpAmpVars vb = v;
  vb.w9 = 20e-6;
  vb.w10 = 25e-6;
  const auto xb = vb.pack();
  EXPECT_EQ(xb.size(), 15u);
  EXPECT_EQ(OpAmpVars::unpack(xb, true).pack(), xb);
}

TEST(OpAmpVars, UnpackRejectsWrongSize) {
  EXPECT_THROW(OpAmpVars::unpack({1.0, 2.0}, false), SpecError);
  EXPECT_THROW(OpAmpVars::unpack(std::vector<double>(13, 1.0), true), SpecError);
}

TEST(OpAmpVars, NamesMatchVectorLayout) {
  EXPECT_EQ(OpAmpVars::names(false).size(), 13u);
  EXPECT_EQ(OpAmpVars::names(true).size(), 15u);
  EXPECT_EQ(OpAmpVars::names(true).back(), "w10");
}

TEST(Sizing, ApeSeedEvaluatesFunctional) {
  // The synthesis evaluator must agree that APE's designs work - this is
  // the contract Table 4 rests on.
  const Process proc = Process::default_1u2();
  const OpAmpDesign d = OpAmpEstimator(proc).estimate(basic_spec());
  const OpAmpVars v = vars_from_design(d);
  const OpAmpEval e = evaluate_opamp_vars(proc, v, 10e-6, 10e-12);
  ASSERT_TRUE(e.functional);
  EXPECT_NEAR(e.gain, d.perf.gain, d.perf.gain * 0.15);
  EXPECT_NEAR(e.ugf_hz, d.perf.ugf_hz, d.perf.ugf_hz * 0.1);
  EXPECT_NEAR(e.dc_power, d.perf.dc_power, d.perf.dc_power * 0.1);
}

TEST(Sizing, WilsonSeedMapsOntoMirrorTemplate) {
  const Process proc = Process::default_1u2();
  OpAmpSpec s = basic_spec();
  s.source = est::CurrentSourceKind::Wilson;
  s.buffer = true;
  s.zout = 2e3;
  const OpAmpDesign d = OpAmpEstimator(proc).estimate(s);
  const OpAmpVars v = vars_from_design(d);
  const OpAmpEval e = evaluate_opamp_vars(proc, v, s.ibias, s.cload);
  EXPECT_TRUE(e.functional);
  EXPECT_NEAR(e.ugf_hz, d.perf.ugf_hz, d.perf.ugf_hz * 0.25);
}

TEST(Sizing, BrokenGeometryIsNonFunctionalNotThrowing) {
  // A starved second stage sticks the output at a rail: the evaluator
  // must report it gracefully (the annealer relies on this).
  const Process proc = Process::default_1u2();
  OpAmpVars v;  // defaults
  v.w6 = 2e-6;
  v.w7 = 500e-6;  // sink dwarfs the PMOS: output stuck low
  const OpAmpEval e = evaluate_opamp_vars(proc, v, 10e-6, 10e-12);
  EXPECT_FALSE(e.functional);
  EXPECT_GT(e.imbalance, 0.0);
}

TEST(Sizing, CostPrefersFeasibleOverBroken) {
  const Process proc = Process::default_1u2();
  const OpAmpSpec spec = basic_spec();
  const OpAmpVars good = vars_from_design(OpAmpEstimator(proc).estimate(spec));
  OpAmpVars bad = good;
  bad.w7 = 800e-6;
  const double c_good =
      opamp_cost(evaluate_opamp_vars(proc, good, spec.ibias, spec.cload), spec);
  const double c_bad =
      opamp_cost(evaluate_opamp_vars(proc, bad, spec.ibias, spec.cload), spec);
  EXPECT_LT(c_good, 10.0);
  EXPECT_GT(c_bad, 100.0);
}

TEST(Sizing, CostPenalizesConstraintViolations) {
  const Process proc = Process::default_1u2();
  const OpAmpSpec spec = basic_spec();
  const OpAmpVars v = vars_from_design(OpAmpEstimator(proc).estimate(spec));
  const OpAmpEval e = evaluate_opamp_vars(proc, v, spec.ibias, spec.cload);
  OpAmpSpec harder = spec;
  harder.ugf_hz *= 4.0;  // now badly under target
  EXPECT_GT(opamp_cost(e, harder), opamp_cost(e, spec) + 1.0);
}

TEST(Sizing, BlindBoundsCoverSeed) {
  const Process proc = Process::default_1u2();
  const OpAmpVars v = vars_from_design(OpAmpEstimator(proc).estimate(basic_spec()));
  const auto x = v.pack();
  const auto b = blind_bounds(proc, false);
  ASSERT_EQ(b.size(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    EXPECT_GE(x[i], b[i].first) << OpAmpVars::names(false)[i];
    EXPECT_LE(x[i], b[i].second) << OpAmpVars::names(false)[i];
  }
}

TEST(Sizing, SeededBoundsBracketTheSeed) {
  const Process proc = Process::default_1u2();
  const OpAmpVars v = vars_from_design(OpAmpEstimator(proc).estimate(basic_spec()));
  const auto seed = v.pack();
  const auto b = seeded_bounds(seed, 0.2, proc, false);
  for (size_t i = 0; i < seed.size(); ++i) {
    EXPECT_LE(b[i].first, seed[i]);
    EXPECT_GE(b[i].second, seed[i]);
    EXPECT_LE(b[i].second / b[i].first, 1.21 / 0.79);
  }
}

TEST(Sizing, DesignFromVarsRoundTripsThroughVars) {
  const Process proc = Process::default_1u2();
  const OpAmpSpec spec = basic_spec();
  const OpAmpVars v = vars_from_design(OpAmpEstimator(proc).estimate(spec));
  const OpAmpDesign d2 = design_from_vars(proc, v, spec);
  const OpAmpVars v2 = vars_from_design(d2);
  const auto a = v.pack();
  const auto b = v2.pack();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], std::fabs(a[i]) * 1e-9);
  }
}

TEST(Sizing, VarsFromNonOpAmpDesignThrows) {
  OpAmpDesign empty;
  EXPECT_THROW(vars_from_design(empty), SpecError);

  // A design with the core roles but without a tail, bias or follower
  // sink role names the missing role instead of reading through null.
  const Process proc = Process::default_1u2();
  OpAmpSpec spec = basic_spec();
  spec.buffer = true;
  const OpAmpDesign full = OpAmpEstimator(proc).estimate(spec);
  for (const char* drop : {"m8", "m5", "m10"}) {
    OpAmpDesign d = full;
    for (size_t i = 0; i < d.roles.size(); ++i) {
      if (d.roles[i] == drop) {
        d.roles.erase(d.roles.begin() + static_cast<long>(i));
        d.transistors.erase(d.transistors.begin() + static_cast<long>(i));
        break;
      }
    }
    // Without m5 the tail is read from the Wilson roles, so the first
    // missing one is w_diode.
    const std::string missing = std::string(drop) == "m5" ? "w_diode" : drop;
    try {
      (void)vars_from_design(d);
      ADD_FAILURE() << "no throw without " << drop;
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + missing + "'"), std::string::npos)
          << e.what();
    }
  }
  // A Wilson design without its bias diode.
  spec.source = est::CurrentSourceKind::Wilson;
  OpAmpDesign wilson = OpAmpEstimator(proc).estimate(spec);
  for (size_t i = 0; i < wilson.roles.size(); ++i) {
    if (wilson.roles[i] == "w_in") wilson.roles[i] = "x";
  }
  EXPECT_THROW(vars_from_design(wilson), SpecError);
}

}  // namespace
}  // namespace ape::synth
