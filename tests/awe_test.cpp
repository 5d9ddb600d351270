#include "src/synth/awe.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <fstream>
#include <sstream>
#include <string>

#include "src/estimator/opamp.h"
#include "src/estimator/verify.h"
#include "src/spice/analysis.h"
#include "src/spice/devices.h"
#include "src/spice/measure.h"
#include "src/spice/parser.h"
#include "src/util/error.h"
#include "src/util/matrix.h"

namespace ape::synth {
namespace {

using spice::Circuit;

TEST(Awe, SinglePoleRcIsExactAtOrderOne) {
  const char* net = R"(rc
Vin in 0 AC 1
R1 in out 1k
C1 out 0 1u
)";
  Circuit ckt = spice::parse_netlist(net);
  (void)spice::dc_operating_point(ckt);
  const AweModel m = awe_reduce(ckt, "out", 1);
  EXPECT_NEAR(m.dc_gain(), 1.0, 1e-6);
  ASSERT_EQ(m.poles().size(), 1u);
  // Pole at -1/RC = -1000 rad/s.
  EXPECT_NEAR(m.poles()[0].real(), -1000.0, 1.0);
  EXPECT_NEAR(m.f_3db(), 1000.0 / (2.0 * M_PI), 0.5);
}

TEST(Awe, TwoPoleLadderRecoversBothPoles) {
  // Widely split poles via two RC sections buffered by an ideal VCVS.
  const char* net = R"(two pole
Vin in 0 AC 1
R1 in a 1k
C1 a 0 1u
E1 b 0 a 0 1
R2 b out 1k
C2 out 0 1n
)";
  Circuit ckt = spice::parse_netlist(net);
  (void)spice::dc_operating_point(ckt);
  const AweModel m = awe_reduce(ckt, "out", 2);
  EXPECT_NEAR(m.dc_gain(), 1.0, 1e-6);
  ASSERT_EQ(m.poles().size(), 2u);
  double p_slow = 0.0, p_fast = 0.0;
  for (const auto& p : m.poles()) {
    if (std::abs(p) < 1e4) p_slow = p.real();
    if (std::abs(p) > 1e5) p_fast = p.real();
  }
  EXPECT_NEAR(p_slow, -1000.0, 20.0);
  EXPECT_NEAR(p_fast, -1e6, 2e4);
}

TEST(Awe, ModelEvalMatchesAcSweep) {
  const char* net = R"(rc eval
Vin in 0 AC 1
R1 in out 10k
C1 out 0 100n
)";
  Circuit ckt = spice::parse_netlist(net);
  (void)spice::dc_operating_point(ckt);
  // q = 1 is the true order of this circuit: a higher q would make the
  // moment (Hankel) matrix singular.
  const AweModel m = awe_reduce(ckt, "out", 1);
  const auto ac = spice::ac_analysis(ckt, 1.0, 1e5, 20);
  const spice::Bode bode(ac, ckt.find_node("out"));
  for (size_t k = 0; k < bode.size(); k += 10) {
    EXPECT_NEAR(std::abs(m.eval(bode.freq(k))), bode.mag(k),
                std::max(bode.mag(k) * 0.01, 1e-6));
  }
}

TEST(Awe, OpampOpenLoopMatchesFullSweep) {
  // The ablation bench's scenario as a regression test: a sized opamp's
  // open-loop gain and UGF from a q=3 AWE model vs the AC sweep.
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.gain = 200;
  spec.ugf_hz = 5e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;
  const est::OpAmpDesign d = est::OpAmpEstimator(proc).estimate(spec);
  const est::Testbench tb = d.testbench(proc, est::OpAmpTb::OpenLoop);
  Circuit ckt = spice::parse_netlist(tb.netlist);
  (void)spice::dc_operating_point(ckt);

  std::vector<std::string> bias_trick;
  for (const auto& dev : ckt.devices()) {
    if (const auto* l = dynamic_cast<const spice::Inductor*>(dev.get())) {
      if (l->inductance() >= 1.0) bias_trick.push_back(l->name());
    }
    if (const auto* c = dynamic_cast<const spice::Capacitor*>(dev.get())) {
      if (c->capacitance() >= 0.1) bias_trick.push_back(c->name());
    }
  }
  const AweModel m = awe_reduce(ckt, "out", 2, bias_trick, {{"vm", 1.0}});

  const auto ac = spice::ac_analysis(ckt, 1.0, 1e9, 20);
  const spice::Bode bode(ac, ckt.find_node("out"));
  EXPECT_NEAR(std::fabs(m.dc_gain()), bode.dc_gain(), bode.dc_gain() * 0.01);
  ASSERT_TRUE(bode.unity_gain_freq().has_value());
  EXPECT_NEAR(m.unity_gain_freq(), *bode.unity_gain_freq(),
              *bode.unity_gain_freq() * 0.05);
  // The dominant (slowest) pole sits in the left half plane; higher-order
  // AWE fits can produce spurious far-away RHP poles with tiny residues,
  // a known artifact of moment matching.
  double min_mag = 1e300;
  double dom_real = 0.0;
  for (const auto& p : m.poles()) {
    if (std::abs(p) < min_mag) {
      min_mag = std::abs(p);
      dom_real = p.real();
    }
  }
  EXPECT_LT(dom_real, 0.0);
}

/// The 1 pS floating-node guard awe_reduce adds on every diagonal: it
/// moves an RC pole to -(1/R + kGuard)/C, 1e-9 relative at R = 1k.
constexpr double kGuard = 1e-12;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing committed netlist " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Awe, OnePoleNetworkKeepsOnePoleAtAnyOrder) {
  // A one-pole network makes every Hankel system above order 1
  // rank-deficient: the reduction must step down to order 1 instead of
  // inventing poles (one of them in the right half-plane) or throwing.
  const std::string net =
      read_file(APE_SOURCE_DIR "/examples/circuits/rc_lowpass.sp");
  const double pole = -(1e-3 + kGuard) / 1e-6;  // -1/RC = -1000 rad/s
  for (int q = 1; q <= 3; ++q) {
    Circuit ckt = spice::parse_netlist(net);
    (void)spice::dc_operating_point(ckt);
    const AweModel m = awe_reduce(ckt, "out", q);
    ASSERT_EQ(m.poles().size(), 1u) << "q=" << q;
    EXPECT_NEAR(m.poles()[0].real(), pole, 1e-9 * 1000.0) << "q=" << q;
    EXPECT_EQ(m.poles()[0].imag(), 0.0) << "q=" << q;
  }
}

TEST(Awe, ExactlyRankDeficientMomentsDoNotThrow) {
  // These RC values make the higher-order Hankel systems singular to the
  // bit: the reduction must fall back to the one real pole, not throw.
  struct Rc {
    const char* r_text;
    const char* c_text;
    double r, c;
  };
  for (const Rc& rc : {Rc{"1024", "1n", 1024.0, 1e-9}, Rc{"2", "0.5", 2.0, 0.5}}) {
    const double pole = -(1.0 / rc.r + kGuard) / rc.c;
    const double dc_gain = (1.0 / rc.r) / (1.0 / rc.r + kGuard);
    const std::string net = std::string("rc\nVin in 0 AC 1\nR1 in out ") +
                            rc.r_text + "\nC1 out 0 " + rc.c_text + "\n";
    for (int q = 2; q <= 3; ++q) {
      Circuit ckt = spice::parse_netlist(net);
      (void)spice::dc_operating_point(ckt);
      AweModel m;
      ASSERT_NO_THROW(m = awe_reduce(ckt, "out", q))
          << "R=" << rc.r_text << " q=" << q;
      ASSERT_EQ(m.poles().size(), 1u) << "R=" << rc.r_text << " q=" << q;
      EXPECT_NEAR(m.poles()[0].real(), pole, 1e-9 * std::fabs(pole));
      EXPECT_NEAR(m.dc_gain(), dc_gain, 1e-12);
    }
  }
}

TEST(Awe, RejectsBadArguments) {
  const char* net = R"(rc
Vin in 0 AC 1
R1 in out 1k
C1 out 0 1u
)";
  Circuit ckt = spice::parse_netlist(net);
  (void)spice::dc_operating_point(ckt);
  EXPECT_THROW(awe_reduce(ckt, "out", 0), SpecError);
  EXPECT_THROW(awe_reduce(ckt, "out", 99), SpecError);
  EXPECT_THROW(awe_reduce(ckt, "0", 2), SpecError);
  EXPECT_THROW(awe_reduce(ckt, "nonexistent", 2), LookupError);
}

TEST(Awe, UnityCrossingAbsentReturnsZero) {
  // A passive attenuator never crosses |H| = 1 from above... it starts at
  // 0.5 and falls: the crossing finder must return 0, not garbage.
  const char* net = R"(atten
Vin in 0 AC 1
R1 in out 1k
R2 out 0 1k
C1 out 0 1u
)";
  Circuit ckt = spice::parse_netlist(net);
  (void)spice::dc_operating_point(ckt);
  const AweModel m = awe_reduce(ckt, "out", 1);
  EXPECT_NEAR(m.dc_gain(), 0.5, 1e-6);
  EXPECT_EQ(m.unity_gain_freq(), 0.0);
}

TEST(Awe, SparseMomentPathMatchesDense) {
  // A 40-section RC interconnect ladder is exactly the system the sparse
  // moment path exists for. The reduced model's moments
  //   mu_k = -sum_i r_i / p_i^(k+1)
  // must match a moment recursion on dense LU, G mu_0 = b and
  // G mu_k = -C mu_(k-1), over all 2q moments the model was fitted to.
  std::string net = "ladder\nVin n0 0 AC 1\n";
  for (int i = 0; i < 40; ++i) {
    net += "R" + std::to_string(i) + " n" + std::to_string(i) + " n" +
           std::to_string(i + 1) + " 100\n";
    net += "C" + std::to_string(i) + " n" + std::to_string(i + 1) +
           " 0 1p\n";
  }
  Circuit ckt = spice::parse_netlist(net);
  (void)spice::dc_operating_point(ckt);
  constexpr int kOrder = 3;
  const AweModel model = awe_reduce(ckt, "n40", kOrder);
  ASSERT_EQ(model.poles().size(), static_cast<size_t>(kOrder));

  // G = Re A(0) plus the floating-node guard, C = Im A(1 rad/s), b = Re
  // of the stimulus: the same extraction awe_reduce makes.
  const size_t dim = ckt.dim();
  spice::MnaComplex mna(dim);
  for (const auto& dev : ckt.devices()) dev->stamp_ac(mna, 0.0);
  RealMatrix g(dim, dim);
  std::vector<double> m(dim);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) g(i, j) = mna.matrix()(i, j).real();
    g(i, i) += 1e-12;
    m[i] = mna.rhs()[i].real();
  }
  mna.clear();
  for (const auto& dev : ckt.devices()) dev->stamp_ac(mna, 1.0);
  LuSolver<double> lu(g);
  const size_t out = static_cast<size_t>(ckt.find_node("n40"));
  m = lu.solve(m);
  for (int k = 0; k < 2 * kOrder; ++k) {
    std::complex<double> from_model = 0.0;
    for (size_t i = 0; i < model.poles().size(); ++i) {
      from_model -= model.residues()[i] / std::pow(model.poles()[i], k + 1);
    }
    EXPECT_NEAR(from_model.real(), m[out], 1e-6 * std::fabs(m[out])) << "mu_" << k;
    EXPECT_LE(std::fabs(from_model.imag()), 1e-6 * std::fabs(m[out])) << "mu_" << k;
    if (k == 0) {
      EXPECT_NEAR(model.dc_gain(), m[out], 1e-12 * std::fabs(m[out]));
    }
    std::vector<double> rhs(dim);
    for (size_t i = 0; i < dim; ++i) {
      double acc = 0.0;
      for (size_t j = 0; j < dim; ++j) acc += mna.matrix()(i, j).imag() * m[j];
      rhs[i] = -acc;
    }
    m = lu.solve(rhs);
  }
}

}  // namespace
}  // namespace ape::synth
