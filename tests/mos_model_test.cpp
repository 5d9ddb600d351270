#include "src/spice/mos_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "src/util/error.h"
#include "tests/test_models.h"

namespace ape::spice {
namespace {

using test::nmos_card;
using test::pmos_card;

constexpr double kW = 10e-6;
constexpr double kL = 2e-6;

TEST(MosModel, CutoffHasNoCurrent) {
  const auto e = mos_eval(nmos_card(), 0.5, 2.0, 0.0, kW, kL);
  EXPECT_EQ(e.region, MosRegion::Cutoff);
  EXPECT_DOUBLE_EQ(e.ids, 0.0);
}

TEST(MosModel, SaturationMatchesSquareLaw) {
  auto m = nmos_card();
  m.lambda = 0.0;  // pure square law
  const double vgs = 2.0, vds = 3.0;
  const auto e = mos_eval(m, vgs, vds, 0.0, kW, kL);
  EXPECT_EQ(e.region, MosRegion::Saturation);
  const double leff = kL - 2.0 * m.ld;
  const double beta = m.kp * kW / leff;
  const double want = 0.5 * beta * (vgs - m.vto) * (vgs - m.vto);
  EXPECT_NEAR(e.ids, want, want * 1e-9);
}

TEST(MosModel, TriodeMatchesFormula) {
  auto m = nmos_card();
  m.lambda = 0.0;
  const double vgs = 3.0, vds = 0.5;  // vdsat = 2.2 > vds
  const auto e = mos_eval(m, vgs, vds, 0.0, kW, kL);
  EXPECT_EQ(e.region, MosRegion::Triode);
  const double leff = kL - 2.0 * m.ld;
  const double beta = m.kp * kW / leff;
  const double want = beta * ((vgs - m.vto) * vds - 0.5 * vds * vds);
  EXPECT_NEAR(e.ids, want, want * 1e-9);
}

TEST(MosModel, GmMatchesPaperEquation2) {
  // Paper eq. (2) with KP = uCox/2 convention: gm = sqrt(2 KP_spice W/L Id).
  auto m = nmos_card();
  m.lambda = 0.0;
  const auto e = mos_eval(m, 2.0, 3.0, 0.0, kW, kL);
  const double leff = kL - 2.0 * m.ld;
  const double want = std::sqrt(2.0 * m.kp * (kW / leff) * e.ids);
  EXPECT_NEAR(e.gm, want, want * 1e-3);
}

TEST(MosModel, GdsMatchesPaperEquation4) {
  // Paper eq. (4): gd = lambda*Ids / (1 + lambda*Vds), with our lref
  // extension scaling lambda by lref/Leff.
  const auto m = nmos_card();
  const double vds = 3.0;
  const auto e = mos_eval(m, 2.0, vds, 0.0, kW, kL);
  const double lam = m.lambda * (m.lref > 0.0 ? m.lref / m.leff(kL) : 1.0);
  const double want = lam * e.ids / (1.0 + lam * vds);
  EXPECT_NEAR(e.gds, want, want * 1e-2);
}

TEST(MosModel, LrefExtensionScalesGdsInverselyWithLength) {
  // Doubling L should roughly quadruple ro (1/L from lambda, 1/L from beta).
  const auto m = nmos_card();
  const auto short_l = mos_eval(m, 2.0, 3.0, 0.0, kW, 2e-6);
  const auto long_l = mos_eval(m, 2.0, 3.0, 0.0, kW, 4e-6);
  const double ro_ratio = (1.0 / long_l.gds) / (1.0 / short_l.gds);
  EXPECT_GT(ro_ratio, 3.0);
  EXPECT_LT(ro_ratio, 6.0);
}

TEST(MosModel, GmbMatchesPaperEquation3) {
  // Paper eq. (3): gmb = gm * gamma / (2 sqrt(2 phi_f + Vsb)).
  const auto m = nmos_card();
  const double vbs = -1.0;  // Vsb = 1
  const auto e = mos_eval(m, 2.5, 3.0, vbs, kW, kL);
  const double want = e.gm * m.gamma / (2.0 * std::sqrt(m.phi + 1.0));
  EXPECT_NEAR(e.gmb, want, want * 1e-2);
}

TEST(MosModel, BodyEffectRaisesThreshold) {
  const auto m = nmos_card();
  const auto e0 = mos_eval(m, 2.0, 3.0, 0.0, kW, kL);
  const auto e1 = mos_eval(m, 2.0, 3.0, -2.0, kW, kL);
  EXPECT_GT(e1.vth, e0.vth);
  EXPECT_LT(e1.ids, e0.ids);
}

TEST(MosModel, ReverseVdsIsAntisymmetric) {
  const auto m = nmos_card();
  // With the source/drain roles swapped the current must flip sign.
  const auto fwd = mos_eval(m, 2.0, 1.5, 0.0, kW, kL);
  const auto rev = mos_eval(m, 2.0 - 1.5, -1.5, -1.5, kW, kL);
  EXPECT_NEAR(rev.ids, -fwd.ids, std::fabs(fwd.ids) * 1e-9);
}

TEST(MosModel, PmosSignedConventions) {
  const auto m = pmos_card();
  // PMOS with source at 5V, gate at 3V, drain at 2V: vgs=-2, vds=-3, on.
  const auto e = mos_eval_signed(m, -2.0, -3.0, 0.0, kW, kL);
  EXPECT_LT(e.ids, 0.0);  // current flows out of the drain terminal
  EXPECT_GT(e.gm, 0.0);
  EXPECT_GT(e.gds, 0.0);
}

TEST(MosModel, CurrentScalesWithWidth) {
  const auto m = nmos_card();
  const auto e1 = mos_eval(m, 2.0, 3.0, 0.0, kW, kL);
  const auto e2 = mos_eval(m, 2.0, 3.0, 0.0, 2.0 * kW, kL);
  EXPECT_NEAR(e2.ids / e1.ids, 2.0, 1e-6);
}

TEST(MosModel, CurrentContinuousAcrossVdsat) {
  const auto m = nmos_card();
  const double vgs = 2.0;
  const double vdsat = vgs - mos_eval(m, vgs, 5.0, 0.0, kW, kL).vth;
  const auto lo = mos_eval(m, vgs, vdsat - 1e-7, 0.0, kW, kL);
  const auto hi = mos_eval(m, vgs, vdsat + 1e-7, 0.0, kW, kL);
  EXPECT_NEAR(lo.ids, hi.ids, std::fabs(hi.ids) * 1e-4);
}

TEST(MosModel, MeyerCapsByRegion) {
  const auto m = nmos_card();
  const double cox_tot = m.cox() * kW * m.leff(kL);
  const auto sat = mos_eval(m, 2.0, 3.0, 0.0, kW, kL);
  EXPECT_NEAR(sat.cgs - m.cgso * kW, (2.0 / 3.0) * cox_tot, cox_tot * 1e-6);
  const auto cut = mos_eval(m, 0.0, 3.0, 0.0, kW, kL);
  EXPECT_NEAR(cut.cgb, cox_tot + m.cgbo * kL, cox_tot * 1e-6);
  const auto tri = mos_eval(m, 4.0, 0.2, 0.0, kW, kL);
  EXPECT_NEAR(tri.cgs - m.cgso * kW, 0.5 * cox_tot, cox_tot * 1e-6);
  EXPECT_NEAR(tri.cgd - m.cgdo * kW, 0.5 * cox_tot, cox_tot * 1e-6);
}

TEST(MosModel, JunctionCapsShrinkWithReverseBias) {
  const auto m = nmos_card();
  const double ad = 3.0 * kL * kW, pd = 2.0 * (3.0 * kL + kW);
  const auto lo = mos_eval(m, 2.0, 1.0, 0.0, kW, kL, ad, ad, pd, pd);
  const auto hi = mos_eval(m, 2.0, 4.0, 0.0, kW, kL, ad, ad, pd, pd);
  EXPECT_GT(lo.cdb, hi.cdb);
  EXPECT_GT(lo.cdb, 0.0);
}

TEST(MosModel, Level3ThetaReducesCurrent) {
  auto m = nmos_card();
  const auto base = mos_eval(m, 3.0, 4.0, 0.0, kW, kL);
  m.level = 3;
  m.theta = 0.2;
  const auto degraded = mos_eval(m, 3.0, 4.0, 0.0, kW, kL);
  EXPECT_LT(degraded.ids, base.ids);
  EXPECT_GT(degraded.ids, 0.0);
}

TEST(MosModel, Level3VmaxLowersVdsat) {
  auto m = nmos_card();
  m.level = 3;
  const auto no_vsat = mos_eval(m, 3.0, 4.0, 0.0, kW, kL);
  m.vmax = 5e4;
  const auto vsat = mos_eval(m, 3.0, 4.0, 0.0, kW, kL);
  EXPECT_LT(vsat.vdsat, no_vsat.vdsat);
  EXPECT_LT(vsat.ids, no_vsat.ids);
}

TEST(MosModel, Level2MobilityDegradation) {
  auto m = nmos_card();
  const auto base = mos_eval(m, 4.0, 4.5, 0.0, kW, kL);
  m.level = 2;
  m.uexp = 0.3;
  m.ucrit = 1e4;
  const auto degraded = mos_eval(m, 4.0, 4.5, 0.0, kW, kL);
  EXPECT_LE(degraded.ids, base.ids);
}

TEST(MosModel, ThrowsOnNonPositiveGeometry) {
  EXPECT_THROW(mos_eval(nmos_card(), 2.0, 3.0, 0.0, 0.0, kL), NumericError);
  EXPECT_THROW(mos_eval(nmos_card(), 2.0, 3.0, 0.0, kW, -1e-6), NumericError);
  EXPECT_THROW(mos_ids_gm(nmos_card(), 2.0, 3.0, 0.0, 0.0, kL), NumericError);
  EXPECT_THROW(mos_ids_gm(nmos_card(), 2.0, 3.0, 0.0, kW, -1e-6), NumericError);
}

TEST(MosModel, IdsGmIsBitwiseEqualToMosEval) {
  // mos_eval and mos_ids_gm share one body, so the fields they share
  // must agree to the last bit on every level, device type, vds sign,
  // body bias and region.
  std::vector<MosModelCard> cards;
  for (const MosModelCard& base : {nmos_card(), pmos_card()}) {
    MosModelCard m = base;
    cards.push_back(m);  // LEVEL 1
    m.level = 2;
    m.uexp = 0.3;
    m.ucrit = 1e4;
    m.vmax = 5e4;
    cards.push_back(m);
    m = base;
    m.level = 3;
    m.theta = 0.08;
    m.eta = 0.02;
    m.vmax = 1.5e5;
    cards.push_back(m);
    m = base;
    m.level = 4;
    m.k1 = base.gamma;
    m.k2 = 0.02;
    m.vfb = base.type == MosType::Pmos ? 1.2 : -0.9;
    m.muz = 450.0;
    m.kp = 0.0;
    m.u0v = 0.05;
    m.u1 = 2e-8;
    m.eta = 0.01;
    cards.push_back(m);
  }
  int regions[3] = {0, 0, 0};
  for (const MosModelCard& m : cards) {
    for (double vgs : {0.3, 1.4, 3.0}) {
      for (double vds : {0.2, 3.0, -0.2, -3.0}) {
        for (double vbs : {0.0, -1.2}) {
          const MosEval e = mos_eval(m, vgs, vds, vbs, kW, kL);
          const MosIdGm f = mos_ids_gm(m, vgs, vds, vbs, kW, kL);
          SCOPED_TRACE(to_card_string(m) + " vgs=" + std::to_string(vgs) +
                       " vds=" + std::to_string(vds) +
                       " vbs=" + std::to_string(vbs));
          EXPECT_EQ(f.ids, e.ids);
          EXPECT_EQ(f.gm, e.gm);
          EXPECT_EQ(f.vth, e.vth);
          EXPECT_EQ(f.vdsat, e.vdsat);
          EXPECT_EQ(f.region, e.region);
          ++regions[static_cast<int>(e.region)];
        }
      }
    }
  }
  // The grid must reach cutoff, triode and saturation.
  EXPECT_GT(regions[static_cast<int>(MosRegion::Cutoff)], 0);
  EXPECT_GT(regions[static_cast<int>(MosRegion::Triode)], 0);
  EXPECT_GT(regions[static_cast<int>(MosRegion::Saturation)], 0);
}

TEST(MosModel, KpDerivedFromMobilityWhenAbsent) {
  auto m = nmos_card();
  const double kp_explicit = m.kp;
  m.kp = 0.0;
  m.u0 = kp_explicit / m.cox() * 1e4;  // cm^2/Vs that reproduces kp
  const auto e = mos_eval(m, 2.0, 3.0, 0.0, kW, kL);
  auto m2 = nmos_card();
  const auto want = mos_eval(m2, 2.0, 3.0, 0.0, kW, kL);
  EXPECT_NEAR(e.ids, want.ids, want.ids * 1e-6);
}

}  // namespace
}  // namespace ape::spice
