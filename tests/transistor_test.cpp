#include "src/estimator/transistor.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/util/error.h"

namespace ape::est {
namespace {

using spice::MosType;

class TransistorEstimatorTest : public ::testing::Test {
protected:
  Process proc_ = Process::default_1u2();
  TransistorEstimator xe_{proc_};
};

TEST_F(TransistorEstimatorTest, GmIdSizingHitsTargets) {
  const double gm = 100e-6, id = 10e-6;
  const TransistorDesign d = xe_.size_for_gm_id(MosType::Nmos, gm, id);
  EXPECT_NEAR(d.gm, gm, gm * 0.01);
  EXPECT_NEAR(d.id, id, id * 0.01);
  EXPECT_GE(d.w, proc_.wmin);
  EXPECT_GE(d.l, proc_.lmin);
}

TEST_F(TransistorEstimatorTest, GmIdMatchesPaperClosedForm) {
  // The paper's eq. 2 seed: W/Leff = gm^2 / (2 KP Id). The refined size
  // should stay close for a LEVEL 1 card with zero body bias.
  const double gm = 200e-6, id = 20e-6;
  const TransistorDesign d = xe_.size_for_gm_id(MosType::Nmos, gm, id, 2.5, 0.0);
  const double seed_ratio = gm * gm / (2.0 * proc_.nmos.kp * id);
  EXPECT_NEAR(d.w / proc_.nmos.leff(d.l), seed_ratio, seed_ratio * 0.1);
}

TEST_F(TransistorEstimatorTest, PmosSizingWorks) {
  const TransistorDesign d = xe_.size_for_gm_id(MosType::Pmos, 50e-6, 5e-6);
  EXPECT_EQ(d.type, MosType::Pmos);
  EXPECT_NEAR(d.gm, 50e-6, 50e-6 * 0.01);
  // PMOS kp is ~3x lower: wider device than the NMOS equivalent.
  const TransistorDesign n = xe_.size_for_gm_id(MosType::Nmos, 50e-6, 5e-6);
  EXPECT_GT(d.w, n.w);
}

TEST_F(TransistorEstimatorTest, SubthresholdRequestThrows) {
  // gm/Id = 100 -> Vov = 20 mV: not a strong-inversion design.
  EXPECT_THROW(xe_.size_for_gm_id(MosType::Nmos, 100e-6, 1e-6), SpecError);
}

TEST_F(TransistorEstimatorTest, SupplyLimitThrows) {
  // Vov = 2 Id / gm = 8 V exceeds the 5 V supply.
  EXPECT_THROW(xe_.size_for_gm_id(MosType::Nmos, 25e-6, 100e-6), SpecError);
}

TEST_F(TransistorEstimatorTest, NarrowSeedTradesLengthForWidth) {
  // Tiny gm at tiny current needs W below Wmin; the estimator must
  // stretch L instead and still hit gm.
  const double gm = 2e-6, id = 0.2e-6;
  const TransistorDesign d = xe_.size_for_gm_id(MosType::Nmos, gm, id);
  EXPECT_LT(d.w, 1.5 * proc_.wmin);
  EXPECT_GT(d.l, 2.0 * proc_.lmin);
  EXPECT_NEAR(d.gm, gm, gm * 0.05);
}

TEST_F(TransistorEstimatorTest, IdVovSizingHitsOverdrive) {
  const TransistorDesign d =
      xe_.size_for_id_vov(MosType::Nmos, 50e-6, 0.3, 2.5, 0.0);
  EXPECT_NEAR(d.vgs - d.vth, 0.3, 0.01);
  EXPECT_NEAR(d.id, 50e-6, 50e-6 * 0.01);
}

TEST_F(TransistorEstimatorTest, IdVovRespectsBodyEffect) {
  const TransistorDesign d0 =
      xe_.size_for_id_vov(MosType::Nmos, 50e-6, 0.3, 2.5, 0.0);
  const TransistorDesign db =
      xe_.size_for_id_vov(MosType::Nmos, 50e-6, 0.3, 2.5, -2.0);
  // Same overdrive target, but body effect raises Vth, hence Vgs.
  EXPECT_GT(db.vgs, d0.vgs + 0.2);
  EXPECT_NEAR(db.vgs - db.vth, 0.3, 0.02);
}

TEST_F(TransistorEstimatorTest, VgsForIdInvertsTheModel) {
  const double vgs = xe_.vgs_for_id(MosType::Nmos, 10e-6, 2.4e-6, 30e-6, 2.5);
  const auto e = spice::mos_eval(proc_.nmos, vgs, 2.5, 0.0, 10e-6, 2.4e-6);
  EXPECT_NEAR(e.ids, 30e-6, 30e-6 * 1e-3);
}

TEST(VgsForId, InvertsEveryModelLevelWithBodyBias) {
  // The Newton must land on the requested current to 1e-12 relative on
  // all four model levels, for both device types and under body bias.
  Process p2 = Process::default_1u2();
  for (spice::MosModelCard* c : {&p2.nmos, &p2.pmos}) {
    c->level = 2;
    c->uexp = 0.3;
    c->ucrit = 1e4;
    c->vmax = 5e4;
  }
  const Process procs[] = {Process::default_1u2(), p2,
                           Process::default_1u2_level3(),
                           Process::default_1u2_bsim()};
  for (const Process& proc : procs) {
    const TransistorEstimator xe(proc);
    for (MosType type : {MosType::Nmos, MosType::Pmos}) {
      const spice::MosModelCard& card = proc.card(type);
      for (double id : {2e-6, 30e-6, 400e-6}) {
        for (double vbs : {-0.8, -2.0}) {
          const double w = 20e-6, l = 2.4e-6, vds = 2.5;
          const double vgs = xe.vgs_for_id(type, w, l, id, vds, vbs);
          const double got = spice::mos_eval(card, vgs, vds, vbs, w, l).ids;
          EXPECT_NEAR(got, id, 1e-12 * id)
              << proc.name << " level " << card.level
              << (type == MosType::Nmos ? " nmos" : " pmos") << " id=" << id
              << " vbs=" << vbs;
        }
      }
    }
  }
}

TEST_F(TransistorEstimatorTest, VgsForIdThrowsWhenUnreachable) {
  // 1 A through a minimum device is not going to happen.
  EXPECT_THROW(xe_.vgs_for_id(MosType::Nmos, proc_.wmin, 2.4e-6, 1.0, 2.5),
               SpecError);
}

TEST_F(TransistorEstimatorTest, EvaluateRejectsSubMinimumGeometry) {
  EXPECT_THROW(xe_.evaluate(MosType::Nmos, 0.5e-6, 2.4e-6, 2.0, 2.5), SpecError);
  EXPECT_THROW(xe_.evaluate(MosType::Nmos, 10e-6, 0.5e-6, 2.0, 2.5), SpecError);
}

TEST_F(TransistorEstimatorTest, Level3CardSizesViaRefinement) {
  // The closed-form seed is LEVEL 1; the refinement must absorb the
  // LEVEL 3 mobility degradation and still deliver the gm target.
  const Process p3 = Process::default_1u2_level3();
  const TransistorEstimator xe3(p3);
  const TransistorDesign d = xe3.size_for_gm_id(MosType::Nmos, 100e-6, 10e-6);
  EXPECT_NEAR(d.gm, 100e-6, 100e-6 * 0.01);
  // Mobility degradation costs width relative to LEVEL 1.
  const TransistorDesign d1 = xe_.size_for_gm_id(MosType::Nmos, 100e-6, 10e-6);
  EXPECT_GT(d.w, d1.w);
}

TEST_F(TransistorEstimatorTest, GateAreaAndCapsPopulated) {
  const TransistorDesign d = xe_.size_for_gm_id(MosType::Nmos, 100e-6, 10e-6);
  EXPECT_GT(d.gate_area(), 0.0);
  EXPECT_GT(d.cgs, 0.0);
  EXPECT_GT(d.cdb, 0.0);
  EXPECT_GT(d.cg_total(), d.cgs);
  EXPECT_GT(d.self_gain(), 10.0);
}

/// Property sweep: gm/Id inversion is exact across a broad design space.
class GmIdSweep : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GmIdSweep, RoundTripsThroughTheModel) {
  const Process proc = Process::default_1u2();
  const TransistorEstimator xe(proc);
  const auto [gm_over_id, id] = GetParam();
  const double gm = gm_over_id * id;
  // Skip infeasible corners the estimator is specified to reject.
  if (2.0 * id / gm < 0.05) GTEST_SKIP();
  const TransistorDesign d = xe.size_for_gm_id(spice::MosType::Nmos, gm, id);
  const auto e = spice::mos_eval(proc.nmos, d.vgs, d.vds, d.vbs, d.w, d.l);
  EXPECT_NEAR(e.gm, gm, gm * 0.02);
  EXPECT_NEAR(e.ids, id, id * 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, GmIdSweep,
    ::testing::Combine(::testing::Values(2.0, 5.0, 8.0, 12.0),
                       ::testing::Values(1e-6, 10e-6, 100e-6, 1e-3)));

}  // namespace
}  // namespace ape::est
