/// \file prove_test.cpp
/// The feasibility prover (src/lint/prove.h, DESIGN.md section 14).
///
/// The load-bearing test is the randomized soundness property: over
/// >= 1000 (spec, box, corner) cases, every point sample of the
/// performance equations lies inside the proven interval — so an
/// APE-F001 verdict can never reject a spec some sizing could have met.
/// The synth-layer pins check the cost floor against the real
/// synthesizer's cost function, and the verdict units exercise each
/// APE-F rule plus the consumers' require_feasible contract.

#include "src/lint/prove.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/estimator/process.h"
#include "src/stat/corners.h"
#include "src/synth/sizing.h"
#include "src/util/json.h"
#include "src/util/rng.h"

namespace ape::lint {
namespace {

using util::Interval;

bool in_interval(const Interval& b, double v) {
  if (b.empty()) return false;
  if (std::isnan(v)) return false;  // a NaN sample poisons bounds to whole()
  return b.lo() <= v && v <= b.hi();
}

std::vector<double> sample_point(const std::vector<std::pair<double, double>>& box,
                                 Rng& rng) {
  std::vector<double> x(box.size());
  for (size_t i = 0; i < box.size(); ++i) {
    // Log-uniform: sizing ranges span 2-3 decades, uniform sampling
    // would never visit the bottom decade where extrema live.
    const double lo = std::log(box[i].first);
    const double hi = std::log(box[i].second);
    x[i] = std::exp(rng.uniform(lo, hi));
  }
  return x;
}

std::vector<std::pair<double, double>> random_subbox(
    const std::vector<std::pair<double, double>>& outer, Rng& rng) {
  std::vector<std::pair<double, double>> box(outer.size());
  for (size_t i = 0; i < outer.size(); ++i) {
    const double la = std::log(outer[i].first);
    const double lb = std::log(outer[i].second);
    double a = rng.uniform(la, lb);
    double b = rng.uniform(la, lb);
    if (a > b) std::swap(a, b);
    box[i] = {std::exp(a), std::exp(b)};
  }
  return box;
}

est::OpAmpSpec random_spec(Rng& rng) {
  est::OpAmpSpec spec;
  spec.gain = std::pow(10.0, rng.uniform(0.5, 5.0));
  spec.ugf_hz = std::pow(10.0, rng.uniform(3.0, 9.0));
  spec.ibias = std::pow(10.0, rng.uniform(-7.0, -4.0));
  spec.cload = std::pow(10.0, rng.uniform(-13.0, -10.0));
  if (rng.uniform() < 0.5) {
    spec.area_budget = std::pow(10.0, rng.uniform(-10.0, -6.0));
  }
  return spec;
}

// --- the soundness property ------------------------------------------------

// >= 1000 randomized (spec, box, corner) cases: every metric of a point
// sampled inside the box must lie inside the interval the prover
// computed for that box. This is the contract every consumer relies on:
// it is what makes an infeasible verdict a *proof* rather than a guess.
TEST(ProveSoundness, PointSamplesLieInsideProvenIntervals) {
  const est::Process base = est::Process::default_1u2();
  const std::vector<est::Process> corners =
      stat::CornerSet::all().realize(base);
  Rng rng(0xF001u);
  ProveOptions opts;
  opts.contraction_segments = 0;  // raw input-box bounds, no contraction
  int cases = 0;
  for (int iter = 0; iter < 360; ++iter) {
    const est::Process& proc = corners[iter % corners.size()];
    const est::OpAmpSpec spec = random_spec(rng);
    const std::vector<std::pair<double, double>> box =
        random_subbox(synth::blind_bounds(proc, false), rng);
    opts.box = box;
    const FeasibilityProof proof = prove_opamp_feasibility(proc, spec, opts);
    for (int s = 0; s < 3; ++s, ++cases) {
      const std::vector<double> x = sample_point(box, rng);
      const PointMetrics p = prove_point_metrics(proc, spec, x);
      EXPECT_TRUE(in_interval(proof.bounds.gain, p.gain))
          << "gain " << p.gain << " outside " << proof.bounds.gain.str();
      EXPECT_TRUE(in_interval(proof.bounds.ugf_hz, p.ugf_hz))
          << "ugf " << p.ugf_hz << " outside " << proof.bounds.ugf_hz.str();
      EXPECT_TRUE(in_interval(proof.bounds.phase_margin, p.phase_margin))
          << "pm " << p.phase_margin << " outside "
          << proof.bounds.phase_margin.str();
      EXPECT_TRUE(in_interval(proof.bounds.slew, p.slew))
          << "slew " << p.slew << " outside " << proof.bounds.slew.str();
      EXPECT_TRUE(in_interval(proof.bounds.dc_power, p.dc_power))
          << "power " << p.dc_power << " outside "
          << proof.bounds.dc_power.str();
      EXPECT_TRUE(in_interval(proof.bounds.gate_area, p.gate_area))
          << "area " << p.gate_area << " outside "
          << proof.bounds.gate_area.str();
      EXPECT_TRUE(in_interval(proof.bounds.input_noise_v2, p.input_noise_v2))
          << "noise " << p.input_noise_v2 << " outside "
          << proof.bounds.input_noise_v2.str();
    }
  }
  EXPECT_GE(cases, 1000);
}

// Contraction soundness: a point in the input box whose point metrics
// satisfy every spec requirement must survive into the contracted
// feasible box — branch-and-prune may only drop provably-hopeless
// segments, never a witness.
TEST(ProveSoundness, FeasiblePointsSurviveContraction) {
  const est::Process proc = est::Process::default_1u2();
  Rng rng(0xF002u);
  ProveOptions opts;  // contraction on (the default)
  int witnesses = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const est::OpAmpSpec spec = random_spec(rng);
    const std::vector<std::pair<double, double>> box =
        synth::blind_bounds(proc, false);
    const FeasibilityProof proof = prove_opamp_feasibility(proc, spec, opts);
    for (int s = 0; s < 50; ++s) {
      const std::vector<double> x = sample_point(box, rng);
      const PointMetrics p = prove_point_metrics(proc, spec, x);
      const bool meets =
          (spec.gain <= 0.0 || p.gain >= spec.gain) &&
          (spec.ugf_hz <= 0.0 || p.ugf_hz >= spec.ugf_hz) &&
          (spec.area_budget <= 0.0 || p.gate_area <= spec.area_budget) &&
          p.phase_margin >= 45.0;
      if (!meets) continue;
      ++witnesses;
      ASSERT_FALSE(proof.infeasible)
          << "witness exists but spec was declared infeasible";
      ASSERT_EQ(proof.feasible_box.size(), x.size());
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_GE(x[i], proof.feasible_box[i].first) << "var " << i;
        EXPECT_LE(x[i], proof.feasible_box[i].second) << "var " << i;
      }
    }
  }
  // The sampler must actually have found spec-satisfying witnesses for
  // the property to mean anything.
  EXPECT_GT(witnesses, 10);
}

// --- pins against the synthesis layer --------------------------------------

// cost_lower_bound mirrors synth::opamp_cost's weights. At a degenerate
// (point) box the interval metrics collapse to the prover's point
// metrics, so the floor must equal opamp_cost evaluated on those same
// numbers (capped at the non-functional plateau 1e3) — any weight edit
// on either side breaks the equality.
TEST(ProvePins, CostFloorMatchesOpampCostWeightsAtPointBox) {
  const est::Process proc = est::Process::default_1u2();
  Rng rng(0xF003u);
  ProveOptions opts;
  opts.contraction_segments = 0;
  for (int iter = 0; iter < 50; ++iter) {
    const est::OpAmpSpec spec = random_spec(rng);
    const std::vector<double> x = sample_point(synth::blind_bounds(proc, false), rng);
    opts.box.clear();
    for (const double v : x) opts.box.push_back({v, v});
    const FeasibilityProof proof = prove_opamp_feasibility(proc, spec, opts);
    const PointMetrics p = prove_point_metrics(proc, spec, x);
    synth::OpAmpEval e;
    e.functional = true;  // the floor assumes the best case
    e.gain = p.gain;
    e.ugf_hz = p.ugf_hz;
    e.phase_margin = p.phase_margin;
    e.gate_area = p.gate_area;
    e.dc_power = p.dc_power;
    e.slew = p.slew;
    const double expect = std::min(synth::opamp_cost(e, spec), 1e3);
    EXPECT_NEAR(proof.cost_lower_bound, expect,
                1e-9 * std::abs(expect) + 1e-12)
        << "iter " << iter;
  }
}

// The floor can never exceed the non-functional plateau: a box full of
// non-functional points still scores 1e3 in the real cost.
TEST(ProvePins, CostFloorNeverExceedsPlateau) {
  const est::Process proc = est::Process::default_1u2();
  Rng rng(0xF004u);
  for (int iter = 0; iter < 20; ++iter) {
    est::OpAmpSpec spec = random_spec(rng);
    spec.gain = 1e30;  // maximally-violated spec maximizes the floor
    spec.ugf_hz = 1e30;
    const FeasibilityProof proof = prove_opamp_feasibility(proc, spec);
    EXPECT_LE(proof.cost_lower_bound, 1e3);
  }
}

// --- APE-F verdict units ---------------------------------------------------

TEST(ProveVerdicts, AbsurdGainIsProvenInfeasible) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.gain = 1e30;  // orders of magnitude past any square-law two-stage
  const FeasibilityProof proof = prove_opamp_feasibility(proc, spec);
  EXPECT_TRUE(proof.infeasible);
  ASSERT_GT(proof.report.errors(), 0);
  bool named = false;
  for (const auto& f : proof.report.findings) {
    if (f.rule == "APE-F001") {
      EXPECT_EQ(f.severity, Severity::Error);
      // The finding must carry the violated inequality and the interval.
      if (f.message.find("gain") != std::string::npos) named = true;
      EXPECT_NE(f.message.find(">="), std::string::npos);
      EXPECT_NE(f.message.find("["), std::string::npos);
    }
  }
  EXPECT_TRUE(named);
}

TEST(ProveVerdicts, TightSpecWarns) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  // Probe the proven UGF ceiling, then ask for 95% of it: reachable,
  // but within the default 25% tightness margin.
  const FeasibilityProof probe = prove_opamp_feasibility(proc, spec);
  ASSERT_FALSE(probe.bounds.ugf_hz.empty());
  spec.ugf_hz = probe.bounds.ugf_hz.hi() * 0.95;
  ProveOptions opts;
  opts.contraction_segments = 0;
  const FeasibilityProof proof = prove_opamp_feasibility(proc, spec, opts);
  EXPECT_FALSE(proof.infeasible);
  bool tight = false;
  for (const auto& f : proof.report.findings) {
    if (f.rule == "APE-F002" && f.where == "spec.ugf_hz") {
      EXPECT_EQ(f.severity, Severity::Warn);
      tight = true;
    }
  }
  EXPECT_TRUE(tight);
}

TEST(ProveVerdicts, VacuousAreaBudgetNotes) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.area_budget = 1.0;  // 1 m^2 of gate area: satisfied by any sizing
  const FeasibilityProof proof = prove_opamp_feasibility(proc, spec);
  EXPECT_FALSE(proof.infeasible);
  bool vacuous = false;
  for (const auto& f : proof.report.findings) {
    if (f.rule == "APE-F003" && f.where == "spec.area_budget") {
      EXPECT_EQ(f.severity, Severity::Note);
      vacuous = true;
    }
  }
  EXPECT_TRUE(vacuous);
}

// A sane default spec must prove feasible with no error findings and a
// non-empty feasible box inside the input box — the lint-first gates
// run this exact check on every batch job.
TEST(ProveVerdicts, DefaultSpecIsFeasible) {
  const est::Process proc = est::Process::default_1u2();
  const est::OpAmpSpec spec;
  const FeasibilityProof proof = prove_opamp_feasibility(proc, spec);
  EXPECT_FALSE(proof.infeasible);
  EXPECT_EQ(proof.report.errors(), 0);
  const auto outer = synth::blind_bounds(proc, false);
  ASSERT_EQ(proof.feasible_box.size(), outer.size());
  for (size_t i = 0; i < outer.size(); ++i) {
    EXPECT_GE(proof.feasible_box[i].first, outer[i].first);
    EXPECT_LE(proof.feasible_box[i].second, outer[i].second);
    EXPECT_LE(proof.feasible_box[i].first, proof.feasible_box[i].second);
  }
  EXPECT_EQ(proof.corner, "nominal");
}

// APE-F verdicts per corner: an absurd spec is infeasible at every PVT
// card, a sane one feasible at every card, and the proof records which
// corner it ran at.
TEST(ProveVerdicts, VerdictsHoldAtEveryCorner) {
  const est::Process base = est::Process::default_1u2();
  est::OpAmpSpec absurd;
  absurd.gain = 1e30;
  const est::OpAmpSpec sane;
  for (const est::Process& proc : stat::CornerSet::all().realize(base)) {
    const FeasibilityProof bad = prove_opamp_feasibility(proc, absurd);
    EXPECT_TRUE(bad.infeasible) << proc.variant;
    EXPECT_EQ(bad.corner, proc.variant);
    const FeasibilityProof good = prove_opamp_feasibility(proc, sane);
    EXPECT_FALSE(good.infeasible) << proc.variant;
  }
}

TEST(ProveVerdicts, BufferedSpecStaysNeutral) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.buffer = true;
  spec.gain = 1e30;  // would be infeasible unbuffered — but no model, no claim
  const FeasibilityProof proof = prove_opamp_feasibility(proc, spec);
  EXPECT_FALSE(proof.infeasible);
  EXPECT_TRUE(proof.report.findings.empty());
  EXPECT_EQ(proof.cost_lower_bound, 0.0);
  EXPECT_EQ(proof.feasible_box.size(), 13u);
}

// --- the consumer contract -------------------------------------------------

TEST(ProveConsumers, RequireFeasibleThrowsPermanentLintError) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.gain = 1e30;
  const FeasibilityProof proof = prove_opamp_feasibility(proc, spec);
  try {
    require_feasible(proof, "unit");
    FAIL() << "require_feasible did not throw";
  } catch (const LintError& e) {
    // Permanent is what routes the supervisor ladder straight to the
    // estimate-only fallback with no retries.
    EXPECT_EQ(e.klass(), ErrorClass::Permanent);
    EXPECT_NE(std::string(e.what()).find("infeasible"), std::string::npos);
    EXPECT_GT(e.report().errors(), 0);
  }
  // Feasible proofs pass through silently.
  const FeasibilityProof ok =
      prove_opamp_feasibility(proc, est::OpAmpSpec{});
  EXPECT_NO_THROW(require_feasible(ok, "unit"));
}

// Zero bias current leaves the noise bound unbounded; the rendered proof
// (what `ape_lint --prove` prints) must still be valid JSON, with null
// for the infinite ends.
TEST(ProveConsumers, ZeroBiasProofRendersAsValidJson) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.ibias = 0.0;
  const FeasibilityProof proof = prove_opamp_feasibility(proc, spec);
  const json::Value doc = json::parse(json::dump(proof));
  EXPECT_EQ(doc.find("infeasible")->as_bool(), proof.infeasible);
  EXPECT_EQ(doc.find("report")->find("errors")->as_long(),
            proof.report.errors());
  const json::Value* noise = doc.find("bounds")->find("input_noise_v2");
  ASSERT_NE(noise, nullptr);
  ASSERT_EQ(noise->items.size(), 2u);
  const util::Interval& b = proof.bounds.input_noise_v2;
  for (size_t k = 0; k < 2; ++k) {
    const double end = k == 0 ? b.lo() : b.hi();
    if (std::isfinite(end)) {
      EXPECT_EQ(noise->items[k].as_number(), end);
    } else {
      EXPECT_EQ(noise->items[k].kind, json::Value::Kind::Null);
    }
  }
  EXPECT_FALSE(std::isfinite(b.hi()));
}

TEST(ProveConsumers, InputValidationThrowsSpecError) {
  const est::Process proc = est::Process::default_1u2();
  const est::OpAmpSpec spec;
  EXPECT_THROW(prove_point_metrics(proc, spec, {1.0, 2.0}), SpecError);
  ProveOptions opts;
  opts.box.assign(13, {1e-6, 2e-6});
  opts.box[4] = {-1.0, 2e-6};  // non-positive lower bound
  EXPECT_THROW(prove_opamp_feasibility(proc, spec, opts), SpecError);
  opts.box.assign(5, {1e-6, 2e-6});  // wrong arity
  EXPECT_THROW(prove_opamp_feasibility(proc, spec, opts), SpecError);
}

}  // namespace
}  // namespace ape::lint
