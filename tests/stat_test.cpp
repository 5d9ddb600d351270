/// \file stat_test.cpp
/// The statistical subsystem (DESIGN.md section 12): PVT corner
/// derivation (skew directions, temperature scaling, cache identity),
/// Pelgrom mismatch sampling (determinism, 1/sqrt(WL) scaling, stream-id
/// field-width validation), stream-id collision freedom across every
/// registered derive_stream domain, Wilson/yield arithmetic against
/// hand-computed values, and the sweep runner's acceptance properties —
/// bit-identical YieldReports at any thread count and across a mid-run
/// cancel + --resume, corner-shared cache hits, and the yield-aware
/// annealer cost changing the winning sizing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "src/estimator/process.h"
#include "src/runtime/cache.h"
#include "src/runtime/supervisor.h"
#include "src/runtime/sweep.h"
#include "src/stat/corners.h"
#include "src/stat/mismatch.h"
#include "src/stat/yield.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "src/util/json.h"
#include "src/util/rng.h"
#include "src/util/stream_ids.h"

namespace ape::stat {
namespace {

using est::OpAmpSpec;
using est::Process;

const Process& proc() {
  static const Process p = Process::default_1u2();
  return p;
}

OpAmpSpec easy_spec(int i) {
  OpAmpSpec s;
  s.gain = 120.0 + 10.0 * double(i % 8);
  s.ugf_hz = 2e6 + 0.5e6 * double(i % 4);
  s.ibias = 10e-6;
  s.cload = 10e-12;
  return s;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// CornerSet: construction, parsing, realization.

TEST(StatCorners, AllHasTheSevenDocumentedCornersInOrder) {
  const CornerSet all = CornerSet::all();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all.names(), "tm,wp,ws,wo,wz,hot,cold");
  EXPECT_EQ(all.index_of("tm"), 0);
  EXPECT_EQ(all.index_of("cold"), 6);
  EXPECT_EQ(all.index_of("nope"), -1);
}

TEST(StatCorners, ParseSubsetKeepsRequestOrder) {
  const CornerSet s = CornerSet::parse("ws,tm,hot");
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s[0].name, "ws");
  EXPECT_EQ(s[1].name, "tm");
  EXPECT_EQ(s[2].name, "hot");
  EXPECT_EQ(CornerSet::parse("all").names(), CornerSet::all().names());
  EXPECT_EQ(CornerSet::nominal().names(), "tm");
}

TEST(StatCorners, ParseRejectsUnknownDuplicateAndBlankNames) {
  EXPECT_THROW(CornerSet::parse("tm,bogus"), SpecError);
  EXPECT_THROW(CornerSet::parse("tm,ws,tm"), SpecError);
  EXPECT_THROW(CornerSet::parse("tm,,ws"), SpecError);
  // "" is the CLI's "not specified" and means the full set.
  EXPECT_EQ(CornerSet::parse("").names(), CornerSet::all().names());
}

TEST(StatCorners, WorstSpeedSkewsSlowLowVddHot) {
  const CornerSet all = CornerSet::all();
  const Process ws = proc().corner(all[all.index_of("ws")]);
  // Net |Vth| shift = +100 mV slow skew - 2 mV/K x 98 K: at 125 C the
  // temperature drop dominates, so the magnitude-frame delta is -96 mV.
  const double dvth = 0.1 - 2.0e-3 * 98.0;
  EXPECT_NEAR(ws.nmos.vto, proc().nmos.vto + dvth, 1e-12);
  EXPECT_NEAR(ws.pmos.vto, proc().pmos.vto - dvth, 1e-12);
  // K': 0.9 slow skew compounded with hot mobility degradation.
  const double mobility = std::pow(398.15 / 300.15, -1.5);
  EXPECT_NEAR(ws.nmos.kp, proc().nmos.kp * 0.9 * mobility, 1e-12);
  EXPECT_NEAR(ws.pmos.kp, proc().pmos.kp * 0.9 * mobility, 1e-12);
  EXPECT_DOUBLE_EQ(ws.vdd, proc().vdd * 0.9);
  EXPECT_DOUBLE_EQ(ws.temp_c, 125.0);
  EXPECT_EQ(ws.variant, "ws");
}

TEST(StatCorners, WorstPowerSkewsFastHighVddCold) {
  const CornerSet all = CornerSet::all();
  const Process wp = proc().corner(all[all.index_of("wp")]);
  // Net |Vth| shift = -100 mV fast skew + 2 mV/K x 67 K cold rise:
  // +34 mV in the magnitude frame.
  const double dvth = -0.1 - 2.0e-3 * (-40.0 - 27.0);
  EXPECT_NEAR(wp.nmos.vto, proc().nmos.vto + dvth, 1e-12);
  EXPECT_NEAR(wp.pmos.vto, proc().pmos.vto - dvth, 1e-12);
  // -40 C: mobility scaling (T/Tnom)^-1.5 > 1 compounds the fast skew.
  EXPECT_GT(wp.nmos.kp, proc().nmos.kp);
  EXPECT_GT(wp.pmos.kp, proc().pmos.kp);
  EXPECT_DOUBLE_EQ(wp.vdd, proc().vdd * 1.1);
  EXPECT_DOUBLE_EQ(wp.temp_c, -40.0);
}

TEST(StatCorners, HotCornerAppliesFirstOrderTemperatureLaws) {
  const CornerSet all = CornerSet::all();
  const Process hot = proc().corner(all[all.index_of("hot")]);
  const double mobility = std::pow(398.15 / 300.15, -1.5);
  EXPECT_NEAR(hot.nmos.kp, proc().nmos.kp * mobility, 1e-12);
  EXPECT_NEAR(hot.pmos.kp, proc().pmos.kp * mobility, 1e-12);
  // |Vth| drops 2 mV/K over the 98 K rise — both polarities, magnitude
  // frame.
  EXPECT_NEAR(hot.nmos.vto, proc().nmos.vto - 2.0e-3 * 98.0, 1e-12);
  EXPECT_NEAR(hot.pmos.vto, proc().pmos.vto + 2.0e-3 * 98.0, 1e-12);
  EXPECT_DOUBLE_EQ(hot.vdd, proc().vdd);  // temperature-only corner
}

TEST(StatCorners, BsimCardsSkewViaVfbAndMuz) {
  const Process base = Process::default_1u2_bsim();
  const CornerSet all = CornerSet::all();
  const Process ws = base.corner(all[all.index_of("ws")]);
  // LEVEL 4 cards ignore vto/kp: the skew must land on vfb/muz instead.
  // Same net -96 mV magnitude delta as the LEVEL 1 worst-speed card.
  const double dvth = 0.1 - 2.0e-3 * 98.0;
  EXPECT_NEAR(ws.nmos.vfb, base.nmos.vfb + dvth, 1e-12);
  EXPECT_NEAR(ws.pmos.vfb, base.pmos.vfb - dvth, 1e-12);
  EXPECT_LT(ws.nmos.muz, base.nmos.muz);
  EXPECT_LT(ws.pmos.muz, base.pmos.muz);
  EXPECT_DOUBLE_EQ(ws.nmos.vto, base.nmos.vto);
  EXPECT_DOUBLE_EQ(ws.nmos.kp, base.nmos.kp);
}

TEST(StatCorners, TmRealizesNumericallyIdenticalButDistinctVariant) {
  const CornerSet nom = CornerSet::nominal();
  const Process tm = proc().corner(nom[0]);
  EXPECT_EQ(tm.nmos.vto, proc().nmos.vto);
  EXPECT_EQ(tm.nmos.kp, proc().nmos.kp);
  EXPECT_EQ(tm.pmos.vto, proc().pmos.vto);
  EXPECT_EQ(tm.vdd, proc().vdd);
  EXPECT_EQ(tm.temp_c, proc().temp_c);
  EXPECT_EQ(tm.variant, "tm");
  EXPECT_EQ(proc().variant, "");
}

TEST(StatCorners, BelowAbsoluteZeroThrows) {
  est::CornerDelta d;
  d.temp_c = -300.0;
  EXPECT_THROW(proc().corner(d), SpecError);
}

// ---------------------------------------------------------------------------
// Satellite (a): corner identity folds into cache keys and fingerprints.

TEST(StatCacheIdentity, TmCornerHasItsOwnCacheKey) {
  const OpAmpSpec spec = easy_spec(0);
  const Process tm = proc().corner(CornerSet::nominal()[0]);
  // Numerically identical cards — only variant/temp identity separates
  // them. A blind numeric key would collide; the regression is that it
  // must not.
  EXPECT_NE(runtime::cache_key(proc(), spec), runtime::cache_key(tm, spec));
  EXPECT_NE(runtime::spec_fingerprint(proc(), spec),
            runtime::spec_fingerprint(tm, spec));
}

TEST(StatCacheIdentity, EveryCornerAndSampleKeysDistinctly) {
  const OpAmpSpec spec = easy_spec(0);
  std::set<std::string> keys{runtime::cache_key(proc(), spec)};
  for (const est::Process& cp : CornerSet::all().realize(proc())) {
    EXPECT_TRUE(keys.insert(runtime::cache_key(cp, spec)).second)
        << "corner '" << cp.variant << "' collided";
  }
  // Mismatch samples tag the variant further ("ws/mc3").
  const Process ws = proc().corner(CornerSet::all()[2]);
  PelgromModel pm;
  for (uint64_t s = 0; s < 4; ++s) {
    const Process mc = sample_mismatch(ws, pm, 7, 0, 2, s);
    EXPECT_EQ(mc.variant, "ws/mc" + std::to_string(s));
    EXPECT_TRUE(keys.insert(runtime::cache_key(mc, spec)).second);
  }
}

// ---------------------------------------------------------------------------
// Pelgrom mismatch sampling.

TEST(StatMismatch, SigmaScalesAsOneOverSqrtArea) {
  PelgromModel pm;
  // Exact: quadrupling the area halves both sigmas.
  EXPECT_DOUBLE_EQ(pm.sigma_vth(4.0 * pm.w_ref, pm.l_ref),
                   pm.sigma_vth(pm.w_ref, pm.l_ref) / 2.0);
  EXPECT_DOUBLE_EQ(pm.sigma_k(pm.w_ref, 4.0 * pm.l_ref),
                   pm.sigma_k(pm.w_ref, pm.l_ref) / 2.0);
  EXPECT_NEAR(pm.sigma_vth(pm.w_ref, pm.l_ref),
              pm.a_vt / std::sqrt(pm.w_ref * pm.l_ref), 1e-18);
  EXPECT_THROW(pm.sigma_vth(0.0, pm.l_ref), SpecError);
  EXPECT_THROW(pm.sigma_k(pm.w_ref, -1e-6), SpecError);
}

TEST(StatMismatch, SamplesAreDeterministicAndStreamSeparated) {
  PelgromModel pm;
  const Process a = sample_mismatch(proc(), pm, 99, 3, 1, 17);
  const Process b = sample_mismatch(proc(), pm, 99, 3, 1, 17);
  EXPECT_EQ(a.nmos.vto, b.nmos.vto);
  EXPECT_EQ(a.nmos.kp, b.nmos.kp);
  EXPECT_EQ(a.pmos.vto, b.pmos.vto);
  EXPECT_EQ(a.pmos.kp, b.pmos.kp);
  // Any coordinate change selects a different stream.
  const Process other_sample = sample_mismatch(proc(), pm, 99, 3, 1, 18);
  const Process other_corner = sample_mismatch(proc(), pm, 99, 3, 2, 17);
  const Process other_job = sample_mismatch(proc(), pm, 99, 4, 1, 17);
  EXPECT_NE(a.nmos.vto, other_sample.nmos.vto);
  EXPECT_NE(a.nmos.vto, other_corner.nmos.vto);
  EXPECT_NE(a.nmos.vto, other_job.nmos.vto);
  // And the draw is sigma-linear: doubling A_vt exactly doubles the
  // threshold delta (same gaussian deviate from the same stream).
  PelgromModel big = pm;
  big.a_vt = 2.0 * pm.a_vt;
  const Process c = sample_mismatch(proc(), big, 99, 3, 1, 17);
  EXPECT_DOUBLE_EQ(c.nmos.vto - proc().nmos.vto,
                   2.0 * (a.nmos.vto - proc().nmos.vto));
}

TEST(StatMismatch, FieldWidthLimitsAreEnforced) {
  PelgromModel pm;
  EXPECT_THROW(sample_mismatch(proc(), pm, 1, uint64_t(1) << 30, 0, 0),
               SpecError);
  EXPECT_THROW(sample_mismatch(proc(), pm, 1, 0, 64, 0), SpecError);
  EXPECT_THROW(sample_mismatch(proc(), pm, 1, 0, 0, uint64_t(1) << 20),
               SpecError);
  // The largest legal coordinates are accepted.
  EXPECT_NO_THROW(sample_mismatch(proc(), pm, 1, (uint64_t(1) << 30) - 1, 63,
                                  (uint64_t(1) << 20) - 1));
}

// ---------------------------------------------------------------------------
// Satellite (b): the stream-id registry is collision-free across domains.

TEST(StatStreamIds, MismatchIdsNeverCollideAcrossTheGridOrWithBatchIds) {
  std::set<uint64_t> seen;
  // Batch jobs and anneal restarts share the small-integer range.
  for (uint64_t j = 0; j < 4096; ++j) {
    seen.insert(streams::kBatchJobStream(j));
  }
  // Mismatch ids: edges and interior of every field.
  const std::vector<uint64_t> jobs{0, 1, 2, 1023, (uint64_t(1) << 30) - 1};
  const std::vector<uint64_t> samples{0, 1, 31, (uint64_t(1) << 20) - 1};
  for (uint64_t j : jobs) {
    for (uint64_t c = 0; c < 7; ++c) {
      for (uint64_t s : samples) {
        const uint64_t id = streams::kMismatchStream(j, c, s);
        EXPECT_EQ(id >> 56, 0xA5ull) << "tag byte missing";
        EXPECT_TRUE(seen.insert(id).second)
            << "collision at (" << j << "," << c << "," << s << ")";
      }
    }
  }
}

TEST(StatStreamIds, RetryJitterIdsAreInjectivePerJobAttempt) {
  std::set<uint64_t> seen;
  for (uint64_t j = 0; j < 64; ++j) {
    for (uint64_t a = 0; a < 16; ++a) {
      EXPECT_TRUE(seen.insert(streams::kRetryJitterStream(j, a)).second);
    }
  }
}

TEST(StatStreamIds, PackingRoundTripsItsFields) {
  const uint64_t id = streams::kMismatchStream(12345, 5, 67890);
  EXPECT_EQ((id >> 26) & ((uint64_t(1) << 30) - 1), 12345u);
  EXPECT_EQ((id >> 20) & 63u, 5u);
  EXPECT_EQ(id & ((uint64_t(1) << 20) - 1), 67890u);
}

// ---------------------------------------------------------------------------
// Satellite (c): Wilson interval and YieldReport arithmetic.

TEST(StatYield, WilsonMatchesHandComputedValues) {
  // 8/10 at z=1.96: center 0.71674, margin 0.22658.
  const WilsonInterval w = wilson_interval(8, 10);
  EXPECT_NEAR(w.lo, 0.49016, 1e-4);
  EXPECT_NEAR(w.hi, 0.94332, 1e-4);
  // Degenerate proportions stay inside [0, 1].
  const WilsonInterval zero = wilson_interval(0, 10);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_NEAR(zero.hi, 0.27753, 1e-4);
  const WilsonInterval one = wilson_interval(10, 10);
  EXPECT_NEAR(one.lo, 0.72247, 1e-4);
  EXPECT_DOUBLE_EQ(one.hi, 1.0);
  // No samples: the vacuous interval.
  const WilsonInterval none = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

PointOutcome pass_point() {
  PointOutcome p;
  p.evaluated = p.functional = p.gain_ok = p.ugf_ok = p.pm_ok = true;
  return p;
}

TEST(StatYield, ReportAggregatesAndFindsTheWorstCorner) {
  YieldReport r(std::vector<std::string>{"tm", "ws"});
  PointOutcome fail_ugf = pass_point();
  fail_ugf.ugf_ok = false;
  r.add(0, pass_point());
  r.add(0, pass_point());
  r.add(1, pass_point());
  r.add(1, fail_ugf);
  r.finalize();
  EXPECT_EQ(r.total.samples, 4);
  EXPECT_EQ(r.total.pass, 3);
  EXPECT_DOUBLE_EQ(r.yield(), 0.75);
  EXPECT_EQ(r.worst_corner, 1);
  EXPECT_EQ(r.worst_corner_name(), "ws");
  EXPECT_EQ(r.corners[1].second.ugf, 1);
  EXPECT_EQ(r.corners[1].second.functional, 2);
  EXPECT_THROW(r.add(2, pass_point()), SpecError);
  // Ties resolve to the lowest index — deterministic worst corner.
  YieldReport tie(std::vector<std::string>{"a", "b"});
  tie.add(0, pass_point());
  tie.add(1, pass_point());
  tie.finalize();
  EXPECT_EQ(tie.worst_corner, 0);
}

TEST(StatYield, MergeRequiresTheSameLayout) {
  YieldReport a(std::vector<std::string>{"tm", "ws"});
  YieldReport b(std::vector<std::string>{"tm", "ws"});
  a.add(0, pass_point());
  b.add(1, pass_point());
  a.merge(b);
  EXPECT_EQ(a.total.samples, 2);
  EXPECT_EQ(a.corners[1].second.samples, 1);
  YieldReport other(std::vector<std::string>{"tm"});
  EXPECT_THROW(a.merge(other), SpecError);
}

TEST(StatYield, JsonCarriesYieldCiAndPerCornerCounts) {
  YieldReport r(std::vector<std::string>{"tm"});
  r.add(0, pass_point());
  r.finalize();
  const std::string j = json::dump(r);
  EXPECT_NE(j.find("\"yield\":1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"ci_lo\":"), std::string::npos);
  EXPECT_NE(j.find("\"worst_corner\":\"tm\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"tm\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The sweep runner: determinism, cache sharing, resume.

runtime::SweepOptions estimate_sweep(int threads, int mc,
                                     runtime::EstimateCache* cache) {
  runtime::SweepOptions o;
  o.supervisor.batch.threads = threads;
  o.supervisor.batch.seed = 2026;
  o.supervisor.batch.cache = cache;
  o.mc_samples = mc;
  return o;
}

TEST(StatSweep, MonteCarloIsBitIdenticalAcrossThreadCounts) {
  std::vector<OpAmpSpec> specs;
  for (int i = 0; i < 3; ++i) specs.push_back(easy_spec(i));
  runtime::EstimateCache c1, c8;
  const auto serial =
      runtime::run_monte_carlo(proc(), specs, estimate_sweep(1, 32, &c1));
  const auto pooled =
      runtime::run_monte_carlo(proc(), specs, estimate_sweep(8, 32, &c8));
  ASSERT_EQ(serial.jobs.size(), pooled.jobs.size());
  EXPECT_EQ(json::dump(serial.aggregate), json::dump(pooled.aggregate));
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    ASSERT_TRUE(serial.jobs[i].ok) << serial.jobs[i].error;
    EXPECT_EQ(json::dump(serial.jobs[i].report),
              json::dump(pooled.jobs[i].report));
    EXPECT_EQ(serial.jobs[i].corner_estimate_ok,
              pooled.jobs[i].corner_estimate_ok);
  }
  // 7 corners x 32 samples x 3 jobs.
  EXPECT_EQ(serial.aggregate.total.samples, 7L * 32L * 3L);
  EXPECT_EQ(serial.samples_per_corner, 32);
}

TEST(StatSweep, CornerReEstimatesShareTheCache) {
  std::vector<OpAmpSpec> specs{easy_spec(0), easy_spec(0), easy_spec(1)};
  runtime::EstimateCache cache;
  const auto r =
      runtime::run_corner_sweep(proc(), specs, estimate_sweep(2, 0, &cache));
  for (const auto& j : r.jobs) ASSERT_TRUE(j.ok) << j.error;
  // Duplicate specs hit at every corner, and the tm re-estimate hits the
  // entry phase A warmed — structural hits, not luck.
  EXPECT_GT(r.stats.cache.hits, 0);
  EXPECT_GT(r.stats.cache.hit_rate(), 0.0);
  // 2 distinct specs x (nominal-tm + 6 other corners) = 14 misses.
  EXPECT_EQ(r.stats.cache.misses, 14);
}

TEST(StatSweep, ProvenInfeasibleCornersArePrunedBeforeAnyGridWork) {
  OpAmpSpec impossible = easy_spec(0);
  impossible.area_budget = 1e-11;  // below the 8-device min-geometry floor
  std::vector<OpAmpSpec> specs{easy_spec(0), impossible};
  const size_t n_corners = CornerSet::all().size();

  runtime::EstimateCache cache;
  const auto r =
      runtime::run_corner_sweep(proc(), specs, estimate_sweep(2, 0, &cache));
  ASSERT_EQ(r.jobs.size(), 2u);

  // The sane spec: nothing pruned, every corner re-estimated.
  ASSERT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_EQ(r.jobs[0].corner_proven_infeasible,
            std::vector<uint8_t>(n_corners, 0));

  // The impossible spec: phase A still succeeds (the estimator treats
  // the area budget as informational), but the interval proof refutes
  // the spec at every corner card, so each cell skips its re-estimate
  // and its sample work — the grid slots are recorded as failed points
  // (zero yield, invariant report shape).
  ASSERT_TRUE(r.jobs[1].ok) << r.jobs[1].error;
  EXPECT_EQ(r.jobs[1].corner_proven_infeasible,
            std::vector<uint8_t>(n_corners, 1));
  EXPECT_EQ(r.jobs[1].corner_estimate_ok, std::vector<uint8_t>(n_corners, 0));
  EXPECT_EQ(r.jobs[1].report.total.samples, long(n_corners));
  EXPECT_EQ(r.jobs[1].report.total.pass, 0L);
  EXPECT_EQ(r.corners_pruned, int(n_corners));

  // Proving off: the same grid runs every cell (the default is on).
  runtime::EstimateCache blind_cache;
  runtime::SweepOptions blind = estimate_sweep(2, 0, &blind_cache);
  blind.prove_corners = false;
  const auto rb = runtime::run_corner_sweep(proc(), specs, blind);
  EXPECT_EQ(rb.corners_pruned, 0);
  ASSERT_TRUE(rb.jobs[1].ok) << rb.jobs[1].error;
  EXPECT_EQ(rb.jobs[1].corner_proven_infeasible,
            std::vector<uint8_t>(n_corners, 0));
  EXPECT_EQ(rb.jobs[1].corner_estimate_ok, std::vector<uint8_t>(n_corners, 1));
}

TEST(StatSweep, MonteCarloRequiresSamples) {
  std::vector<OpAmpSpec> specs{easy_spec(0)};
  runtime::EstimateCache cache;
  EXPECT_THROW(
      runtime::run_monte_carlo(proc(), specs, estimate_sweep(1, 0, &cache)),
      SpecError);
}

TEST(StatSweep, ResumeAfterMidRunCancelMatchesUninterrupted) {
  std::vector<OpAmpSpec> specs;
  for (int i = 0; i < 4; ++i) specs.push_back(easy_spec(i));

  auto synth_sweep = [](int threads, runtime::EstimateCache* cache) {
    runtime::SweepOptions o;
    o.supervisor.batch.threads = threads;
    o.supervisor.batch.seed = 2026;
    o.supervisor.batch.cache = cache;
    o.supervisor.batch.synth.use_ape_seed = true;
    o.supervisor.batch.synth.anneal.iterations = 120;
    o.synthesize = true;
    o.corners = CornerSet::parse("tm,ws,hot");
    o.mc_samples = 4;
    return o;
  };

  runtime::EstimateCache ref_cache;
  const auto ref =
      runtime::run_monte_carlo(proc(), specs, synth_sweep(1, &ref_cache));
  ASSERT_EQ(ref.stats.failed, 0);

  // Interrupt phase A after two designs; the checkpoint records them.
  const std::string ckpt = temp_path("stat_sweep.ckpt");
  CancelToken cancel;
  runtime::EstimateCache int_cache;
  runtime::SweepOptions interrupted = synth_sweep(1, &int_cache);
  interrupted.supervisor.checkpoint_path = ckpt;
  interrupted.supervisor.cancel = &cancel;
  int completed = 0;
  interrupted.supervisor.on_job_done = [&](size_t, bool) {
    if (++completed == 2) cancel.cancel();
  };
  const auto cancelled_run =
      runtime::run_monte_carlo(proc(), specs, interrupted);
  int cancelled_jobs = 0;
  for (const auto& j : cancelled_run.jobs) cancelled_jobs += j.ok ? 0 : 1;
  ASSERT_GT(cancelled_jobs, 0);

  // Resume at 8 threads: the full grid reproduces the uninterrupted run.
  runtime::EstimateCache res_cache;
  runtime::SweepOptions resumed = synth_sweep(8, &res_cache);
  resumed.supervisor.resume_path = ckpt;
  const auto r = runtime::run_monte_carlo(proc(), specs, resumed);
  ASSERT_EQ(r.stats.failed, 0);
  EXPECT_GT(r.supervision.resumed_jobs, 0);
  EXPECT_EQ(json::dump(ref.aggregate), json::dump(r.aggregate));
  for (size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(r.jobs[i].ok) << r.jobs[i].error;
    EXPECT_EQ(json::dump(ref.jobs[i].report), json::dump(r.jobs[i].report));
    ASSERT_EQ(ref.jobs[i].nominal.best_x.size(), r.jobs[i].nominal.best_x.size());
    for (size_t k = 0; k < ref.jobs[i].nominal.best_x.size(); ++k) {
      EXPECT_EQ(ref.jobs[i].nominal.best_x[k], r.jobs[i].nominal.best_x[k]);
    }
  }
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Yield-aware synthesis cost.

TEST(StatYieldAwareSynthesis, CornerTermChangesTheWinningSizing) {
  OpAmpSpec spec = easy_spec(2);
  synth::SynthesisOptions nominal;
  nominal.use_ape_seed = true;
  nominal.anneal.iterations = 250;
  nominal.anneal.seed = 7;

  synth::SynthesisOptions yield_aware = nominal;
  yield_aware.yield_weight = 4.0;
  yield_aware.corner_procs = CornerSet::parse("ws,hot").realize(proc());

  const auto a = synth::synthesize_opamp(proc(), spec, nominal);
  const auto b = synth::synthesize_opamp(proc(), spec, yield_aware);
  ASSERT_FALSE(a.best_x.empty());
  ASSERT_FALSE(b.best_x.empty());
  // Same seed, same spec: only the corner cost term differs, and it must
  // steer the anneal to a different winning point.
  bool differs = a.best_x.size() != b.best_x.size();
  for (size_t k = 0; !differs && k < a.best_x.size(); ++k) {
    differs = a.best_x[k] != b.best_x[k];
  }
  EXPECT_TRUE(differs) << "yield_weight had no effect on the sizing";
  // And zero weight reproduces the nominal run bit-identically.
  synth::SynthesisOptions zero = nominal;
  zero.yield_weight = 0.0;
  zero.corner_procs = yield_aware.corner_procs;
  const auto c = synth::synthesize_opamp(proc(), spec, zero);
  ASSERT_EQ(a.best_x.size(), c.best_x.size());
  for (size_t k = 0; k < a.best_x.size(); ++k) {
    EXPECT_EQ(a.best_x[k], c.best_x[k]);
  }
}

}  // namespace
}  // namespace ape::stat
