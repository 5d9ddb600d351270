// The annealer's incremental bias solve (synth::BiasMemo): evaluating a
// candidate through a restart's memo must return the same bits as the
// memo-free evaluate_opamp_vars, on annealer walks over the Table 1 specs
// (buffered and not, nominal and corner cards), after candidates whose
// evaluation throws, and inside synthesize_opamp at any restart thread
// count. The memo's work counters are deterministic and pinned exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "bench/bench_util.h"
#include "src/estimator/opamp.h"
#include "src/stat/corners.h"
#include "src/synth/anneal.h"
#include "src/synth/astrx.h"
#include "src/synth/sizing.h"
#include "src/util/error.h"

namespace ape::synth {
namespace {

using est::OpAmpSpec;
using est::Process;

/// Every field of an evaluation as bits (so -0.0 and NaN payloads count).
std::vector<uint64_t> bits(const OpAmpEval& e) {
  std::vector<uint64_t> b{uint64_t(e.functional)};
  for (double f : {e.gain, e.ugf_hz, e.phase_margin, e.gate_area, e.dc_power,
                   e.slew, e.zout, e.itail, e.imbalance}) {
    b.push_back(std::bit_cast<uint64_t>(f));
  }
  return b;
}

std::vector<double> ape_seed(const Process& proc, const OpAmpSpec& spec) {
  return vars_from_design(est::OpAmpEstimator(proc).estimate(spec)).pack();
}

/// Tally of one walk's candidates.
struct WalkTally {
  int functional = 0;
  int broken = 0;
};

/// Anneal over \p bounds scoring each candidate through \p memo, and check
/// at every candidate that the memo's evaluation equals the memo-free one
/// at the memo's process. A candidate whose evaluation throws must throw
/// both ways.
WalkTally walk(const Process& proc, const OpAmpSpec& spec,
               const std::vector<std::pair<double, double>>& bounds,
               const std::vector<double>& x0, uint64_t seed, BiasMemo& memo) {
  WalkTally tally;
  AnnealOptions ao;
  ao.iterations = 300;
  ao.seed = seed;
  auto cost = [&](const std::vector<double>& x) {
    const OpAmpVars v = OpAmpVars::unpack(x, spec.buffer);
    OpAmpEval plain;
    try {
      plain = evaluate_opamp_vars(proc, v, spec.ibias, spec.cload);
    } catch (const Error&) {
      EXPECT_THROW(evaluate_opamp_vars(memo, v, spec.cload), Error);
      return 1e6;
    }
    const OpAmpEval memoized = evaluate_opamp_vars(memo, v, spec.cload);
    EXPECT_EQ(bits(memoized), bits(plain));
    ++(plain.functional ? tally.functional : tally.broken);
    return opamp_cost(memoized, spec);
  };
  (void)anneal(cost, bounds, x0, ao);
  return tally;
}

TEST(BiasMemo, AnnealerWalksMatchTheMemoFreeEvaluationBitwise) {
  const Process nominal = Process::default_1u2();
  std::vector<Process> procs{nominal};
  for (const Process& p : stat::CornerSet::parse("ws,wo").realize(nominal)) {
    procs.push_back(p);
  }
  WalkTally total[2];  // [buffered]
  BiasStageCounts counts;
  uint64_t seed = 1;
  for (const auto& row : bench::table1_specs()) {
    const OpAmpSpec spec = bench::to_spec(row);
    const std::vector<double> x0 = ape_seed(nominal, spec);
    for (const Process& proc : procs) {
      // Seeded walks stay near a working point; blind walks cross the
      // stuck-output and failed-follower branches.
      for (const bool blind : {false, true}) {
        BiasMemo memo(proc, spec.ibias, counts);
        const auto bounds = blind ? blind_bounds(proc, spec.buffer)
                                  : seeded_bounds(x0, 0.2, proc, spec.buffer);
        const WalkTally t = walk(proc, spec, bounds, x0, seed++, memo);
        WalkTally& acc = total[spec.buffer ? 1 : 0];
        acc.functional += t.functional;
        acc.broken += t.broken;
      }
    }
  }
  for (const WalkTally& t : total) {
    EXPECT_GT(t.functional, 0);
    EXPECT_GT(t.broken, 0);
  }
  EXPECT_GT(counts.solved, 0);
  EXPECT_GT(counts.reused, counts.solved);
}

TEST(BiasMemo, ThrowingCandidateLeavesTheMemoUnpoisoned) {
  const Process proc = Process::default_1u2();
  OpAmpSpec spec = bench::to_spec(bench::table1_specs()[7]);  // buffered oa7
  ASSERT_TRUE(spec.buffer);
  const OpAmpVars good = OpAmpVars::unpack(ape_seed(proc, spec), true);
  const OpAmpEval reference =
      evaluate_opamp_vars(proc, good, spec.ibias, spec.cload);
  ASSERT_TRUE(reference.functional);

  BiasStageCounts counts;
  BiasMemo memo(proc, spec.ibias, counts);
  EXPECT_EQ(bits(evaluate_opamp_vars(memo, good, spec.cload)), bits(reference));
  const long stages = counts.solved;
  EXPECT_EQ(stages, 5);  // bias diode, load diode, pair, crossing, follower
  EXPECT_EQ(counts.reused, 0);

  // Non-positive widths throw inside the first, third and last stage;
  // the stages before each throw are reused, the throwing one is not kept.
  OpAmpVars bad_bias = good;
  bad_bias.w8 = 0.0;
  OpAmpVars bad_pair = good;
  bad_pair.w1 = -1e-6;
  OpAmpVars bad_follower = good;
  bad_follower.w10 = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const OpAmpVars& bad : {bad_bias, bad_pair, bad_follower}) {
      EXPECT_THROW(evaluate_opamp_vars(proc, bad, spec.ibias, spec.cload),
                   NumericError);
      EXPECT_THROW(evaluate_opamp_vars(memo, bad, spec.cload), NumericError);
    }
  }
  EXPECT_EQ(counts.solved, stages);
  EXPECT_EQ(counts.reused, 2 * (2 + 4));  // per pass: pair 2, follower 4

  // The working point still evaluates to the memo-free bits, all reused.
  EXPECT_EQ(bits(evaluate_opamp_vars(memo, good, spec.cload)), bits(reference));
  EXPECT_EQ(counts.solved, stages);
  EXPECT_EQ(counts.reused, 2 * (2 + 4) + 5);
}

/// synthesize_opamp's single-restart search, replayed with memo-free
/// evaluations: the seeded box, the target margin and the worst-corner
/// yield term, composed as synthesize_opamp composes them.
AnnealResult memo_free_search(const Process& proc, const OpAmpSpec& spec,
                              const SynthesisOptions& opts) {
  const std::vector<double> x0 = ape_seed(proc, spec);
  const auto bounds = seeded_bounds(x0, opts.interval_frac, proc, spec.buffer);
  OpAmpSpec target = spec;
  target.gain *= opts.target_margin;
  target.ugf_hz *= opts.target_margin;
  auto cost = [&](const std::vector<double>& x) {
    try {
      const OpAmpVars v = OpAmpVars::unpack(x, spec.buffer);
      const double c0 = opamp_cost(
          evaluate_opamp_vars(proc, v, spec.ibias, spec.cload), target);
      double worst = 0.0;
      for (const Process& cp : opts.corner_procs) {
        double c = 1e6;
        try {
          c = opamp_cost(evaluate_opamp_vars(cp, v, spec.ibias, spec.cload),
                         target);
        } catch (const Error&) {
        }
        if (c > worst) worst = c;
      }
      return c0 + (opts.corner_procs.empty() ? 0.0 : opts.yield_weight * worst);
    } catch (const Error&) {
      return 1e6;
    }
  };
  return anneal(cost, bounds, x0, opts.anneal);
}

SynthesisOptions seeded_options(int iterations) {
  SynthesisOptions o;
  o.use_ape_seed = true;
  o.anneal.iterations = iterations;
  o.anneal.seed = 5;
  return o;
}

TEST(BiasMemo, SynthesisEqualsTheMemoFreeSearchWithAndWithoutCorners) {
  const Process proc = Process::default_1u2();
  const OpAmpSpec spec = bench::to_spec(bench::table1_specs()[8]);  // oa8
  SynthesisOptions nominal = seeded_options(200);
  SynthesisOptions yield_aware = nominal;
  yield_aware.yield_weight = 4.0;
  yield_aware.corner_procs = stat::CornerSet::parse("ws,hot").realize(proc);
  for (const SynthesisOptions& opts : {nominal, yield_aware}) {
    const SynthesisOutcome out = synthesize_opamp(proc, spec, opts);
    const AnnealResult ref = memo_free_search(proc, spec, opts);
    EXPECT_EQ(std::bit_cast<uint64_t>(out.cost),
              std::bit_cast<uint64_t>(ref.best_cost));
    EXPECT_EQ(out.best_x, ref.best_x);
    EXPECT_EQ(out.evaluations, ref.evaluations);
  }
}

TEST(BiasMemo, RestartsGiveIdenticalOutcomesAtOneAndFourThreads) {
  const Process proc = Process::default_1u2();
  for (const size_t row : {3u, 9u}) {  // unbuffered oa3, buffered oa9
    const OpAmpSpec spec = bench::to_spec(bench::table1_specs()[row]);
    SynthesisOptions serial = seeded_options(150);
    serial.restarts = 4;
    serial.restart_threads = 1;
    serial.yield_weight = 2.0;
    serial.corner_procs = stat::CornerSet::parse("wp,wz").realize(proc);
    SynthesisOptions pooled = serial;
    pooled.restart_threads = 4;
    const SynthesisOutcome a = synthesize_opamp(proc, spec, serial);
    const SynthesisOutcome b = synthesize_opamp(proc, spec, pooled);
    EXPECT_EQ(a.restarts_run, 4);
    EXPECT_EQ(b.restarts_run, 4);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.cost), std::bit_cast<uint64_t>(b.cost));
    EXPECT_EQ(a.best_x, b.best_x);
    EXPECT_EQ(a.best_restart, b.best_restart);
    EXPECT_EQ(a.evaluations, b.evaluations);
    EXPECT_EQ(a.skipped_candidates, b.skipped_candidates);
    EXPECT_EQ(a.bias_stages.solved, b.bias_stages.solved);
    EXPECT_EQ(a.bias_stages.reused, b.bias_stages.reused);
    EXPECT_EQ(a.comment, b.comment);
  }
}

// The work counters are a pure function of the search: pinned exactly.
TEST(BiasMemo, StageCountersArePinned) {
  const Process proc = Process::default_1u2();
  struct Case {
    size_t row;
    double yield_weight;
    long solved, reused;
  };
  const Case cases[] = {
      {3, 0.0, 760, 840},     // unbuffered oa3
      {7, 0.0, 974, 1025},    // buffered oa7
      {7, 2.0, 2776, 3222},   // oa7 with the ws/wo corner term
  };
  for (const Case& c : cases) {
    const OpAmpSpec spec = bench::to_spec(bench::table1_specs()[c.row]);
    SynthesisOptions opts = seeded_options(400);
    opts.yield_weight = c.yield_weight;
    if (c.yield_weight > 0.0) {
      opts.corner_procs = stat::CornerSet::parse("ws,wo").realize(proc);
    }
    const SynthesisOutcome out = synthesize_opamp(proc, spec, opts);
    EXPECT_EQ(out.bias_stages.solved, c.solved) << "row " << c.row;
    EXPECT_EQ(out.bias_stages.reused, c.reused) << "row " << c.row;
  }
}

}  // namespace
}  // namespace ape::synth
