/// \file fault_injection_test.cpp
/// The robustness harness for the estimate -> verify -> synthesize
/// pipeline: every injected fault must either be recovered by a fallback
/// plan or surface as an ape::Error carrying the full provenance chain —
/// never a crash, a hang, or a silently wrong answer.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/runtime/supervisor.h"
#include "src/spice/analysis.h"
#include "src/spice/circuit.h"
#include "src/spice/devices.h"
#include "src/spice/fault.h"
#include "src/synth/anneal.h"
#include "src/synth/astrx.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "src/util/retry.h"
#include "src/util/units.h"

namespace ape::spice {
namespace {

Waveform dcv(double v) {
  Waveform w;
  w.dc = v;
  return w;
}

/// A mildly nonlinear circuit (needs a few Newton iterations per rung):
/// 5 V source, 1 k resistor, forward diode to ground.
void build_diode_divider(Circuit& ckt, double vin = 5.0) {
  ckt.add<VSource>("v1", ckt.node("in"), kGround, dcv(vin));
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("d"), 1e3);
  ckt.add<Diode>("d1", ckt.node("d"), kGround);
}

double unfaulted_diode_voltage() {
  Circuit ckt("diode-divider");
  build_diode_divider(ckt);
  const auto sol = dc_operating_point(ckt);
  return node_voltage(ckt, sol, "d");
}

// --- Fault 1: singular LU ---------------------------------------------------

TEST(FaultInjection, SingularLuOnFirstRungRecoversViaSourceStepping) {
  Circuit ckt("diode-divider");
  build_diode_divider(ckt);

  FaultInjector fi;
  fi.fail_lu(0, 1);  // first LU solve reports a singular matrix
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  const auto sol = dc_operating_point(ckt, opts);

  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.plan, DcPlan::SourceStepping);  // Plan A died on the fault
  EXPECT_EQ(rep.lu_failures, 1);
  EXPECT_EQ(fi.counts().injected_singular, 1);
  // The recovered answer matches the unfaulted solve: no silent skew.
  EXPECT_NEAR(node_voltage(ckt, sol, "d"), unfaulted_diode_voltage(), 1e-9);
}

TEST(FaultInjection, PersistentSingularLuSurfacesContextChain) {
  Circuit ckt("diode-divider");
  build_diode_divider(ckt);

  FaultInjector fi;
  fi.fail_lu_from(0);  // every LU solve fails: both plans must give up
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  try {
    dc_operating_point(ckt);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dc('diode-divider')"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Newton failed to converge"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lu_failures"), std::string::npos) << msg;
  }
}

// --- Fault 2: non-finite stamp ----------------------------------------------

TEST(FaultInjection, PoisonedStampFailsFastAndRecovers) {
  Circuit ckt("diode-divider");
  build_diode_divider(ckt);

  FaultInjector fi;
  fi.poison_stamp(0);  // NaN in the very first assembled system
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  const auto sol = dc_operating_point(ckt, opts);

  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.nonfinite_rejections, 1);
  EXPECT_EQ(fi.counts().injected_nonfinite, 1);
  // Fail-fast contract: the poisoned rung dies after ONE iteration
  // instead of burning kDcMaxIterations (300) on NaN updates. The whole
  // recovery (source stepping + full ladder) stays far below one rung's
  // iteration cap.
  EXPECT_LT(rep.newton_iterations, kDcMaxIterations);
  EXPECT_NEAR(node_voltage(ckt, sol, "d"), unfaulted_diode_voltage(), 1e-9);
}

TEST(FaultInjection, PersistentPoisonSurfacesErrorWithCounters) {
  Circuit ckt("diode-divider");
  build_diode_divider(ckt);

  FaultInjector fi;
  fi.poison_stamp(0, std::numeric_limits<long>::max());
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  try {
    dc_operating_point(ckt);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nonfinite"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dc('diode-divider')"), std::string::npos) << msg;
  }
}

// --- Fault 3: forced non-convergence at a gmin rung -------------------------

TEST(FaultInjection, GminRungVetoRecoversViaSourceStepping) {
  // The DC recovery ladder end-to-end: plain gmin stepping fails (the
  // first rung's convergence is vetoed), source stepping (Plan B) then
  // carries the solve, and its final ladder revisits the rung unvetoed.
  Circuit ckt("diode-divider");
  build_diode_divider(ckt);

  FaultInjector fi;
  fi.veto_gmin_rung(1e-2, 1);
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  const auto sol = dc_operating_point(ckt, opts);

  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.plan, DcPlan::SourceStepping);
  EXPECT_EQ(rep.convergence_vetoes, 1);
  EXPECT_EQ(rep.source_steps_completed, static_cast<int>(kSourceSteps.size()));
  EXPECT_EQ(rep.gmin_rungs_completed, static_cast<int>(kGminSteps.size()));
  EXPECT_NEAR(node_voltage(ckt, sol, "d"), unfaulted_diode_voltage(), 1e-9);
}

TEST(FaultInjection, VetoOnBothPlansSurfacesError) {
  Circuit ckt("diode-divider");
  build_diode_divider(ckt);

  FaultInjector fi;
  fi.veto_gmin_rung(1e-2, 2);  // kills Plan A and Plan B's final ladder
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  try {
    dc_operating_point(ckt);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("vetoes=2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("dc('diode-divider')"), std::string::npos) << msg;
  }
  EXPECT_EQ(fi.counts().injected_vetoes, 2);
}

// --- Numerical-health probes: refine / equilibrate / condest faults ---------

/// The extreme-spread divider (the committed
/// examples/circuits/extreme_spread_divider.sp fixture, built
/// programmatically): 1e3 S next to 1e-9 S, cond ~ 5e11, so ambient
/// Auto mode estimates the condition number and refines every solve.
void build_spread_divider(Circuit& ckt) {
  ckt.add<VSource>("vin", ckt.node("in"), kGround, dcv(1.0));
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("mid"), 1e-3);
  ckt.add<Resistor>("r2", ckt.node("mid"), ckt.node("out"), 1e9);
  ckt.add<Resistor>("r3", ckt.node("out"), kGround, 1e9);
}

TEST(FaultInjection, RefineDivergenceEscalatesToEquilibrationAndLands) {
  Circuit ckt("spread-divider");
  build_spread_divider(ckt);
  FaultInjector fi;
  fi.refine_diverge(0, 1);  // first refinement "diverges"
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  const auto sol = dc_operating_point(ckt, opts);

  // Containment: the injected divergence walks the in-kernel ladder —
  // equilibrate, refactorize, refine again — and the answer still lands.
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(fi.counts().injected_refine_diverge, 1);
  EXPECT_GE(rep.kernel.numeric_recoveries, 1L) << rep.kernel.summary();
  EXPECT_GE(rep.kernel.equilibrated_solves, 1L);
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), 0.5, 1e-2);
}

TEST(FaultInjection, EquilibrationOverflowFaultDegradesGracefully) {
  Circuit ckt("spread-divider");
  build_spread_divider(ckt);
  FaultInjector fi;
  fi.equilibrate_overflow(0, 1000);  // every equilibration "overflows"
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  // Even the Force rung must survive equilibration being unavailable:
  // it falls back to refining the unscaled factorization.
  ScopedJobContext force(
      [](JobContext& c) { c.health_mode = NumericHealthMode::Force; });
  const auto sol = dc_operating_point(ckt, opts);

  EXPECT_TRUE(rep.converged);
  EXPECT_GT(fi.counts().injected_equilibrate_overflow, 0);
  EXPECT_FALSE(rep.health.equilibrated) << rep.health.summary();
  EXPECT_GT(rep.kernel.refinement_solves, 0L);
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), 0.5, 1e-2);
}

TEST(FaultInjection, CondEstimateFaultStillForcesRefinement) {
  Circuit ckt("spread-divider");
  build_spread_divider(ckt);
  FaultInjector fi;
  fi.cond_estimate_fail(0, 1000);  // every condest probe fails
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  const auto sol = dc_operating_point(ckt, opts);

  // A failed estimate reads as "unknown, assume the worst": the +inf
  // estimate fails the healthy-side comparison, so refinement still
  // runs and the solve still lands at the right answer.
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(fi.counts().injected_cond_fails, 0);
  EXPECT_TRUE(std::isinf(rep.health.cond_estimate))
      << rep.health.summary();
  EXPECT_GT(rep.kernel.refinement_solves, 0L);
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), 0.5, 1e-2);
}

// --- dc_sweep: a mid-sweep failure names the failing sweep value ------------

TEST(FaultInjection, DcSweepFailureNamesFailingValue) {
  // Learn how many LU solves the first sweep point needs, then make
  // every solve after that fail: the second point (0.25 V) cannot
  // converge and the error must say so.
  long first_point_solves = 0;
  {
    Circuit ckt("sweep-ckt");
    build_diode_divider(ckt, 0.0);
    FaultInjector counter;
    ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &counter; });
    dc_operating_point(ckt);
    first_point_solves = counter.counts().lu_solves;
  }

  Circuit ckt("sweep-ckt");
  build_diode_divider(ckt, 0.0);
  FaultInjector fi;
  fi.fail_lu_from(first_point_solves);
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  try {
    dc_sweep(ckt, "v1", 0.0, 1.0, 0.25);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("dc_sweep('v1')"), std::string::npos) << msg;
    EXPECT_NE(msg.find("failed at sweep value"), std::string::npos) << msg;
    EXPECT_NE(msg.find(units::format_eng(0.25)), std::string::npos) << msg;
  }
  // The swept source is restored even on the failure path.
  EXPECT_EQ(ckt.find_as<VSource>("v1").wave().dc, 0.0);
}

// --- transient: vetoed steps sub-step but stay on the user grid -------------

TEST(FaultInjection, TransientSubStepsStayOnUserGrid) {
  // RC step response; the input steps at t = 1 us, so the vetoes (which
  // hit the first, still-flat interval) force sub-stepping without
  // changing the trajectory at all.
  auto build_rc = [](Circuit& ckt) {
    Waveform w;
    w.kind = Waveform::Kind::Pulse;
    w.v1 = 0.0;
    w.v2 = 1.0;
    w.td = 1e-6;
    w.tr = 1e-9;
    w.tf = 1e-9;
    w.pw = 1.0;
    w.per = 2.0;
    w.dc = 0.0;
    ckt.add<VSource>("vin", ckt.node("in"), kGround, w);
    ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("out"), 1e3);
    ckt.add<Capacitor>("c1", ckt.node("out"), kGround, 1e-9);
  };
  const double t_step = 1e-6, t_stop = 10e-6;

  Circuit ref("rc");
  build_rc(ref);
  const auto tr_ref = transient(ref, t_step, t_stop);

  Circuit ckt("rc");
  build_rc(ckt);
  FaultInjector fi;
  fi.veto_transient(3);  // forces step halvings -> internal sub-steps
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });
  ConvergenceReport rep;
  TranOptions opts;
  opts.report = &rep;
  const auto tr = transient(ckt, t_step, t_stop, opts);

  EXPECT_GE(rep.step_halvings, 3);
  // Output contract: exactly the user grid, no sub-step points recorded.
  ASSERT_EQ(tr.time_s.size(), tr_ref.time_s.size());
  ASSERT_EQ(tr.time_s.size(), 11u);
  for (size_t k = 0; k < tr.time_s.size(); ++k) {
    EXPECT_DOUBLE_EQ(tr.time_s[k], tr_ref.time_s[k]);
  }
  // And the waveform matches the unfaulted run: sub-stepping the flat
  // interval must not bend the response.
  const NodeId out = ckt.find_node("out");
  const NodeId out_ref = ref.find_node("out");
  for (size_t k = 0; k < tr.time_s.size(); ++k) {
    EXPECT_NEAR(tr.voltage(out, k), tr_ref.voltage(out_ref, k), 1e-9);
  }
}

TEST(FaultInjection, TransientExhaustedHalvingsSurfacesError) {
  Circuit ckt("rc");
  ckt.add<VSource>("vin", ckt.node("in"), kGround, dcv(1.0));
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("out"), 1e3);
  ckt.add<Capacitor>("c1", ckt.node("out"), kGround, 1e-9);

  FaultInjector fi;
  fi.veto_transient(1000);  // more vetoes than halvings allow
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });
  try {
    transient(ckt, 1e-6, 10e-6);
    FAIL() << "expected NumericError";
  } catch (const NumericError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("transient('rc')"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Newton failed at t="), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace ape::spice

// ---------------------------------------------------------------------------
// Faults 4 & 5 live at the synthesis layer.

namespace ape::synth {
namespace {

// --- Fault 4: NaN anneal cost ------------------------------------------------

TEST(FaultInjection, NanCostIsRejectedNeverAccepted) {
  // Cost surface with a NaN trench at x in [0.5, 1.5]; minimum at x = 3.
  auto cost = [](const std::vector<double>& x) {
    if (x[0] > 0.5 && x[0] < 1.5) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return (x[0] - 3.0) * (x[0] - 3.0);
  };
  AnnealOptions opts;
  opts.iterations = 4000;
  opts.seed = 7;
  const auto r = anneal(cost, {{-5.0, 5.0}}, {0.0}, opts);
  EXPECT_GT(r.rejected_nonfinite, 0);
  EXPECT_TRUE(std::isfinite(r.best_cost));
  EXPECT_TRUE(std::isfinite(r.best_x[0]));
  EXPECT_NEAR(r.best_x[0], 3.0, 0.3);
  EXPECT_EQ(r.evaluations, opts.iterations);
}

TEST(FaultInjection, NanStartCostStillFindsFinitePoints) {
  auto cost = [](const std::vector<double>& x) {
    if (x[0] < 0.0) return std::numeric_limits<double>::quiet_NaN();
    return x[0] * x[0];
  };
  AnnealOptions opts;
  opts.iterations = 3000;
  const auto r = anneal(cost, {{-1.0, 4.0}}, {-0.5}, opts);  // starts in NaN land
  EXPECT_TRUE(std::isnan(r.start_cost));
  EXPECT_GT(r.rejected_nonfinite, 0);
  EXPECT_TRUE(std::isfinite(r.best_cost));
  EXPECT_GE(r.best_x[0], 0.0);
}

// --- RunBudget: anneal returns best-so-far at expiry -------------------------

TEST(FaultInjection, AnnealReturnsBestSoFarWhenBudgetExpires) {
  auto cost = [](const std::vector<double>& x) {
    return (x[0] - 2.0) * (x[0] - 2.0);
  };
  RunBudget budget = RunBudget::with_evaluations(50);
  ScopedBudget job(budget);
  AnnealOptions opts;
  opts.iterations = 4000;
  const auto r = anneal(cost, {{-10.0, 10.0}}, {9.0}, opts);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_LE(r.evaluations, 50);
  EXPECT_LT(r.evaluations, opts.iterations);
  // Best-so-far, not garbage: never worse than the start point.
  EXPECT_LE(r.best_cost, r.start_cost);
  EXPECT_TRUE(std::isfinite(r.best_cost));
}

TEST(FaultInjection, AnnealExpiredDeadlineStopsImmediately) {
  int calls = 0;
  auto cost = [&](const std::vector<double>& x) {
    ++calls;
    return x[0] * x[0];
  };
  RunBudget budget = RunBudget::with_deadline(0.0);
  ScopedBudget job(budget);
  AnnealOptions opts;
  opts.iterations = 100000;
  const auto r = anneal(cost, {{-1.0, 1.0}}, {0.5}, opts);
  EXPECT_TRUE(r.budget_exhausted);
  EXPECT_EQ(r.evaluations, 1);  // only the mandatory start evaluation
  EXPECT_EQ(calls, 1);
  EXPECT_DOUBLE_EQ(r.best_cost, 0.25);
}

// --- Fault 5: estimator SpecError mid-synthesis ------------------------------

TEST(FaultInjection, SpecErrorMidSynthesisIsCountedNotFatal) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.gain = 150.0;
  spec.ugf_hz = 3e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;

  spice::FaultInjector fi;
  fi.throw_spec_error_every(3);  // every 3rd candidate evaluation throws
  ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });

  SynthesisOptions opts;
  opts.use_ape_seed = true;
  opts.anneal.iterations = 60;
  SynthesisOutcome out;
  ASSERT_NO_THROW(out = synthesize_opamp(proc, spec, opts));
  EXPECT_EQ(out.evaluations, 60);
  EXPECT_EQ(out.skipped_candidates, 60 / 3);
  EXPECT_EQ(fi.counts().injected_spec_errors, 60 / 3);
  EXPECT_TRUE(std::isfinite(out.cost));
}

TEST(FaultInjection, SynthesisUnderExpiringBudgetReturnsBestSoFar) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.gain = 150.0;
  spec.ugf_hz = 3e6;
  spec.ibias = 10e-6;
  spec.cload = 10e-12;

  RunBudget budget = RunBudget::with_evaluations(30);
  ScopedBudget job(budget);
  SynthesisOptions opts;
  opts.use_ape_seed = true;
  opts.anneal.iterations = 5000;
  const auto out = synthesize_opamp(proc, spec, opts);
  EXPECT_TRUE(out.budget_exhausted);
  EXPECT_LE(out.evaluations, 30);
  EXPECT_LT(out.evaluations, opts.anneal.iterations);
  EXPECT_TRUE(std::isfinite(out.cost));
}

}  // namespace
}  // namespace ape::synth

// ---------------------------------------------------------------------------
// The supervised-recovery matrix (DESIGN.md section 10): each spice-layer
// fault site crossed with the retry-ladder rungs. A fault that clears
// after the first attempt must be recovered by the plain Retry rung, a
// longer-lived one by the Relaxed rung, and a persistent one must leave
// the job with its best-so-far synthesized outcome (never swapped for a
// bare estimate, never a crash or a hang).

namespace ape::runtime {
namespace {

/// A fault site of the simulator layer, armed on an injector. All of
/// these break the *verification* simulation of a synthesized design, so
/// they surface as sim_failed outcomes that the ladder escalates.
struct FaultSite {
  const char* name;
  void (*arm)(spice::FaultInjector&);
};

const FaultSite kEscalatingSites[] = {
    {"singular-lu", [](spice::FaultInjector& fi) { fi.fail_lu_from(0); }},
    {"poisoned-stamp",
     [](spice::FaultInjector& fi) {
       fi.poison_stamp(0, std::numeric_limits<long>::max());
     }},
    // The veto must also discard the .nodeset-seeded solve, which runs
    // before the ladders and never visits the 1e-2 rung.
    {"gmin-veto",
     [](spice::FaultInjector& fi) {
       fi.veto_seeded(1 << 20);
       fi.veto_gmin_rung(1e-2, 1 << 20);
     }},
};

est::OpAmpSpec matrix_spec() {
  est::OpAmpSpec s;
  s.gain = 150.0;
  s.ugf_hz = 3e6;
  s.ibias = 10e-6;
  s.cload = 10e-12;
  return s;
}

/// One supervised single-spec batch with the fault armed on attempts
/// [0, faulted_attempts).
OpAmpJobResult run_matrix_job(const FaultSite& site, int faulted_attempts) {
  SupervisorOptions sup;
  sup.batch.seed = 77;
  sup.batch.synth.use_ape_seed = true;
  sup.batch.synth.anneal.iterations = 60;
  sup.batch.threads = 1;
  sup.retry.plain_retries = 1;
  sup.retry.relaxed_retries = 1;
  sup.retry.estimate_fallback = true;
  sup.fault_setup = [&site, faulted_attempts](size_t, int attempt,
                                              spice::FaultInjector& fi) {
    if (attempt < faulted_attempts) site.arm(fi);
  };
  const auto r = run_supervised_opamp_batch(
      est::Process::default_1u2(), {matrix_spec()}, sup);
  return r.jobs.at(0);
}

TEST(FaultInjectionSupervised, FaultClearingAfterOneAttemptRecoversOnRetry) {
  for (const FaultSite& site : kEscalatingSites) {
    SCOPED_TRACE(site.name);
    const auto job = run_matrix_job(site, /*faulted_attempts=*/1);
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.attempts, 2);
    EXPECT_EQ(job.final_rung, RetryRung::Retry);
    EXPECT_FALSE(job.outcome.sim_failed);
    EXPECT_FALSE(job.estimate_fallback);
  }
}

TEST(FaultInjectionSupervised, FaultClearingAfterTwoAttemptsRecoversRelaxed) {
  for (const FaultSite& site : kEscalatingSites) {
    SCOPED_TRACE(site.name);
    const auto job = run_matrix_job(site, /*faulted_attempts=*/2);
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.attempts, 3);
    EXPECT_EQ(job.final_rung, RetryRung::Relaxed);
    EXPECT_FALSE(job.outcome.sim_failed);
  }
}

TEST(FaultInjectionSupervised, PersistentFaultKeepsBestSoFarNotEstimate) {
  for (const FaultSite& site : kEscalatingSites) {
    SCOPED_TRACE(site.name);
    const auto job = run_matrix_job(site, /*faulted_attempts=*/1 << 20);
    // Every verification died, but synthesis itself finished: the ladder
    // runs dry and keeps the synthesized best-so-far outcome instead of
    // discarding it for the bare estimate.
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.attempts, 3);  // initial + retry + relaxed, then stop
    EXPECT_TRUE(job.outcome.sim_failed);
    EXPECT_FALSE(job.estimate_fallback);
    EXPECT_FALSE(job.outcome.best_x.empty());
    EXPECT_EQ(job.outcome.comment, "doesn't work");
  }
}

TEST(FaultInjectionSupervised, InnerRecoveryAbsorbsFaultsWithoutEscalation) {
  // Faults the solver's own ladders absorb must never reach the retry
  // ladder: transient Newton vetoes sub-step, cost-eval SpecErrors skip
  // the candidate, and the attempt count stays at one.
  const FaultSite absorbed[] = {
      {"transient-veto",
       [](spice::FaultInjector& fi) { fi.veto_transient(1 << 20); }},
      {"cost-eval-spec-error",
       [](spice::FaultInjector& fi) { fi.throw_spec_error_every(3); }},
  };
  for (const FaultSite& site : absorbed) {
    SCOPED_TRACE(site.name);
    const auto job = run_matrix_job(site, /*faulted_attempts=*/1 << 20);
    ASSERT_TRUE(job.ok) << job.error;
    EXPECT_EQ(job.attempts, 1);
    EXPECT_EQ(job.final_rung, RetryRung::Initial);
    EXPECT_FALSE(job.outcome.sim_failed);
  }
}

TEST(FaultInjectionSupervised, StalledTransientIsKilledByTheDeadline) {
  // The "hanging spec": every transient Newton probe stalls. Unsupervised
  // this burns seconds per verification; under a deadline the job stops
  // at the next probe and reports its partial outcome.
  SupervisorOptions sup;
  sup.batch.seed = 77;
  sup.batch.synth.use_ape_seed = true;
  sup.batch.synth.anneal.iterations = 60;
  sup.batch.threads = 1;
  sup.job_timeout_s = 0.5;
  sup.fault_setup = [](size_t, int, spice::FaultInjector& fi) {
    fi.stall_transient(0.010);
  };
  const auto r = run_supervised_opamp_batch(est::Process::default_1u2(),
                                            {matrix_spec()}, sup);
  ASSERT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_TRUE(r.jobs[0].deadline_hit);
  EXPECT_EQ(r.supervision.deadline_hits, 1);
  // Bounded: well under the unsupervised stall time, above the deadline.
  EXPECT_LT(r.stats.wall_seconds, 5.0);
}

TEST(FaultInjectionSupervised, PermanentSynthFailureFallsBackToEstimate) {
  // ModuleKind::Integrator is estimable but not synthesizable: synthesis
  // throws a permanent SpecError, so the ladder jumps straight to the
  // EstimateOnly rung, which succeeds with the analytic module estimate.
  std::vector<est::ModuleSpec> specs(1);
  specs[0].kind = est::ModuleKind::Integrator;
  specs[0].gain = 10.0;
  specs[0].bw_hz = 10e3;
  SupervisorOptions sup;
  sup.batch.seed = 3;
  sup.batch.synth.anneal.iterations = 40;
  sup.batch.threads = 1;
  sup.retry.plain_retries = 2;
  sup.retry.relaxed_retries = 1;
  sup.retry.estimate_fallback = true;
  const auto r =
      run_supervised_module_batch(est::Process::default_1u2(), specs, sup);
  ASSERT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_TRUE(r.jobs[0].estimate_fallback);
  EXPECT_EQ(r.jobs[0].final_rung, RetryRung::EstimateOnly);
  // Permanent: the plain/relaxed rungs were skipped, not burned.
  EXPECT_EQ(r.jobs[0].attempts, 2);
  EXPECT_EQ(r.supervision.estimate_fallbacks, 1);
  EXPECT_FALSE(r.jobs[0].outcome.design.opamps.empty());
}

}  // namespace
}  // namespace ape::runtime
