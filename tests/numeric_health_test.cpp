/// \file numeric_health_test.cpp
/// The numerical-health layer (DESIGN.md section 15): equilibration,
/// Hager condition estimation, iterative refinement and the recovery
/// ladder, from the substrate primitives up through DC solves of the two
/// committed badly scaled netlists and a supervised batch that lands on
/// the NumericRecovery rung.

#include "src/util/numeric_health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/estimator/opamp.h"
#include "src/lint/lint.h"
#include "src/runtime/supervisor.h"
#include "src/spice/analysis.h"
#include "src/spice/fault.h"
#include "src/spice/kernel.h"
#include "src/spice/parser.h"
#include "src/util/diagnostics.h"
#include "src/util/error.h"
#include "src/util/json.h"
#include "src/util/matrix.h"
#include "src/util/retry.h"
#include "src/util/sparse.h"

namespace ape {
namespace {

constexpr const char* kSpreadNetlist =
    APE_SOURCE_DIR "/examples/circuits/extreme_spread_divider.sp";
constexpr const char* kGminRescueNetlist =
    APE_SOURCE_DIR "/examples/circuits/bad/gmin_rescue.sp";

std::string read_file(const char* path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing committed netlist " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Sparse pattern + values from a dense matrix (the sparse_test idiom).
void from_dense(const Matrix<double>& a, SparsePattern& p,
                std::vector<double>& vals) {
  p.reset(a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      if (std::abs(a(r, c)) > 0.0) {
        p.add(static_cast<int>(r), static_cast<int>(c));
      }
    }
  }
  p.finalize();
  vals.assign(p.nnz(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
      vals[s] = a(r, static_cast<size_t>(p.cols()[s]));
    }
  }
}

/// y = A v for a dense matrix.
void dense_matvec(const Matrix<double>& a, const std::vector<double>& v,
                  std::vector<double>& y) {
  const size_t n = a.rows();
  y.assign(n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < n; ++c) acc += a(r, c) * v[c];
    y[r] = acc;
  }
}

/// The conductance-spread ladder the issue prescribes: a grounded
/// resistive chain whose branch conductances span 1e3 S down to 1e-12 S,
/// i.e. fifteen decades inside one nodal matrix (cond ~ 1e15).
Matrix<double> spread_ladder(size_t n, std::vector<double>* g_out = nullptr) {
  std::vector<double> g(n + 1, 0.0);
  for (size_t i = 0; i <= n; ++i) {
    g[i] = 1e3 * std::pow(10.0, -15.0 * double(i) / double(n));
  }
  Matrix<double> a(n, n);
  for (size_t i = 0; i < n; ++i) {
    a(i, i) = g[i] + g[i + 1];
    if (i + 1 < n) {
      a(i, i + 1) = -g[i + 1];
      a(i + 1, i) = -g[i + 1];
    }
  }
  if (g_out != nullptr) *g_out = g;
  return a;
}

// ---------------------------------------------------------------------------
// Satellite: dense and sparse singularity diagnostics share one shape.

TEST(SingularityDiagnostics, DenseAndSparseShareMessageShape) {
  Matrix<double> m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 2.0;
  m(1, 1) = 4.0;  // rank 1

  std::string dense_msg;
  try {
    LuSolver<double> lu(m);
    FAIL() << "dense LU accepted a singular matrix";
  } catch (const NumericError& e) {
    dense_msg = e.what();
  }

  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLu<double> slu;
  std::string sparse_msg;
  try {
    slu.factorize(p, vals);
    FAIL() << "sparse LU accepted a singular matrix";
  } catch (const NumericError& e) {
    sparse_msg = e.what();
  }

  // Same structured shape from both kernels (singular_message): the rung
  // classifier and the tests must never depend on which kernel ran.
  for (const std::string& msg : {dense_msg, sparse_msg}) {
    EXPECT_NE(msg.find("LU: singular pivot at step"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max|a|"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rel_tol"), std::string::npos) << msg;
  }
  // They differ only in the kernel tag.
  EXPECT_NE(dense_msg.find("dense"), std::string::npos) << dense_msg;
  EXPECT_NE(sparse_msg.find("sparse"), std::string::npos) << sparse_msg;
}

// ---------------------------------------------------------------------------
// Condition estimation: within 10x of the exact 1-norm condition number.

TEST(CondEstimate, HilbertWithinTenXOfExact) {
  // Hilbert matrices are the canonical ill-conditioned test family; n=8
  // has cond_1 ~ 3e10, well past kCondTrigger but still accurately
  // invertible enough in doubles to compute a reference.
  const size_t n = 8;
  Matrix<double> h(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      h(i, j) = 1.0 / double(i + j + 1);
    }
  }
  LuSolver<double> lu(h);

  std::vector<double> col_sums;
  const double anorm1 = norm1_dense(h.data(), n, col_sums);

  // Reference: ||A^-1||_1 column by column through the factorization.
  double inv_norm1 = 0.0;
  std::vector<double> e(n), col(n);
  for (size_t j = 0; j < n; ++j) {
    std::fill(e.begin(), e.end(), 0.0);
    e[j] = 1.0;
    lu.solve_into(e, col);
    double sum = 0.0;
    for (double v : col) sum += std::abs(v);
    inv_norm1 = std::max(inv_norm1, sum);
  }
  const double exact = anorm1 * inv_norm1;
  ASSERT_GT(exact, health::kCondTrigger);

  std::vector<double> work, tmp;
  const std::function<void(std::vector<double>&)> solve =
      [&](std::vector<double>& v) {
        tmp = v;
        lu.solve_into(tmp, v);
      };
  const std::function<void(std::vector<double>&)> solve_t =
      [&](std::vector<double>& v) {
        tmp = v;
        lu.solve_transposed_into(tmp, v);
      };
  const double est = condest_1norm<double>(n, anorm1, solve, solve_t, work);

  // Hager's estimator is a lower bound on ||A^-1||_1 in exact arithmetic
  // and empirically within a small factor; the acceptance band is 10x.
  EXPECT_GE(est, exact / 10.0);
  EXPECT_LE(est, exact * 10.0);
}

TEST(CondEstimate, WellConditionedStaysSmall) {
  const size_t n = 6;
  Matrix<double> a(n, n);
  for (size_t i = 0; i < n; ++i) {
    a(i, i) = 4.0;
    if (i + 1 < n) {
      a(i, i + 1) = -1.0;
      a(i + 1, i) = -1.0;
    }
  }
  LuSolver<double> lu(a);
  std::vector<double> col_sums, work, tmp;
  const double anorm1 = norm1_dense(a.data(), n, col_sums);
  const std::function<void(std::vector<double>&)> solve =
      [&](std::vector<double>& v) {
        tmp = v;
        lu.solve_into(tmp, v);
      };
  const std::function<void(std::vector<double>&)> solve_t =
      [&](std::vector<double>& v) {
        tmp = v;
        lu.solve_transposed_into(tmp, v);
      };
  EXPECT_LT(condest_1norm<double>(n, anorm1, solve, solve_t, work), 100.0);
}

// ---------------------------------------------------------------------------
// Equilibration + refinement on the conductance-spread ladder.

TEST(Refinement, SpreadLadderRecoversResidual) {
  const size_t n = 6;
  const Matrix<double> a = spread_ladder(n);
  std::vector<double> b(n, 0.0);
  b[0] = 1e3;  // Norton injection through the stiffest branch

  // Equilibrate a copy (powers of two: bit-exactly reversible), solve
  // the scaled system, then refine against the ORIGINAL matrix — the
  // exact algebra the kernels run.
  std::vector<double> row_scale, col_scale;
  ASSERT_TRUE(compute_equilibration(a.data(), n, row_scale, col_scale));
  Matrix<double> scaled = a;
  scale_dense(scaled.data(), n, row_scale, col_scale);
  LuSolver<double> lu(scaled);

  std::vector<double> x = b;
  scale_vector(x, row_scale);
  std::vector<double> y;
  lu.solve_into(x, y);
  x = y;
  scale_vector(x, col_scale);

  const std::function<void(const std::vector<double>&, std::vector<double>&)>
      matvec = [&](const std::vector<double>& v, std::vector<double>& out) {
        dense_matvec(a, v, out);
      };
  const std::function<void(const std::vector<double>&, std::vector<double>&)>
      correct = [&](const std::vector<double>& r, std::vector<double>& d) {
        std::vector<double> rs = r;
        scale_vector(rs, row_scale);
        lu.solve_into(rs, d);
        scale_vector(d, col_scale);
      };

  const double anorm_inf = norm_inf_dense(a.data(), n);
  std::vector<double> resid, dx, best;
  RefineOutcome out = refine_solution<double>(b, x, matvec, correct, anorm_inf,
                                              resid, dx, best);
  EXPECT_LE(out.residual, 1e-10) << "iterations=" << out.iterations;
  EXPECT_FALSE(out.diverged);

  // The solution itself must be physically right: with a 1e-12 S leak at
  // the far end, essentially the full source voltage appears there.
  EXPECT_NEAR(x[0], 1.0, 1e-6);
}

TEST(Refinement, PlainFactorizationAlsoRefines) {
  // Even without equilibration the refinement loop must drive the
  // residual to target on the spread ladder (partial pivoting keeps the
  // factors usable; refinement wins the digits back).
  const size_t n = 6;
  const Matrix<double> a = spread_ladder(n);
  std::vector<double> b(n, 0.0);
  b[0] = 1e3;
  LuSolver<double> lu(a);
  std::vector<double> x;
  lu.solve_into(b, x);
  const std::function<void(const std::vector<double>&, std::vector<double>&)>
      matvec = [&](const std::vector<double>& v, std::vector<double>& out) {
        dense_matvec(a, v, out);
      };
  const std::function<void(const std::vector<double>&, std::vector<double>&)>
      correct = [&](const std::vector<double>& r, std::vector<double>& d) {
        lu.solve_into(r, d);
      };
  std::vector<double> resid, dx, best;
  const RefineOutcome out = refine_solution<double>(
      b, x, matvec, correct, norm_inf_dense(a.data(), n), resid, dx, best);
  EXPECT_LE(out.residual, 1e-10) << "iterations=" << out.iterations;
}

TEST(Equilibration, PowerOfTwoScalingIsBitExactlyReversible) {
  const size_t n = 5;
  Matrix<double> a = spread_ladder(n);
  const Matrix<double> original = a;
  std::vector<double> row_scale, col_scale;
  ASSERT_TRUE(compute_equilibration(a.data(), n, row_scale, col_scale));
  scale_dense(a.data(), n, row_scale, col_scale);
  // Scaled matrix is O(1) in every nonzero entry.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      const double mag = std::abs(a(i, j));
      if (mag > 0.0) {
        EXPECT_LE(mag, 16.0) << i << "," << j;
      }
    }
  }
  unscale_dense(a.data(), n, row_scale, col_scale);
  for (size_t i = 0; i < n * n; ++i) {
    EXPECT_EQ(a.data()[i], original.data()[i]) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Kernel integration: DC solves of the two committed netlists.

TEST(KernelHealth, ExtremeSpreadDividerAutoTriggersRefinement) {
  spice::Circuit ckt = spice::parse_netlist(read_file(kSpreadNetlist));
  ConvergenceReport report;
  spice::DcOptions opts;
  opts.report = &report;
  const spice::Solution sol = spice::dc_operating_point(ckt, opts);
  EXPECT_TRUE(report.converged);

  // Equal-gigaohm divider hanging off the stiff 'mid' node: half the
  // source voltage appears at 'out' (the solver's 1e-12 S gmin floor
  // shifts it by ~0.05%).
  EXPECT_NEAR(spice::node_voltage(ckt, sol, "out"), 0.5, 1e-2);
  EXPECT_NEAR(spice::node_voltage(ckt, sol, "mid"), 1.0, 1e-6);

  // Ambient Auto mode must have noticed the fifteen-decade spread on its
  // own: condition estimated, refinement run, residual at target.
  EXPECT_GT(report.kernel.refinement_solves, 0) << report.kernel.summary();
  EXPECT_GT(report.health.cond_estimate, health::kCondTrigger)
      << report.health.summary();
  EXPECT_GT(report.health.residual_norm, 0.0);
  EXPECT_LE(report.health.residual_norm, 1e-9) << report.health.summary();
}

TEST(KernelHealth, GminRescueNetlistFailsLintButSolves) {
  const std::string text = read_file(kGminRescueNetlist);

  // The negative control: lint must flag the capacitor-only island...
  const lint::Report lint_rep = lint::lint_netlist(text);
  bool found_l004 = false;
  for (const auto& f : lint_rep.findings) found_l004 |= (f.rule == "APE-L004");
  EXPECT_TRUE(found_l004) << lint_rep.summary();

  // ...and the DC solve must still land: the gmin floor of the ladder
  // holds the floating sense node (the "rescued by gmin" fixture).
  spice::Circuit ckt = spice::parse_netlist(text);
  ConvergenceReport report;
  spice::DcOptions opts;
  opts.report = &report;
  const spice::Solution sol = spice::dc_operating_point(ckt, opts);
  EXPECT_TRUE(report.converged);
  EXPECT_NEAR(spice::node_voltage(ckt, sol, "out"), 0.5, 1e-6);
  for (double v : sol.x) EXPECT_TRUE(std::isfinite(v));
}

TEST(KernelHealth, ForcedModeRecordsFullRecord) {
  // The NumericRecovery rung runs every solve under Force: equilibration
  // applied, condition estimated, refinement always on, and the full
  // record lands in the report.
  spice::Circuit ckt = spice::parse_netlist(read_file(kSpreadNetlist));
  ConvergenceReport report;
  spice::DcOptions opts;
  opts.report = &report;
  ScopedJobContext force(
      [](JobContext& c) { c.health_mode = NumericHealthMode::Force; });
  (void)spice::dc_operating_point(ckt, opts);
  EXPECT_TRUE(report.health.equilibrated) << report.health.summary();
  EXPECT_GT(report.health.cond_estimate, 0.0);
  EXPECT_GT(report.kernel.refinement_solves, 0);
  EXPECT_GT(report.kernel.equilibrated_solves, 0);
  EXPECT_LE(report.health.residual_norm, 1e-9) << report.health.summary();
}

// ---------------------------------------------------------------------------
// The recovery ladder end-to-end: a supervised mini-batch over the two
// committed netlists whose first attempt is sabotaged, so every job must
// climb to the NumericRecovery rung; the per-job JSON records the rung
// and the final relative residual.

TEST(RecoveryLadder, SupervisedNetlistBatchRecordsRungAndResidual) {
  const std::vector<std::string> netlists = {read_file(kSpreadNetlist),
                                             read_file(kGminRescueNetlist)};
  RetryPolicy policy;
  policy.numeric_recovery_retries = 1;

  std::string batch_json = "[";
  for (size_t job = 0; job < netlists.size(); ++job) {
    bool ok = false;
    int attempt = 0;
    RetryRung rung = RetryRung::Initial;
    ConvergenceReport report;
    while (!ok) {
      rung = policy.rung(attempt);
      ASSERT_NE(rung, RetryRung::Fail) << "job " << job << " ran out of ladder";
      spice::FaultInjector fi;
      if (attempt == 0) fi.fail_lu_from(0);  // sabotage the initial attempt
      ScopedJobContext scoped([&](JobContext& c) {
        c.fault_injector = &fi;
        if (rung == RetryRung::NumericRecovery) {
          c.health_mode = NumericHealthMode::Force;
        }
      });
      try {
        spice::Circuit ckt = spice::parse_netlist(netlists[job]);
        spice::DcOptions opts;
        opts.report = &report;
        (void)spice::dc_operating_point(ckt, opts);
        ok = true;
      } catch (const NumericError& e) {
        ASSERT_EQ(policy.next_rung(e.klass(), attempt),
                  RetryRung::NumericRecovery)
            << e.what();
        ++attempt;
      }
    }
    // Exactly the supervised shape: sabotage on Initial, rescue on the
    // NumericRecovery rung.
    EXPECT_EQ(rung, RetryRung::NumericRecovery) << "job " << job;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s{\"job\":%zu,\"rung\":\"%s\",\"residual\":%.17g}",
                  job == 0 ? "" : ",", job, to_string(rung),
                  report.health.residual_norm);
    batch_json += buf;
  }
  batch_json += ']';

  // The job JSON must carry the rung used and a residual at target.
  const json::Value doc = json::parse(batch_json);
  ASSERT_EQ(doc.kind, json::Value::Kind::Array);
  ASSERT_EQ(doc.items.size(), netlists.size());
  for (const json::Value& jv : doc.items) {
    EXPECT_EQ(jv.find("rung")->as_string(), "numeric-recovery");
    const double residual = jv.find("residual")->as_number();
    EXPECT_GT(residual, 0.0);
    EXPECT_LE(residual, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// The real supervised batch: a job whose first attempt dies on an
// injected singular LU escalates to the NumericRecovery rung and lands.

TEST(RecoveryLadder, SupervisedOpAmpBatchUsesNumericRecoveryRung) {
  const est::Process proc = est::Process::default_1u2();
  std::vector<est::OpAmpSpec> specs(1);
  specs[0].gain = 120.0;
  specs[0].ugf_hz = 2e6;
  specs[0].ibias = 10e-6;
  specs[0].cload = 10e-12;

  runtime::SupervisorOptions sup;
  sup.batch.seed = 2026;
  sup.batch.threads = 1;
  sup.batch.synth.use_ape_seed = true;
  sup.batch.synth.anneal.iterations = 120;
  sup.retry.plain_retries = 0;
  sup.retry.numeric_recovery_retries = 1;
  sup.retry.relaxed_retries = 1;
  sup.fault_setup = [](size_t, int attempt, spice::FaultInjector& fi) {
    if (attempt == 0) fi.fail_lu_from(0);  // initial attempt dies
  };
  const auto r = runtime::run_supervised_opamp_batch(proc, specs, sup);
  ASSERT_EQ(r.jobs.size(), 1u);
  EXPECT_TRUE(r.jobs[0].ok) << r.jobs[0].error;
  EXPECT_EQ(r.jobs[0].final_rung, RetryRung::NumericRecovery)
      << to_string(r.jobs[0].final_rung);
  EXPECT_GE(r.supervision.numeric_recovery_attempts, 1);
  EXPECT_EQ(r.jobs[0].attempts, 2);
}

// ---------------------------------------------------------------------------
// The AC monitor must not raise false alarms. The unscaled pivot proxy
// trips on every healthy opamp sweep (G next to jwC over many decades),
// so in Auto mode a tripped AC factorization runs no condition estimate:
// each solve checks its own residual and only a miss refines.

/// Open-loop, common-mode and Zout sweeps of every Table 1 APE design,
/// over the ranges simulate_opamp uses.
struct AcBench {
  std::string name;
  std::string netlist;
  double f0, f1;
  int ppd;
};

std::vector<AcBench> table1_ac_benches() {
  const est::Process proc = est::Process::default_1u2();
  const est::OpAmpEstimator oe(proc);
  std::vector<AcBench> out;
  for (const auto& row : bench::table1_specs()) {
    const est::OpAmpDesign d = oe.estimate(bench::to_spec(row));
    const std::string name = row.name;
    out.push_back({name + " open-loop",
                   d.testbench(proc, est::OpAmpTb::OpenLoop).netlist, 1.0, 1e9,
                   20});
    out.push_back({name + " common-mode",
                   d.testbench(proc, est::OpAmpTb::CommonMode).netlist, 1.0,
                   1e3, 5});
    out.push_back({name + " zout",
                   d.testbench(proc, est::OpAmpTb::ZoutProbe).netlist, 1.0,
                   10.0, 5});
  }
  return out;
}

spice::AcResult sweep_in_mode(spice::Circuit& ckt, const AcBench& b,
                              NumericHealthMode mode, KernelStats* ks) {
  ScopedJobContext scope([mode, ks](JobContext& c) {
    c.health_mode = mode;
    c.kernel_sink = ks;
  });
  return spice::ac_analysis(ckt, b.f0, b.f1, b.ppd);
}

TEST(AcHealthGate, HealthyTable1SweepsRunNoConditionEstimateNorRefinement) {
  for (const AcBench& b : table1_ac_benches()) {
    SCOPED_TRACE(b.name);
    spice::Circuit ckt = spice::parse_netlist(b.netlist);
    (void)spice::dc_operating_point(ckt);
    KernelStats autos, offs;
    const spice::AcResult got =
        sweep_in_mode(ckt, b, NumericHealthMode::Auto, &autos);
    const spice::AcResult off =
        sweep_in_mode(ckt, b, NumericHealthMode::Off, &offs);
    EXPECT_EQ(autos.cond_estimate_max, 0.0) << autos.summary();
    EXPECT_EQ(autos.refinement_solves, 0) << autos.summary();
    // The row-scaled trigger stays quiet, so no solve measured a residual.
    EXPECT_EQ(autos.residual_norm_max, 0.0) << autos.summary();
    EXPECT_EQ(autos.factorizations, offs.factorizations);
    ASSERT_EQ(got.solutions.size(), off.solutions.size());
    for (size_t k = 0; k < got.solutions.size(); ++k) {
      EXPECT_EQ(got.solutions[k], off.solutions[k]) << "point " << k;
    }
  }
}

/// A VCCS network whose nodal matrix is Wilkinson's growth matrix (unit
/// diagonal, -1 below it, +1 in the last column), driven at every node:
/// partial pivoting keeps the diagonal pivots and the last column doubles
/// at every step, so the unrefined LU solve misses the residual target by
/// orders of magnitude.
std::string growth_netlist(int n) {
  std::string net = "wilkinson growth\n";
  // Sources and resistors first, so node k is MNA row k.
  for (int i = 0; i < n; ++i) {
    const std::string k = std::to_string(i);
    net += "I" + k + " 0 n" + k + " AC " + std::to_string(1 + i * 7 % 5) + "\n";
    net += "Rn" + k + " n" + k + " 0 1\n";
  }
  for (int i = 0; i < n; ++i) {
    const std::string ni = "n" + std::to_string(i);
    for (int j = 0; j < i; ++j) {
      net += "G" + std::to_string(i) + "_" + std::to_string(j) + " " + ni +
             " 0 n" + std::to_string(j) + " 0 -1\n";
    }
    if (i + 1 < n) {
      net += "Gc" + std::to_string(i) + " " + ni + " 0 n" +
             std::to_string(n - 1) + " 0 1\n";
    }
  }
  return net;
}

TEST(AcHealthGate, AutoStillRefinesASolveThatMissesTheResidualTarget) {
  const AcBench b{"growth", growth_netlist(40), 1e3, 1e4, 2};
  spice::Circuit ckt = spice::parse_netlist(b.netlist);
  (void)spice::dc_operating_point(ckt);
  spice::FaultInjector fi;  // counts refinement probes, injects nothing
  KernelStats ks;
  {
    ScopedJobContext scope([&](JobContext& c) { c.fault_injector = &fi; });
    (void)sweep_in_mode(ckt, b, NumericHealthMode::Auto, &ks);
  }
  const long points = ks.ac_points_fused + ks.ac_points_virtual;
  ASSERT_GT(points, 0);
  EXPECT_EQ(ks.refinement_solves, points) << ks.summary();
  EXPECT_EQ(fi.counts().refinements, points);
  EXPECT_GT(ks.refinement_iterations, 0) << ks.summary();
  // Refinement only runs on a missed target, and lands every point.
  EXPECT_LE(ks.residual_norm_max, health::kResidualTarget) << ks.summary();
  EXPECT_EQ(ks.cond_estimate_max, 0.0) << "Auto AC runs no Hager estimate";
}

TEST(AcHealthGate, ForceStillEstimatesConditionAndRefines) {
  const AcBench b = table1_ac_benches().front();
  spice::Circuit ckt = spice::parse_netlist(b.netlist);
  (void)spice::dc_operating_point(ckt);
  KernelStats ks;
  (void)sweep_in_mode(ckt, b, NumericHealthMode::Force, &ks);
  EXPECT_GT(ks.cond_estimate_max, 0.0) << ks.summary();
  EXPECT_EQ(ks.refinement_solves, ks.ac_points_fused) << ks.summary();
}

}  // namespace
}  // namespace ape
