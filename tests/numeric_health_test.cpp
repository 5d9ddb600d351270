/// \file numeric_health_test.cpp
/// The numerical-health layer (DESIGN.md section 15): equilibration,
/// Hager condition estimation, iterative refinement and the recovery
/// ladder, from the substrate primitives up through DC solves of the two
/// committed badly scaled netlists and a supervised batch that lands on
/// the NumericRecovery rung.

#include "src/util/numeric_health.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
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

/// y = A v for a CSR matrix.
void csr_matvec(const SparsePattern& p, const std::vector<double>& vals,
                const std::vector<double>& v, std::vector<double>& y) {
  y.assign(p.n(), 0.0);
  for (size_t r = 0; r < p.n(); ++r) {
    double acc = 0.0;
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
      acc += vals[s] * v[p.cols()[s]];
    }
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

  SparsePattern p;
  std::vector<double> vals, col_sums;
  from_dense(h, p, vals);
  const double anorm1 =
      norm1_csr(p.row_ptr().data(), p.cols().data(), vals.data(), n, col_sums);

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
  SparsePattern p;
  std::vector<double> vals, col_sums, work, tmp;
  from_dense(a, p, vals);
  const double anorm1 =
      norm1_csr(p.row_ptr().data(), p.cols().data(), vals.data(), n, col_sums);
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
  SparsePattern p;
  std::vector<double> vals;
  from_dense(spread_ladder(n), p, vals);
  const int* rp = p.row_ptr().data();
  const int* cols = p.cols().data();
  std::vector<double> b(n, 0.0);
  b[0] = 1e3;  // Norton injection through the stiffest branch

  // Equilibrate a copy of the slot values (powers of two: bit-exactly
  // reversible), solve the scaled system, then refine against the
  // ORIGINAL values — the exact algebra the kernel runs.
  std::vector<double> row_scale, col_scale;
  ASSERT_TRUE(compute_equilibration_csr(rp, cols, vals.data(), n, row_scale, col_scale));
  std::vector<double> scaled = vals;
  scale_csr(rp, cols, scaled.data(), n, row_scale, col_scale);
  SparseLu<double> lu;
  lu.factorize(p, scaled);

  std::vector<double> x = b;
  scale_vector(x, row_scale);
  std::vector<double> y;
  lu.solve_into(x, y);
  x = y;
  scale_vector(x, col_scale);

  const auto matvec = [&](const std::vector<double>& v, std::vector<double>& out) {
    csr_matvec(p, vals, v, out);
  };
  const auto correct = [&](const std::vector<double>& r, std::vector<double>& d) {
    std::vector<double> rs = r;
    scale_vector(rs, row_scale);
    lu.solve_into(rs, d);
    scale_vector(d, col_scale);
  };

  const double anorm_inf = norm_inf_csr(rp, vals.data(), n);
  std::vector<double> resid, dx, best;
  const double r0 = relative_residual(b, x, matvec, anorm_inf, resid);
  const RefineOutcome out =
      refine_from(r0, b, x, matvec, correct, anorm_inf, resid, dx, best);
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
  SparsePattern p;
  std::vector<double> vals;
  from_dense(a, p, vals);
  std::vector<double> b(n, 0.0);
  b[0] = 1e3;
  LuSolver<double> lu(a);
  std::vector<double> x;
  lu.solve_into(b, x);
  const auto matvec = [&](const std::vector<double>& v, std::vector<double>& out) {
    csr_matvec(p, vals, v, out);
  };
  const auto correct = [&](const std::vector<double>& r, std::vector<double>& d) {
    lu.solve_into(r, d);
  };
  const double anorm_inf = norm_inf_csr(p.row_ptr().data(), vals.data(), n);
  std::vector<double> resid, dx, best;
  const double r0 = relative_residual(b, x, matvec, anorm_inf, resid);
  const RefineOutcome out =
      refine_from(r0, b, x, matvec, correct, anorm_inf, resid, dx, best);
  EXPECT_LE(out.residual, 1e-10) << "iterations=" << out.iterations;
}

TEST(Equilibration, PowerOfTwoScalingIsBitExactlyReversible) {
  const size_t n = 5;
  SparsePattern p;
  std::vector<double> vals;
  from_dense(spread_ladder(n), p, vals);
  const int* rp = p.row_ptr().data();
  const int* cols = p.cols().data();
  const std::vector<double> original = vals;
  std::vector<double> row_scale, col_scale;
  ASSERT_TRUE(compute_equilibration_csr(rp, cols, vals.data(), n, row_scale, col_scale));
  scale_csr(rp, cols, vals.data(), n, row_scale, col_scale);
  // Scaled matrix is O(1) in every nonzero entry.
  for (size_t s = 0; s < vals.size(); ++s) {
    EXPECT_LE(std::abs(vals[s]), 16.0) << "slot " << s;
  }
  // The inverse of a power of two is exact, so scaling back by the
  // inverses restores every bit.
  std::vector<double> inv_row = row_scale, inv_col = col_scale;
  for (double& v : inv_row) v = 1.0 / v;
  for (double& v : inv_col) v = 1.0 / v;
  scale_csr(rp, cols, vals.data(), n, inv_row, inv_col);
  for (size_t s = 0; s < vals.size(); ++s) {
    EXPECT_EQ(vals[s], original[s]) << "slot " << s;
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

// ---------------------------------------------------------------------------
// Bitwise pins of the health paths: every value below was recorded from
// the kernel before the two workspaces shared one refinement path, and is
// compared exactly (hex floats keep every bit, the sign of zero included).

/// Exact text of a double.
std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string pin_health(const NumericHealth& h) {
  return "cond=" + hex(h.cond_estimate) + " growth=" + hex(h.pivot_growth) +
         " resid=" + hex(h.residual_norm) +
         " iters=" + std::to_string(h.refinement_iterations) +
         " eq=" + std::to_string(h.equilibrated) +
         " rec=" + std::to_string(h.recovered);
}

std::string pin_stats(const KernelStats& k) {
  return "fact=" + std::to_string(k.factorizations) +
         " solves=" + std::to_string(k.solves) +
         " rsolves=" + std::to_string(k.refinement_solves) +
         " riters=" + std::to_string(k.refinement_iterations) +
         " eqsolves=" + std::to_string(k.equilibrated_solves) +
         " recov=" + std::to_string(k.numeric_recoveries) +
         " condmax=" + hex(k.cond_estimate_max) +
         " growthmax=" + hex(k.pivot_growth_max) +
         " residmax=" + hex(k.residual_norm_max);
}

/// DC of the committed extreme-spread divider in \p mode with \p fi
/// installed: the solution, the final solve's health and the counters.
std::string pin_spread_dc(NumericHealthMode mode, spice::FaultInjector& fi) {
  spice::Circuit ckt = spice::parse_netlist(read_file(kSpreadNetlist));
  ConvergenceReport report;
  spice::DcOptions opts;
  opts.report = &report;
  ScopedJobContext scope([&](JobContext& c) {
    c.health_mode = mode;
    c.fault_injector = &fi;
  });
  const spice::Solution sol = spice::dc_operating_point(ckt, opts);
  std::string x = "x=";
  for (double v : sol.x) x += hex(v) + ",";
  return x + " | " + pin_health(report.health) + " | " + pin_stats(report.kernel);
}

/// AC sweep of \p b in \p mode: an FNV-1a digest of every bit of the
/// response, then the sweep's counters.
std::string pin_ac(const AcBench& b, NumericHealthMode mode) {
  spice::Circuit ckt = spice::parse_netlist(b.netlist);
  (void)spice::dc_operating_point(ckt);
  KernelStats ks;
  const spice::AcResult r = sweep_in_mode(ckt, b, mode, &ks);
  uint64_t h = 1469598103934665603ull;
  for (const auto& sol : r.solutions) {
    for (const std::complex<double>& z : sol) {
      for (double part : {z.real(), z.imag()}) {
        uint64_t bits = 0;
        std::memcpy(&bits, &part, sizeof bits);
        for (int i = 0; i < 8; ++i) {
          h = (h ^ ((bits >> (8 * i)) & 0xffu)) * 1099511628211ull;
        }
      }
    }
  }
  char digest[24];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(h));
  return "points=" + std::to_string(r.solutions.size()) + " digest=" + digest +
         " | " + pin_stats(ks);
}

TEST(KernelHealth, OutcomesArePinnedBitwise) {
  {
    spice::FaultInjector none;
    EXPECT_EQ(pin_spread_dc(NumericHealthMode::Auto, none),
              "x=0x1p+0,0x1.fffffffffee5dp-1,0x1.ffbe7f2b1c322p-2,-0x1.142p-31, | "
              "cond=0x1.d1a94a27d3002p+39 growth=0x1p+0 resid=0x1.928a05da09a1cp-56 "
              "iters=0 eq=0 rec=0 | "
              "fact=23 solves=23 rsolves=10 riters=0 eqsolves=0 recov=0 "
              "condmax=0x1.d1a94a27d3002p+39 growthmax=0x1p+0 "
              "residmax=0x1.928a05da09a1cp-56") << "spread DC, Auto";
  }
  {
    spice::FaultInjector none;
    EXPECT_EQ(pin_spread_dc(NumericHealthMode::Force, none),
              "x=0x1p+0,0x1.fffffffffee5dp-1,0x1.ffbe7f2b1c322p-2,-0x1.142p-31, | "
              "cond=0x1.d1a94a27d3002p+39 growth=0x1p+0 resid=0x1.928a05da09a1cp-56 "
              "iters=0 eq=1 rec=0 | "
              "fact=23 solves=23 rsolves=23 riters=0 eqsolves=23 recov=0 "
              "condmax=0x1.d1a94a27d3002p+39 growthmax=0x1p+0 "
              "residmax=0x1.928a05da09a1cp-56") << "spread DC, Force";
  }
  {
    spice::FaultInjector fi;
    fi.refine_diverge(0, 1);
    EXPECT_EQ(pin_spread_dc(NumericHealthMode::Auto, fi),
              "x=0x1p+0,0x1.fffffffffee5dp-1,0x1.ffbe7f2b1c322p-2,-0x1.142p-31, | "
              "cond=0x1.d1a94a27d3002p+39 growth=0x1p+0 resid=0x1.928a05da09a1cp-56 "
              "iters=0 eq=1 rec=1 | "
              "fact=24 solves=24 rsolves=10 riters=0 eqsolves=1 recov=1 "
              "condmax=0x1.d1a94a27d3002p+39 growthmax=0x1p+0 "
              "residmax=0x1.928a05da09a1cp-56")
        << "spread DC, Auto, refine_diverge";
    EXPECT_EQ(fi.counts().injected_refine_diverge, 1);
  }
  {
    spice::FaultInjector fi;
    fi.equilibrate_overflow(0, 1000);
    EXPECT_EQ(pin_spread_dc(NumericHealthMode::Force, fi),
              "x=0x1p+0,0x1.fffffffffee5dp-1,0x1.ffbe7f2b1c322p-2,-0x1.142p-31, | "
              "cond=0x1.d1a94a27d3002p+39 growth=0x1p+0 resid=0x1.928a05da09a1cp-56 "
              "iters=0 eq=0 rec=0 | "
              "fact=23 solves=23 rsolves=23 riters=0 eqsolves=0 recov=0 "
              "condmax=0x1.d1a94a27d3002p+39 growthmax=0x1p+0 "
              "residmax=0x1.928a05da09a1cp-56")
        << "spread DC, Force, equilibrate_overflow";
    EXPECT_GT(fi.counts().injected_equilibrate_overflow, 0);
  }
  {
    spice::FaultInjector fi;
    fi.cond_estimate_fail(0, 1000);
    EXPECT_EQ(pin_spread_dc(NumericHealthMode::Auto, fi),
              "x=0x1p+0,0x1.fffffffffee5dp-1,0x1.ffbe7f2b1c322p-2,-0x1.142p-31, | "
              "cond=inf growth=0x1p+0 resid=0x1.928a05da09a1cp-56 "
              "iters=0 eq=0 rec=0 | "
              "fact=23 solves=23 rsolves=10 riters=0 eqsolves=0 recov=0 condmax=inf "
              "growthmax=0x1p+0 residmax=0x1.928a05da09a1cp-56")
        << "spread DC, Auto, cond_estimate_fail";
    EXPECT_GT(fi.counts().injected_cond_fails, 0);
  }
  EXPECT_EQ(pin_ac(table1_ac_benches().front(), NumericHealthMode::Force),
              "points=181 digest=3c18024641bb1039 | "
              "fact=181 solves=181 rsolves=181 riters=0 eqsolves=181 recov=0 "
              "condmax=0x1.89c17cb9a9981p+66 growthmax=0x1.276c5d0fd088p+3 "
              "residmax=0x1.830908db82b03p-77")
      << "Table 1 open-loop AC, Force";
  EXPECT_EQ(pin_ac({"growth", growth_netlist(40), 1e3, 1e4, 2}, NumericHealthMode::Auto),
              "points=3 digest=a8bcee246fe6b0e5 | "
              "fact=3 solves=3 rsolves=3 riters=3 eqsolves=0 recov=0 condmax=0x0p+0 "
              "growthmax=0x1.ffffffffd404p+37 residmax=0x1.615313db4eedp-58")
      << "Wilkinson growth AC, Auto";
  {
    // The same network driven at DC: the growth trigger runs Hager's
    // estimate and refinement with correction steps on a real system.
    std::string net = growth_netlist(40);
    for (size_t at = net.find(" AC "); at != std::string::npos; at = net.find(" AC ", at)) {
      net.replace(at, 4, " DC ");
    }
    spice::Circuit ckt = spice::parse_netlist(net);
    ConvergenceReport report;
    spice::DcOptions opts;
    opts.report = &report;
    const spice::Solution sol = spice::dc_operating_point(ckt, opts);
    std::string got = "x=";
    for (double v : sol.x) got += hex(v) + ",";
    got += " | " + pin_health(report.health) + " | " + pin_stats(report.kernel);
    EXPECT_EQ(got,
              "x=-0x1.318c6318c74edp+0,-0x1.8c6318c63e026p-2,0x1.39ce739cdf38dp+0,"
              "-0x1.18c6318c7f35cp-1,0x1.ce739ce6fe62fp-1,-0x1.318c6318ff4ecp+0,"
              "-0x1.8c6318c7fe026p-2,0x1.39ce739bff38dp+0,-0x1.18c6318fff35ep-1,"
              "0x1.ce739cdffe62fp-1,-0x1.318c631fff4ecp+0,-0x1.8c6318fffe026p-2,"
              "0x1.39ce737fff38dp+0,-0x1.18c631ffff35dp-1,0x1.ce739bfffe62fp-1,"
              "-0x1.318c63ffff4ecp+0,-0x1.8c631ffffe026p-2,0x1.39ce6fffff38dp+0,"
              "-0x1.18c63fffff35dp-1,0x1.ce737ffffe62fp-1,-0x1.318c7fffff4ecp+0,"
              "-0x1.8c63fffffe027p-2,0x1.39cdffffff38dp+0,-0x1.18c7ffffff35dp-1,"
              "0x1.ce6ffffffe62ep-1,-0x1.318fffffff4edp+0,-0x1.8c7ffffffe02cp-2,"
              "0x1.39bfffffff38ap+0,-0x1.18ffffffff367p-1,0x1.cdfffffffe621p-1,"
              "-0x1.31ffffffff4f6p+0,-0x1.8ffffffffe057p-2,0x1.37ffffffff385p+0,"
              "-0x1.1fffffffff33fp-1,0x1.bffffffffe6ebp-1,-0x1.3fffffffff3b1p+0,"
              "-0x1.fffffffffd24ep-2,0x1.ffffffffff8e6p-1,-0x1.fffffffffc7dp-1,"
              "0x1.18c6318c644f6p+1, | "
              "cond=0x1.40147ae147a65p+5 growth=0x1.ffffffffd404p+37 "
              "resid=0x1.606398d2d3b3cp-56 iters=25 eq=0 rec=0 | "
              "fact=25 solves=25 rsolves=25 riters=25 eqsolves=0 recov=0 "
              "condmax=0x1.40147ae147a65p+5 growthmax=0x1.ffffffffd404p+37 "
              "residmax=0x1.606398d2d3b3cp-56") << "Wilkinson growth DC, Auto";
  }
}

}  // namespace
}  // namespace ape
