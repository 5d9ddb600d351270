/// \file kernel_test.cpp
/// Equivalence tests for the compiled MNA kernel (src/spice/kernel.h):
/// the rewired analyses must match the pre-kernel algorithms — full
/// per-iteration restamping through virtual dispatch with a fresh
/// LuSolver per solve — to floating-point noise, across DC operating
/// points, full AC sweeps and transient waveforms on several topologies,
/// and the fault-injection probes must keep firing on the kernel path.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/spice/analysis.h"
#include "src/spice/circuit.h"
#include "src/spice/devices.h"
#include "src/spice/fault.h"
#include "src/spice/kernel.h"
#include "src/spice/noise.h"
#include "src/spice/parser.h"
#include "tests/test_models.h"

namespace ape::spice {
namespace {

Waveform dcv(double v) {
  Waveform w;
  w.dc = v;
  return w;
}

Waveform dc_ac(double dc, double ac) {
  Waveform w;
  w.dc = dc;
  w.ac_mag = ac;
  return w;
}

// ---------------------------------------------------------------------------
// Reference implementations: the pre-kernel analysis algorithms, kept
// verbatim (minus probes / reporting; plus the .nodeset Seeded plan that
// dc_operating_point tries first) as the ground truth the compiled path
// must reproduce.

bool ref_all_finite(const std::vector<double>& v) {
  for (double e : v) {
    if (!std::isfinite(e)) return false;
  }
  return true;
}

bool ref_newton_dc(Circuit& ckt, Solution& x, double gmin, double src_scale,
                   const DcOptions& opts) {
  const size_t dim = ckt.dim();
  const size_t n_nodes = ckt.num_nodes();
  MnaReal mna(dim);
  for (int iter = 0; iter < opts.max_iterations; ++iter) {
    mna.clear();
    for (const auto& dev : ckt.devices()) dev->stamp_dc(mna, x, src_scale);
    for (size_t i = 0; i < n_nodes; ++i) {
      mna.add(static_cast<NodeId>(i), static_cast<NodeId>(i), gmin);
    }
    std::vector<double> xnew;
    try {
      LuSolver<double> lu(mna.matrix());
      xnew = lu.solve(mna.rhs());
    } catch (const NumericError&) {
      return false;
    }
    if (!ref_all_finite(xnew)) return false;
    bool converged = true;
    double max_ratio = 1.0;
    for (size_t i = 0; i < n_nodes; ++i) {
      const double dv = std::fabs(xnew[i] - x.x[i]);
      if (dv > opts.vstep_limit) max_ratio = std::max(max_ratio, dv / opts.vstep_limit);
    }
    max_ratio = std::min(max_ratio, opts.max_damping_ratio);
    for (size_t i = 0; i < dim; ++i) {
      const double step = (xnew[i] - x.x[i]) / max_ratio;
      const double next = x.x[i] + step;
      const double tol = (i < n_nodes)
                             ? opts.vntol + opts.reltol * std::max(std::fabs(next), std::fabs(x.x[i]))
                             : opts.abstol + opts.reltol * std::max(std::fabs(next), std::fabs(x.x[i]));
      if (std::fabs(step) > tol) converged = false;
      x.x[i] = next;
    }
    if (converged && max_ratio == 1.0 && iter > 0) return true;
  }
  return false;
}

Solution ref_dc_operating_point(Circuit& ckt) {
  const DcOptions opts;
  ckt.finalize();
  Solution x;
  x.x.assign(ckt.dim(), 0.0);
  bool ok = false;
  if (!ckt.nodesets().empty()) {
    DcOptions seeded = opts;
    seeded.max_iterations = kSeededMaxIterations;
    for (const Circuit::NodeSet& ns : ckt.nodesets()) {
      x.x[static_cast<size_t>(ns.node)] = ns.volts;
    }
    ok = ref_newton_dc(ckt, x, opts.gmin_steps.back(), 1.0, seeded);
    if (!ok) x.x.assign(ckt.dim(), 0.0);
  }
  if (!ok) {
    ok = true;
    for (double gmin : opts.gmin_steps) {
      if (!ref_newton_dc(ckt, x, gmin, 1.0, opts)) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    x.x.assign(ckt.dim(), 0.0);
    ok = true;
    for (double s : opts.source_steps) {
      if (!ref_newton_dc(ckt, x, 1e-9, s, opts)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (double gmin : opts.gmin_steps) {
        if (!ref_newton_dc(ckt, x, gmin, 1.0, opts)) {
          ok = false;
          break;
        }
      }
    }
  }
  if (!ok) throw NumericError("ref_dc_operating_point: no convergence");
  for (const auto& dev : ckt.devices()) dev->save_op(x);
  return x;
}

AcResult ref_ac_analysis(Circuit& ckt, double f_start, double f_stop,
                         int points_per_decade) {
  AcResult out;
  const double decades = std::log10(f_stop / f_start);
  const int n = std::max(2, static_cast<int>(std::ceil(decades * points_per_decade)) + 1);
  const size_t dim = ckt.dim();
  MnaComplex mna(dim);
  for (int k = 0; k < n; ++k) {
    const double f = f_start * std::pow(10.0, decades * k / (n - 1));
    const double omega = 2.0 * M_PI * f;
    mna.clear();
    for (const auto& dev : ckt.devices()) dev->stamp_ac(mna, omega);
    for (size_t i = 0; i < ckt.num_nodes(); ++i) {
      mna.add(static_cast<NodeId>(i), static_cast<NodeId>(i), {1e-12, 0.0});
    }
    LuSolver<std::complex<double>> lu(mna.matrix());
    out.freq_hz.push_back(f);
    out.solutions.push_back(lu.solve(mna.rhs()));
  }
  return out;
}

TranResult ref_transient(Circuit& ckt, double t_step, double t_stop) {
  const TranOptions opts;
  Solution x = ref_dc_operating_point(ckt);
  TranResult out;
  out.time_s.push_back(0.0);
  out.solutions.push_back(x);
  const size_t dim = ckt.dim();
  const size_t n_nodes = ckt.num_nodes();
  MnaReal mna(dim);
  double t = 0.0;
  bool first = true;
  while (t < t_stop - 1e-15) {
    const double t_target = std::min(t + t_step, t_stop);
    double dt = t_target - t;
    int halvings = 0;
    while (t < t_target - 1e-15) {
      dt = std::min(dt, t_target - t);
      TranContext tc{dt, t + dt, first};
      Solution xc = x;
      bool converged = false;
      for (int iter = 0; iter < opts.max_iterations; ++iter) {
        mna.clear();
        for (const auto& dev : ckt.devices()) dev->stamp_tran(mna, xc, tc);
        for (size_t i = 0; i < n_nodes; ++i) {
          mna.add(static_cast<NodeId>(i), static_cast<NodeId>(i), 1e-12);
        }
        std::vector<double> xnew;
        try {
          LuSolver<double> lu(mna.matrix());
          xnew = lu.solve(mna.rhs());
        } catch (const NumericError&) {
          break;
        }
        if (!ref_all_finite(xnew)) break;
        converged = true;
        for (size_t i = 0; i < dim; ++i) {
          const double step = xnew[i] - xc.x[i];
          const double tol = opts.vntol + opts.reltol *
                                 std::max(std::fabs(xnew[i]), std::fabs(xc.x[i]));
          if (std::fabs(step) > tol) converged = false;
          xc.x[i] = xnew[i];
        }
        if (converged && iter > 0) break;
        converged = false;
      }
      if (converged) {
        for (const auto& dev : ckt.devices()) dev->accept_tran_step(xc, tc);
        x = std::move(xc);
        t += dt;
        first = false;
        continue;
      }
      if (++halvings > opts.max_step_halvings) {
        throw NumericError("ref_transient: Newton failed");
      }
      dt *= 0.5;
    }
    t = t_target;
    out.time_s.push_back(t);
    out.solutions.push_back(x);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Topologies. Each builder constructs a fresh identical circuit so the
// reference and kernel paths run on independent device state.

Circuit make_current_mirror() {
  Circuit ckt("mirror");
  const auto* m = ckt.add_model(test::nmos_card());
  ckt.add<VSource>("vdd", ckt.node("vdd"), kGround, dcv(5.0));
  ckt.add<ISource>("iref", ckt.node("vdd"), ckt.node("ref"), dc_ac(100e-6, 1.0));
  ckt.add<Mosfet>("m1", ckt.node("ref"), ckt.node("ref"), kGround, kGround, m,
                  20e-6, 2e-6);
  ckt.add<Mosfet>("m2", ckt.node("out"), ckt.node("ref"), kGround, kGround, m,
                  20e-6, 2e-6);
  ckt.add<Resistor>("rl", ckt.node("vdd"), ckt.node("out"), 10e3);
  return ckt;
}

Circuit make_sallen_key() {
  // Unity-gain VCVS Sallen-Key low-pass, f0 ~ 1.6 kHz, driven by a pulse
  // for transient and AC 1 for the sweep.
  Circuit ckt("sallen-key");
  Waveform in;
  in.kind = Waveform::Kind::Pulse;
  in.v1 = 0.0;
  in.v2 = 1.0;
  in.td = 10e-6;
  in.tr = 1e-6;
  in.tf = 1e-6;
  in.pw = 400e-6;
  in.per = 1e-3;
  in.ac_mag = 1.0;
  ckt.add<VSource>("vin", ckt.node("in"), kGround, in);
  ckt.add<Resistor>("r1", ckt.node("in"), ckt.node("a"), 10e3);
  ckt.add<Resistor>("r2", ckt.node("a"), ckt.node("b"), 10e3);
  ckt.add<Capacitor>("c1", ckt.node("a"), ckt.node("out"), 10e-9);
  ckt.add<Capacitor>("c2", ckt.node("b"), kGround, 10e-9);
  ckt.add<Vcvs>("e1", ckt.node("out"), kGround, ckt.node("b"), kGround, 1.0);
  ckt.add<Resistor>("rl", ckt.node("out"), kGround, 100e3);
  return ckt;
}

est::OpAmpDesign sized_opamp(const est::Process& proc) {
  est::OpAmpSpec spec;
  spec.gain = 1000.0;
  spec.ugf_hz = 2e6;
  spec.ibias = 5e-6;
  spec.cload = 10e-12;
  return est::OpAmpEstimator(proc).estimate(spec);
}

Circuit make_opamp_tb(est::OpAmpTb mode) {
  const est::Process proc = est::Process::default_1u2();
  return parse_netlist(sized_opamp(proc).testbench(proc, mode).netlist);
}

// Compare two solution vectors entry-wise within rtol/atol.
void expect_close(const std::vector<double>& a, const std::vector<double>& b,
                  double rtol, double atol, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const double tol = atol + rtol * std::max(std::fabs(a[i]), std::fabs(b[i]));
    EXPECT_NEAR(a[i], b[i], tol) << what << " entry " << i;
  }
}

// ---------------------------------------------------------------------------
// DC operating-point equivalence

void check_dc_equivalence(Circuit ref_ckt, Circuit ckt, const std::string& what,
                          double rtol, double atol) {
  const Solution ref = ref_dc_operating_point(ref_ckt);
  const Solution got = dc_operating_point(ckt);
  expect_close(ref.x, got.x, rtol, atol, what);
}

TEST(KernelEquivalence, DcCurrentMirror) {
  check_dc_equivalence(make_current_mirror(), make_current_mirror(),
                       "mirror dc", 1e-9, 1e-12);
}

TEST(KernelEquivalence, DcSallenKey) {
  check_dc_equivalence(make_sallen_key(), make_sallen_key(),
                       "sallen-key dc", 1e-12, 1e-15);
}

TEST(KernelEquivalence, DcTwoStageOpampTestbench) {
  check_dc_equivalence(make_opamp_tb(est::OpAmpTb::OpenLoop),
                       make_opamp_tb(est::OpAmpTb::OpenLoop),
                       "opamp dc", 1e-8, 1e-9);
}

// ---------------------------------------------------------------------------
// AC sweep equivalence (full sweeps; the kernel's fused G + jwC path
// against per-point virtual restamping)

void check_ac_equivalence(Circuit ref_ckt, Circuit ckt, double f0, double f1,
                          int ppd, const std::string& what) {
  (void)ref_dc_operating_point(ref_ckt);
  (void)dc_operating_point(ckt);
  const AcResult ref = ref_ac_analysis(ref_ckt, f0, f1, ppd);
  KernelStats ks;
  const AcResult got = ac_analysis(ckt, f0, f1, ppd, &ks);
  ASSERT_EQ(ref.freq_hz.size(), got.freq_hz.size()) << what;
  EXPECT_EQ(ks.ac_points_fused, static_cast<long>(got.freq_hz.size())) << what;
  EXPECT_EQ(ks.ac_points_virtual, 0) << what;
  for (size_t k = 0; k < ref.freq_hz.size(); ++k) {
    // The hoisted log grid accumulates multiplicatively; allow FP noise.
    EXPECT_NEAR(ref.freq_hz[k], got.freq_hz[k], 1e-10 * ref.freq_hz[k]) << what;
    ASSERT_EQ(ref.solutions[k].size(), got.solutions[k].size());
    for (size_t i = 0; i < ref.solutions[k].size(); ++i) {
      const double mag = std::max(std::abs(ref.solutions[k][i]),
                                  std::abs(got.solutions[k][i]));
      EXPECT_LE(std::abs(ref.solutions[k][i] - got.solutions[k][i]),
                1e-12 + 1e-8 * mag)
          << what << " point " << k << " entry " << i;
    }
  }
}

TEST(KernelEquivalence, AcCurrentMirror) {
  check_ac_equivalence(make_current_mirror(), make_current_mirror(), 1e2, 1e8,
                       10, "mirror ac");
}

TEST(KernelEquivalence, AcSallenKey) {
  check_ac_equivalence(make_sallen_key(), make_sallen_key(), 1.0, 1e6, 20,
                       "sallen-key ac");
}

TEST(KernelEquivalence, AcTwoStageOpampTestbench) {
  check_ac_equivalence(make_opamp_tb(est::OpAmpTb::OpenLoop),
                       make_opamp_tb(est::OpAmpTb::OpenLoop), 1.0, 1e8, 5,
                       "opamp ac");
}

// ---------------------------------------------------------------------------
// Transient waveform equivalence

void check_tran_equivalence(Circuit ref_ckt, Circuit ckt, double t_step,
                            double t_stop, double rtol, double atol,
                            const std::string& what) {
  const TranResult ref = ref_transient(ref_ckt, t_step, t_stop);
  const TranResult got = transient(ckt, t_step, t_stop);
  ASSERT_EQ(ref.time_s.size(), got.time_s.size()) << what;
  for (size_t k = 0; k < ref.time_s.size(); ++k) {
    EXPECT_DOUBLE_EQ(ref.time_s[k], got.time_s[k]) << what;
    expect_close(ref.solutions[k].x, got.solutions[k].x, rtol, atol,
                 what + " @t[" + std::to_string(k) + "]");
  }
}

TEST(KernelEquivalence, TranSallenKey) {
  check_tran_equivalence(make_sallen_key(), make_sallen_key(), 5e-6, 500e-6,
                         1e-9, 1e-12, "sallen-key tran");
}

TEST(KernelEquivalence, TranCurrentMirror) {
  check_tran_equivalence(make_current_mirror(), make_current_mirror(), 1e-6,
                         50e-6, 1e-8, 1e-10, "mirror tran");
}

TEST(KernelEquivalence, TranTwoStageOpampUnityStep) {
  check_tran_equivalence(make_opamp_tb(est::OpAmpTb::UnityStep),
                         make_opamp_tb(est::OpAmpTb::UnityStep), 1e-6, 30e-6,
                         1e-6, 1e-8, "opamp tran");
}

// ---------------------------------------------------------------------------
// Fault-injection hooks must keep firing through the compiled kernel.

TEST(KernelFaults, AssemblyPoisonStillFiresAndRecovers) {
  Circuit ckt = make_current_mirror();
  FaultInjector fi;
  fi.poison_stamp(1);  // poison the second Newton assembly with a NaN
  ScopedJobContext guard([&](JobContext& c) { c.fault_injector = &fi; });
  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  const Solution sol = dc_operating_point(ckt, opts);  // ladder recovers
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(fi.counts().assemblies, 0);
  EXPECT_EQ(fi.counts().injected_nonfinite, 1);
  EXPECT_EQ(rep.nonfinite_rejections, 1);
  EXPECT_TRUE(ref_all_finite(sol.x));
}

TEST(KernelFaults, LuSolveHookStillFiresAndRecovers) {
  Circuit ckt = make_current_mirror();
  FaultInjector fi;
  fi.fail_lu(0);  // first LU solve reports injected singularity
  ScopedJobContext guard([&](JobContext& c) { c.fault_injector = &fi; });
  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  (void)dc_operating_point(ckt, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(fi.counts().lu_solves, 0);
  EXPECT_EQ(fi.counts().injected_singular, 1);
  EXPECT_EQ(rep.lu_failures, 1);
}

TEST(KernelFaults, TransientHooksFireOnKernelPath) {
  Circuit ckt = make_sallen_key();
  FaultInjector fi;
  fi.veto_transient(2);  // forces sub-stepping through the kernel path
  ScopedJobContext guard([&](JobContext& c) { c.fault_injector = &fi; });
  ConvergenceReport rep;
  TranOptions opts;
  opts.report = &rep;
  const TranResult out = transient(ckt, 5e-6, 100e-6, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_GT(fi.counts().tran_steps, 0);
  EXPECT_GT(fi.counts().assemblies, 0);
  EXPECT_EQ(fi.counts().injected_vetoes, 2);
  EXPECT_GE(rep.step_halvings, 1);
  // The output grid is unaffected by the internal sub-stepping.
  ASSERT_GE(out.time_s.size(), 2u);
  EXPECT_DOUBLE_EQ(out.time_s[1], 5e-6);
}

// ---------------------------------------------------------------------------
// KernelStats bookkeeping

TEST(KernelStats_, DcReportCountsWorkAndStaysAllocationFree) {
  Circuit ckt = make_current_mirror();
  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  (void)dc_operating_point(ckt, opts);
  const KernelStats& ks = rep.kernel;
  // One baseline per ladder rung, one restore per Newton iteration, and
  // only the two MOSFETs restamped per iteration.
  EXPECT_EQ(ks.baseline_builds, rep.gmin_rungs_completed);
  EXPECT_EQ(ks.baseline_restores, rep.newton_iterations);
  EXPECT_EQ(ks.nonlinear_stamps, 2 * rep.newton_iterations);
  EXPECT_EQ(ks.linear_stamps_skipped, 3 * rep.newton_iterations);
  EXPECT_EQ(ks.factorizations, rep.newton_iterations);
  EXPECT_GT(ks.workspace_bytes, 0u);
  EXPECT_EQ(ks.workspace_regrowths, 0);
  EXPECT_NE(ks.summary().find("factorizations="), std::string::npos);
}

TEST(KernelStats_, AcSweepIsFusedAndAllocationFree) {
  Circuit ckt = make_sallen_key();
  (void)dc_operating_point(ckt);
  KernelStats ks;
  const AcResult ac = ac_analysis(ckt, 1.0, 1e6, 20, &ks);
  EXPECT_EQ(ks.ac_points_fused, static_cast<long>(ac.freq_hz.size()));
  EXPECT_EQ(ks.ac_points_virtual, 0);
  EXPECT_EQ(ks.factorizations, static_cast<long>(ac.freq_hz.size()));
  EXPECT_EQ(ks.workspace_regrowths, 0);
}

TEST(KernelStats_, AcKernelSplitIsExactForShippedDevices) {
  Circuit ckt = make_opamp_tb(est::OpAmpTb::OpenLoop);
  (void)dc_operating_point(ckt);
  AcKernel kern(ckt);
  EXPECT_TRUE(kern.exact_split());
}

TEST(KernelStats_, AccumulateSumsCountersAndMaxesBytes) {
  KernelStats a, b;
  a.factorizations = 3;
  a.workspace_bytes = 100;
  b.factorizations = 4;
  b.workspace_bytes = 200;
  b.ac_points_fused = 7;
  a.accumulate(b);
  EXPECT_EQ(a.factorizations, 7);
  EXPECT_EQ(a.ac_points_fused, 7);
  EXPECT_EQ(a.workspace_bytes, 200u);
}

// ---------------------------------------------------------------------------
// Sparse path equivalence: the same analyses forced through the sparse
// LU (JobContext::kernel_policy, KernelPath::ForceSparse) must match the dense
// path to <= 1e-9 relative on every topology, the sparse counters must
// prove the symbolic factorization was reused (analyses == 1, one
// refactorization per subsequent solve, zero dense fallbacks), and the
// workspace must stay allocation-free after the factor storage settles.

const KernelPolicy kForceDense{KernelPath::ForceDense};
const KernelPolicy kForceSparse{KernelPath::ForceSparse};

void check_sparse_dc(Circuit dense_ckt, Circuit sparse_ckt,
                     const std::string& what, double rtol, double atol) {
  Solution dense;
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceDense; });
    dense = dc_operating_point(dense_ckt);
  }
  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  Solution sparse;
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceSparse; });
    sparse = dc_operating_point(sparse_ckt, opts);
  }
  expect_close(dense.x, sparse.x, rtol, atol, what);
  const KernelStats& ks = rep.kernel;
  EXPECT_EQ(ks.factorizations, 0) << what;  // never rescued by dense LU
  EXPECT_EQ(ks.sparse_fallbacks, 0) << what;
  EXPECT_EQ(ks.symbolic_analyses, 1) << what;
  EXPECT_GT(ks.symbolic_reuses, 0) << what;
  // Every solve runs the numeric pass; only the first pays the analysis.
  EXPECT_EQ(ks.numeric_refactors, ks.symbolic_analyses + ks.symbolic_reuses)
      << what;
  EXPECT_EQ(ks.solves, rep.newton_iterations) << what;
  EXPECT_GT(ks.sparse_nnz, 0) << what;
  EXPECT_EQ(ks.workspace_regrowths, 0) << what;
}

TEST(SparseEquivalence, DcCurrentMirror) {
  check_sparse_dc(make_current_mirror(), make_current_mirror(),
                  "mirror sparse dc", 1e-9, 1e-12);
}

TEST(SparseEquivalence, DcSallenKey) {
  check_sparse_dc(make_sallen_key(), make_sallen_key(),
                  "sallen-key sparse dc", 1e-9, 1e-12);
}

TEST(SparseEquivalence, DcTwoStageOpampTestbench) {
  check_sparse_dc(make_opamp_tb(est::OpAmpTb::OpenLoop),
                  make_opamp_tb(est::OpAmpTb::OpenLoop),
                  "opamp sparse dc", 1e-9, 1e-9);
}

/// Dense and sparse AC sweeps of circuits whose operating points are
/// already solved, with the sparse counter contract (every point fused,
/// one symbolic analysis reused for the rest, no dense rescue, no
/// regrowth) and dense-vs-sparse agreement within 1e-9.
struct AcSweeps {
  AcResult dense, sparse;
};
void check_sparse_ac_at_op(Circuit& dense_ckt, Circuit& sparse_ckt, double f0,
                           double f1, int ppd, const std::string& what,
                           AcSweeps& out) {
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceDense; });
    out.dense = ac_analysis(dense_ckt, f0, f1, ppd);
  }
  KernelStats ks;
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceSparse; });
    out.sparse = ac_analysis(sparse_ckt, f0, f1, ppd, &ks);
  }
  const AcResult& dense = out.dense;
  const AcResult& sparse = out.sparse;
  ASSERT_EQ(dense.freq_hz.size(), sparse.freq_hz.size()) << what;
  const long n = static_cast<long>(sparse.freq_hz.size());
  EXPECT_EQ(ks.ac_points_fused, n) << what;
  EXPECT_EQ(ks.factorizations, 0) << what;
  EXPECT_EQ(ks.sparse_fallbacks, 0) << what;
  EXPECT_EQ(ks.symbolic_analyses, 1) << what;
  EXPECT_EQ(ks.symbolic_reuses, n - 1) << what;
  EXPECT_EQ(ks.workspace_regrowths, 0) << what;
  for (size_t k = 0; k < dense.freq_hz.size(); ++k) {
    ASSERT_EQ(dense.solutions[k].size(), sparse.solutions[k].size());
    for (size_t i = 0; i < dense.solutions[k].size(); ++i) {
      const double mag = std::max(std::abs(dense.solutions[k][i]),
                                  std::abs(sparse.solutions[k][i]));
      EXPECT_LE(std::abs(dense.solutions[k][i] - sparse.solutions[k][i]),
                1e-12 + 1e-9 * mag)
          << what << " point " << k << " entry " << i;
    }
  }
}

void check_sparse_ac(Circuit dense_ckt, Circuit sparse_ckt, double f0,
                     double f1, int ppd, const std::string& what) {
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceDense; });
    (void)dc_operating_point(dense_ckt);
  }
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceSparse; });
    (void)dc_operating_point(sparse_ckt);
  }
  AcSweeps sweeps;
  check_sparse_ac_at_op(dense_ckt, sparse_ckt, f0, f1, ppd, what, sweeps);
}

/// The AC solution of \p ckt (operating point cached) at \p f_hz by
/// Gaussian elimination with partial pivoting in 80-bit long double on
/// the virtually stamped system: 2^11 times finer rounding than either
/// double kernel, so it arbitrates their forward error.
std::vector<std::complex<long double>> extended_ac_solve(Circuit& ckt,
                                                         double f_hz) {
  using CL = std::complex<long double>;
  const size_t n = ckt.dim();
  MnaComplex mna(n);
  for (const auto& dev : ckt.devices()) dev->stamp_ac(mna, 2.0 * M_PI * f_hz);
  for (size_t i = 0; i < ckt.num_nodes(); ++i) {
    mna.add(static_cast<NodeId>(i), static_cast<NodeId>(i), {1e-12, 0.0});
  }
  std::vector<std::vector<CL>> a(n, std::vector<CL>(n));
  std::vector<CL> b(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) a[i][j] = CL(mna.matrix()(i, j));
    b[i] = CL(mna.rhs()[i]);
  }
  for (size_t c = 0; c < n; ++c) {
    size_t p = c;
    for (size_t r = c + 1; r < n; ++r) {
      if (std::abs(a[r][c]) > std::abs(a[p][c])) p = r;
    }
    std::swap(a[p], a[c]);
    std::swap(b[p], b[c]);
    for (size_t r = c + 1; r < n; ++r) {
      const CL f = a[r][c] / a[c][c];
      for (size_t j = c; j < n; ++j) a[r][j] -= f * a[c][j];
      b[r] -= f * b[c];
    }
  }
  std::vector<CL> x(n);
  for (size_t i = n; i-- > 0;) {
    CL acc = b[i];
    for (size_t j = i + 1; j < n; ++j) acc -= a[i][j] * x[j];
    x[i] = acc / a[i][i];
  }
  return x;
}

TEST(SparseEquivalence, AcCurrentMirror) {
  check_sparse_ac(make_current_mirror(), make_current_mirror(), 1e2, 1e8, 10,
                  "mirror sparse ac");
}

TEST(SparseEquivalence, AcSallenKey) {
  check_sparse_ac(make_sallen_key(), make_sallen_key(), 1.0, 1e6, 20,
                  "sallen-key sparse ac");
}

TEST(SparseEquivalence, AcTwoStageOpampTestbench) {
  // One ulp of operating point moves this testbench's AC sweep by up to
  // ~3e-9 relative below ~10 Hz: the small-signal gm / gds are central
  // differences of the drain current, whose rounding is not smooth in
  // the bias. Independent dense and sparse DC solves agree only to
  // rounding (DcTwoStageOpampTestbench holds them to 1e-9), so both
  // sweeps run at one operating point, and each is also held to an
  // 80-bit solve of the same system.
  Circuit ckt = make_opamp_tb(est::OpAmpTb::OpenLoop);
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceDense; });
    (void)dc_operating_point(ckt);
  }
  AcSweeps got;
  check_sparse_ac_at_op(ckt, ckt, 1.0, 1e8, 5, "opamp sparse ac", got);
  ASSERT_EQ(got.dense.freq_hz.size(), got.sparse.freq_hz.size());
  for (size_t k = 0; k < got.sparse.freq_hz.size(); ++k) {
    const auto exact = extended_ac_solve(ckt, got.sparse.freq_hz[k]);
    ASSERT_EQ(exact.size(), got.sparse.solutions[k].size());
    for (size_t i = 0; i < exact.size(); ++i) {
      const double mag = static_cast<double>(std::abs(exact[i]));
      const std::complex<long double> dense(got.dense.solutions[k][i]);
      const std::complex<long double> sparse(got.sparse.solutions[k][i]);
      EXPECT_LE(static_cast<double>(std::abs(dense - exact[i])),
                1e-12 + 1e-9 * mag)
          << "opamp dense ac point " << k << " entry " << i;
      EXPECT_LE(static_cast<double>(std::abs(sparse - exact[i])),
                1e-15 + 1e-11 * mag)
          << "opamp sparse ac point " << k << " entry " << i;
    }
  }
}

void check_sparse_tran(Circuit dense_ckt, Circuit sparse_ckt, double t_step,
                       double t_stop, double rtol, double atol,
                       const std::string& what) {
  TranResult dense;
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceDense; });
    dense = transient(dense_ckt, t_step, t_stop);
  }
  TranResult sparse;
  ConvergenceReport rep;
  TranOptions opts;
  opts.report = &rep;
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceSparse; });
    sparse = transient(sparse_ckt, t_step, t_stop, opts);
  }
  ASSERT_EQ(dense.time_s.size(), sparse.time_s.size()) << what;
  EXPECT_EQ(rep.kernel.sparse_fallbacks, 0) << what;
  EXPECT_GT(rep.kernel.symbolic_reuses, 0) << what;
  for (size_t k = 0; k < dense.time_s.size(); ++k) {
    EXPECT_DOUBLE_EQ(dense.time_s[k], sparse.time_s[k]) << what;
    expect_close(dense.solutions[k].x, sparse.solutions[k].x, rtol, atol,
                 what + " @t[" + std::to_string(k) + "]");
  }
}

TEST(SparseEquivalence, TranSallenKey) {
  check_sparse_tran(make_sallen_key(), make_sallen_key(), 5e-6, 500e-6, 1e-9,
                    1e-12, "sallen-key sparse tran");
}

TEST(SparseEquivalence, TranCurrentMirror) {
  check_sparse_tran(make_current_mirror(), make_current_mirror(), 1e-6, 50e-6,
                    1e-9, 1e-11, "mirror sparse tran");
}

TEST(SparseEquivalence, TranTwoStageOpampUnityStep) {
  check_sparse_tran(make_opamp_tb(est::OpAmpTb::UnityStep),
                    make_opamp_tb(est::OpAmpTb::UnityStep), 1e-6, 30e-6, 1e-7,
                    1e-9, "opamp sparse tran");
}

TEST(SparseEquivalence, NoiseSallenKey) {
  NoiseResult dense;
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceDense; });
    Circuit ckt = make_sallen_key();
    (void)dc_operating_point(ckt);
    dense = noise_analysis(ckt, "out", 1.0, 1e6, 10, "vin");
  }
  NoiseResult sparse;
  KernelStats ks;
  {
    ScopedJobContext guard(
        [&](JobContext& c) { c.kernel_policy = &kForceSparse; });
    Circuit ckt = make_sallen_key();
    (void)dc_operating_point(ckt);
    sparse = noise_analysis(ckt, "out", 1.0, 1e6, 10, "vin", &ks);
  }
  ASSERT_EQ(dense.freq_hz.size(), sparse.freq_hz.size());
  EXPECT_EQ(ks.factorizations, 0);
  EXPECT_EQ(ks.sparse_fallbacks, 0);
  EXPECT_EQ(ks.symbolic_analyses, 1);
  EXPECT_GT(ks.symbolic_reuses, 0);
  for (size_t k = 0; k < dense.freq_hz.size(); ++k) {
    EXPECT_LE(std::fabs(dense.out_v2[k] - sparse.out_v2[k]),
              1e-30 + 1e-9 * dense.out_v2[k])
        << "noise point " << k;
    EXPECT_LE(std::fabs(dense.in_v2[k] - sparse.in_v2[k]),
              1e-30 + 1e-9 * dense.in_v2[k])
        << "input-referred point " << k;
  }
}

// The fault-injection hooks (DESIGN.md section 10) act on the assembled
// dense MNA image that the sparse path gathers from, so poisons and
// injected singularities must keep firing — and the recovery ladder must
// keep recovering — with the sparse LU forced on.

TEST(SparseEquivalence, AssemblyPoisonFiresOnSparsePath) {
  ScopedJobContext policy(
      [&](JobContext& c) { c.kernel_policy = &kForceSparse; });
  Circuit ckt = make_current_mirror();
  FaultInjector fi;
  fi.poison_stamp(1);
  ScopedJobContext guard([&](JobContext& c) { c.fault_injector = &fi; });
  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  const Solution sol = dc_operating_point(ckt, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(fi.counts().injected_nonfinite, 1);
  EXPECT_EQ(rep.nonfinite_rejections, 1);
  EXPECT_TRUE(ref_all_finite(sol.x));
  EXPECT_GT(rep.kernel.symbolic_reuses, 0);
}

TEST(SparseEquivalence, LuSolveHookFiresOnSparsePath) {
  ScopedJobContext policy(
      [&](JobContext& c) { c.kernel_policy = &kForceSparse; });
  Circuit ckt = make_current_mirror();
  FaultInjector fi;
  fi.fail_lu(0);
  ScopedJobContext guard([&](JobContext& c) { c.fault_injector = &fi; });
  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  (void)dc_operating_point(ckt, opts);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(fi.counts().injected_singular, 1);
  EXPECT_EQ(rep.lu_failures, 1);
}

TEST(SparseEquivalence, AutoPolicyKeepsSmallTestbenchesDense) {
  // The default crossover must not move the paper's estimate testbenches
  // (dim ~15-30) off the proven dense path.
  Circuit ckt = make_opamp_tb(est::OpAmpTb::OpenLoop);
  ConvergenceReport rep;
  DcOptions opts;
  opts.report = &rep;
  (void)dc_operating_point(ckt, opts);
  EXPECT_EQ(rep.kernel.numeric_refactors, 0);
  EXPECT_EQ(rep.kernel.factorizations, rep.newton_iterations);
}

}  // namespace
}  // namespace ape::spice
