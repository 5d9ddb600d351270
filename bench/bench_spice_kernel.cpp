/// Micro-benchmark for the compiled MNA kernel (src/spice/kernel.h):
///
///  - in-place LU workspaces (factorize/solve_into) vs the old
///    allocate-a-solver-per-iteration path, over system sizes 4..256;
///  - sparse LU with reusable symbolic factorization (src/util/sparse.h)
///    vs dense LU on circuit-shaped (ladder/banded) systems — the
///    crossover table that, with the per-testbench measurements of
///    DESIGN.md section 13, made the sparse LU the kernel's only path;
///  - serial (re-factorize per RHS) vs batch (one factorization, many
///    RHS) solve scheduling, the shape the AC/noise sweeps and the AWE
///    moment recursion use;
///  - fused G + jwC assembly vs legacy per-point virtual restamping.
///
/// After the google-benchmark run, main() re-times the LU shapes with a
/// steady clock and writes machine-readable BENCH_spice_kernel.json
/// (ns/op per size, the sparse-vs-dense crossover table, and KernelStats
/// audits proving symbolic reuse + allocation-free steady state) for the
/// committed performance trajectory. `--quick` skips the google-benchmark
/// pass and shrinks the timing loops — the CI smoke job and the
/// check_bench regression gate run that mode.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_meta.h"
#include "src/spice/analysis.h"
#include "src/spice/devices.h"
#include "src/spice/kernel.h"
#include "src/util/matrix.h"
#include "src/util/sparse.h"

using namespace ape;
using namespace ape::spice;

namespace {

/// Deterministic well-conditioned test system: random-ish off-diagonals
/// from an LCG, diagonally dominant so pivoting stays cheap and no run
/// ever hits the singularity guard.
RealMatrix make_system(size_t n, std::vector<double>* rhs) {
  RealMatrix a(n, n);
  uint64_t s = 0x9e3779b97f4a7c15ull + n;
  auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return double((s >> 33) & 0xffff) / 65536.0 - 0.5;
  };
  for (size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (i != j) {
        a(i, j) = next();
        row += std::fabs(a(i, j));
      }
    }
    a(i, i) = row + 1.0;
  }
  if (rhs != nullptr) {
    rhs->resize(n);
    for (size_t i = 0; i < n; ++i) (*rhs)[i] = next();
  }
  return a;
}

/// Circuit-shaped sparse system: a tridiagonal ladder backbone plus one
/// long-range coupling every 8 rows (a feedback / bias net), diagonally
/// dominant. Dense random matrices are the sparse solver's worst case;
/// real MNA systems look like this instead, and this is the shape the
/// crossover table is measured on.
RealMatrix make_ladder_system(size_t n, std::vector<double>* rhs) {
  RealMatrix a(n, n);
  uint64_t s = 0xc6a4a7935bd1e995ull + n;
  auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return double((s >> 33) & 0xffff) / 65536.0 + 0.25;  // in [0.25, 1.25)
  };
  for (size_t i = 0; i < n; ++i) {
    double row = 0.0;
    auto couple = [&](size_t j) {
      const double v = next();
      a(i, j) = -v;
      row += v;
    };
    if (i > 0) couple(i - 1);
    if (i + 1 < n) couple(i + 1);
    if (i >= 8 && i % 8 == 0) couple(i - 8);
    a(i, i) = row + 1.0;
  }
  if (rhs != nullptr) {
    rhs->resize(n);
    for (size_t i = 0; i < n; ++i) (*rhs)[i] = next();
  }
  return a;
}

/// CSR pattern + value vector of a fully-assembled matrix (every stored
/// nonzero becomes a structural slot).
SparsePattern pattern_of(const RealMatrix& a, std::vector<double>* vals) {
  const size_t n = a.rows();
  SparsePattern p(static_cast<int>(n));
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (a(i, j) != 0.0) p.add(static_cast<int>(i), static_cast<int>(j));
    }
  }
  p.finalize();
  vals->resize(p.nnz());
  for (size_t i = 0; i < n; ++i) {
    for (int s = p.row_ptr()[i]; s < p.row_ptr()[i + 1]; ++s) {
      (*vals)[static_cast<size_t>(s)] = a(i, static_cast<size_t>(p.cols()[s]));
    }
  }
  return p;
}

/// RC ladder with an AC stimulus: pure linear circuit whose AC sweep is
/// the fused-assembly showcase; at 120+ stages (density ~0.02) it is
/// also the shape the sparse LU wins biggest on.
Circuit make_rc_ladder(int stages) {
  Circuit ckt("ladder");
  Waveform w;
  w.ac_mag = 1.0;
  ckt.add<VSource>("vin", ckt.node("n0"), kGround, w);
  for (int i = 0; i < stages; ++i) {
    const std::string a = "n" + std::to_string(i);
    const std::string b = "n" + std::to_string(i + 1);
    ckt.add<Resistor>("r" + std::to_string(i), ckt.node(a), ckt.node(b), 1e3);
    ckt.add<Capacitor>("c" + std::to_string(i), ckt.node(b), kGround, 1e-9);
  }
  return ckt;
}

}  // namespace

/// Old path: construct a fresh factorization (heap allocation) per solve.
static void BM_LuSerial_Alloc(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> b;
  const RealMatrix a = make_system(n, &b);
  for (auto _ : state) {
    LuSolver<double> lu(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_LuSerial_Alloc)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

/// Kernel path: one workspace, in-place factorize + solve_into.
static void BM_LuSerial_Workspace(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> b;
  const RealMatrix a = make_system(n, &b);
  LuSolver<double> lu;
  lu.reserve(n);
  std::vector<double> x(n);
  for (auto _ : state) {
    lu.factorize(a);
    lu.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_LuSerial_Workspace)
    ->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

/// Sparse kernel path on a circuit-shaped system: symbolic factorization
/// reused, numeric refactorization + solve per iteration (the Newton /
/// AC-sweep steady state).
static void BM_SparseLu_Refactor(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> b;
  const RealMatrix a = make_ladder_system(n, &b);
  std::vector<double> vals;
  const SparsePattern p = pattern_of(a, &vals);
  SparseLuReal slu;
  slu.factorize(p, vals);  // symbolic analysis paid once, outside the loop
  std::vector<double> x(n);
  for (auto _ : state) {
    slu.factorize(p, vals);
    slu.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseLu_Refactor)->Arg(64)->Arg(128)->Arg(256);

/// Dense reference for BM_SparseLu_Refactor on the same ladder systems.
static void BM_DenseLu_Ladder(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> b;
  const RealMatrix a = make_ladder_system(n, &b);
  LuSolver<double> lu;
  lu.reserve(n);
  std::vector<double> x(n);
  for (auto _ : state) {
    lu.factorize(a);
    lu.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DenseLu_Ladder)->Arg(64)->Arg(128)->Arg(256);

/// Serial scheduling: re-factorize for every one of 16 right-hand sides.
static void BM_LuBatch16_Refactor(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> b;
  const RealMatrix a = make_system(n, &b);
  LuSolver<double> lu;
  lu.reserve(n);
  std::vector<double> x(n);
  for (auto _ : state) {
    for (int k = 0; k < 16; ++k) {
      lu.factorize(a);
      lu.solve_into(b, x);
      benchmark::DoNotOptimize(x.data());
    }
  }
}
BENCHMARK(BM_LuBatch16_Refactor)->Arg(4)->Arg(16)->Arg(64);

/// Batch scheduling: factorize once, stream 16 right-hand sides through
/// solve_into (the noise-analysis / AWE shape).
static void BM_LuBatch16_Reuse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> b;
  const RealMatrix a = make_system(n, &b);
  LuSolver<double> lu;
  lu.reserve(n);
  std::vector<double> x(n);
  for (auto _ : state) {
    lu.factorize(a);
    for (int k = 0; k < 16; ++k) {
      lu.solve_into(b, x);
      benchmark::DoNotOptimize(x.data());
    }
  }
}
BENCHMARK(BM_LuBatch16_Reuse)->Arg(4)->Arg(16)->Arg(64);

/// Legacy AC point: full virtual restamp + gmin diagonal + fresh solver.
static void BM_AcPoint_Virtual(benchmark::State& state) {
  Circuit ckt = make_rc_ladder(10);
  (void)dc_operating_point(ckt);
  MnaComplex mna(ckt.dim());
  double omega = 1e3;
  for (auto _ : state) {
    mna.clear();
    for (const auto& dev : ckt.devices()) dev->stamp_ac(mna, omega);
    for (size_t i = 0; i < ckt.num_nodes(); ++i) {
      mna.add(static_cast<NodeId>(i), static_cast<NodeId>(i), {1e-12, 0.0});
    }
    LuSolver<std::complex<double>> lu(mna.matrix());
    benchmark::DoNotOptimize(lu.solve(mna.rhs()));
    omega *= 1.001;
  }
}
BENCHMARK(BM_AcPoint_Virtual);

/// Kernel AC point: fused G + jwC fill + in-place factorize/solve.
static void BM_AcPoint_Fused(benchmark::State& state) {
  Circuit ckt = make_rc_ladder(10);
  (void)dc_operating_point(ckt);
  AcKernel kern(ckt);
  std::vector<std::complex<double>> x(kern.dim());
  double omega = 1e3;
  for (auto _ : state) {
    kern.assemble(omega);
    kern.solve_into(x);
    benchmark::DoNotOptimize(x.data());
    omega *= 1.001;
  }
}
BENCHMARK(BM_AcPoint_Fused);

/// Sparse AC point on a 120-stage ladder (dim 122): SoA slot assembly +
/// complex sparse refactorization, the vectorized-sweep steady state.
static void BM_AcPoint_SparseLadder(benchmark::State& state) {
  Circuit ckt = make_rc_ladder(120);
  (void)dc_operating_point(ckt);
  AcKernel kern(ckt);
  std::vector<std::complex<double>> x(kern.dim());
  double omega = 1e3;
  for (auto _ : state) {
    kern.assemble(omega);
    kern.solve_into(x);
    benchmark::DoNotOptimize(x.data());
    omega *= 1.001;
  }
}
BENCHMARK(BM_AcPoint_SparseLadder);

// ---------------------------------------------------------------------------
// Machine-readable trajectory file.

namespace {

double time_ns_per_op(int iters, const std::function<void()>& op) {
  // One warmup pass, then the best of three timed repetitions.
  op();
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) op();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() / iters;
    if (ns < best) best = ns;
  }
  return best;
}

/// Iteration budget per system size; `quick` shrinks it ~10x for the CI
/// smoke job (still best-of-three, so the gate metrics stay usable).
int iters_for(size_t n, bool quick) {
  int iters;
  if (n <= 16) iters = 20000;
  else if (n <= 48) iters = 2000;
  else if (n <= 96) iters = 500;
  else if (n <= 128) iters = 100;
  else iters = 16;
  if (quick) iters = iters / 10 > 3 ? iters / 10 : 3;
  return iters;
}

/// One row of the sparse-vs-dense crossover table.
struct CrossoverRow {
  size_t n = 0;
  double dense_ns = 0.0;            ///< dense refactor + solve
  double sparse_ns = 0.0;           ///< sparse refactor + solve (symbolic reused)
  double sparse_symbolic_ns = 0.0;  ///< one-time order-and-factor cost
  size_t nnz = 0;
  size_t fill_in = 0;
  double density = 0.0;
};

CrossoverRow time_crossover(size_t n, bool quick) {
  CrossoverRow row;
  row.n = n;
  std::vector<double> b;
  const RealMatrix a = make_ladder_system(n, &b);
  std::vector<double> vals;
  const SparsePattern p = pattern_of(a, &vals);
  row.nnz = p.nnz();
  row.density = p.density();

  LuSolver<double> lu;
  lu.reserve(n);
  std::vector<double> x(n);
  const int iters = iters_for(n, quick);
  row.dense_ns = time_ns_per_op(iters, [&] {
    lu.factorize(a);
    lu.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  });

  // One-time symbolic cost: fresh solver, full order-and-factor.
  row.sparse_symbolic_ns = time_ns_per_op(quick ? 20 : 200, [&] {
    SparseLuReal fresh;
    fresh.factorize(p, vals);
    benchmark::DoNotOptimize(&fresh);
  });

  // Steady state: symbolic reused, numeric refactorization + solve.
  SparseLuReal slu;
  slu.factorize(p, vals);
  row.fill_in = slu.stats().fill_in;
  row.sparse_ns = time_ns_per_op(iters, [&] {
    slu.factorize(p, vals);
    slu.solve_into(b, x);
    benchmark::DoNotOptimize(x.data());
  });
  return row;
}

/// One audit record: the system dimension, the short key names this
/// file has always used, and every KernelStats counter.
void write_audit(json::Writer& w, const char* name, size_t dim,
                 const KernelStats& ks) {
  w.key(name)
      .begin_object()
      .field("dim", dim)
      .field("points_fused", ks.ac_points_fused)
      .field("points_virtual", ks.ac_points_virtual)
      .field("nnz", ks.sparse_nnz)
      .field("fill_in", ks.sparse_fill_in);
  ks.to_json(w);
  w.end_object();
}

int write_json(bool quick) {
  json::Writer w;
  w.begin_object();
  bench::write_meta(w);

  const size_t sizes[] = {4, 8, 16, 32, 64, 128, 256};
  w.key("lu").begin_array();
  for (size_t n : sizes) {
    std::vector<double> b;
    const RealMatrix a = make_system(n, &b);
    LuSolver<double> ws;
    ws.reserve(n);
    std::vector<double> x(n);
    const int iters = iters_for(n, quick);
    const double alloc_ns = time_ns_per_op(iters, [&] {
      LuSolver<double> lu(a);
      benchmark::DoNotOptimize(lu.solve(b));
    });
    const double workspace_ns = time_ns_per_op(iters, [&] {
      ws.factorize(a);
      ws.solve_into(b, x);
      benchmark::DoNotOptimize(x.data());
    });
    const int biters = iters / 8 > 3 ? iters / 8 : 3;
    const double batch_reuse_ns = time_ns_per_op(biters, [&] {
      ws.factorize(a);
      for (int k = 0; k < 16; ++k) {
        ws.solve_into(b, x);
        benchmark::DoNotOptimize(x.data());
      }
    });
    const double batch_refactor_ns = time_ns_per_op(biters, [&] {
      for (int k = 0; k < 16; ++k) {
        ws.factorize(a);
        ws.solve_into(b, x);
        benchmark::DoNotOptimize(x.data());
      }
    });
    w.begin_object()
        .field("n", n)
        .field("alloc_ns", alloc_ns)
        .field("workspace_ns", workspace_ns)
        .field("batch16_reuse_ns", batch_reuse_ns)
        .field("batch16_refactor_ns", batch_refactor_ns)
        .end_object();
  }
  w.end_array();

  // Sparse-vs-dense crossover on circuit-shaped (ladder/banded) systems:
  // the LU micro-benchmark behind the kernel's one sparse path. The steady
  // state compared is one numeric (re)factorization + solve per path;
  // the one-time symbolic cost is recorded separately.
  const size_t xsizes[] = {8, 16, 32, 48, 64, 96, 128, 256};
  std::printf("\n-- sparse vs dense crossover (ladder systems) --\n");
  std::printf("%6s %12s %12s %14s %8s %8s\n", "n", "dense_ns", "sparse_ns",
              "symbolic_ns", "nnz", "fill");
  w.key("crossover").begin_array();
  double dense_n64 = 0.0, sparse_n64 = 0.0, sparse_n256 = 0.0;
  size_t crossover_n = 0;
  for (size_t n : xsizes) {
    const CrossoverRow r = time_crossover(n, quick);
    std::printf("%6zu %12.1f %12.1f %14.1f %8zu %8zu\n", r.n, r.dense_ns,
                r.sparse_ns, r.sparse_symbolic_ns, r.nnz, r.fill_in);
    if (crossover_n == 0 && r.sparse_ns < r.dense_ns) crossover_n = n;
    if (n == 64) {
      dense_n64 = r.dense_ns;
      sparse_n64 = r.sparse_ns;
    }
    if (n == 256) sparse_n256 = r.sparse_ns;
    w.begin_object()
        .field("n", r.n)
        .field("dense_ns", r.dense_ns)
        .field("sparse_ns", r.sparse_ns)
        .field("sparse_symbolic_ns", r.sparse_symbolic_ns)
        .field("nnz", r.nnz)
        .field("fill_in", r.fill_in)
        .field("density", r.density)
        .field("sparse_wins", r.sparse_ns < r.dense_ns)
        .end_object();
  }
  w.end_array();
  std::printf("crossover: sparse wins from n=%zu; n=64 speedup %.2fx\n",
              crossover_n, sparse_n64 > 0.0 ? dense_n64 / sparse_n64 : 0.0);

  // Top-level scalars for the check_bench regression gate (both paths).
  w.field("dense_n64_ns", dense_n64)
      .field("sparse_n64_ns", sparse_n64)
      .field("sparse_n256_ns", sparse_n256)
      .field("sparse_speedup_n64",
             sparse_n64 > 0.0 ? dense_n64 / sparse_n64 : 0.0)
      .field("crossover_n", crossover_n);

  // AC assembly comparison + the allocation audit on a real sweep (small
  // ladder).
  Circuit ckt = make_rc_ladder(10);
  (void)dc_operating_point(ckt);
  KernelStats ks;
  {
    ScopedJobContext sink([&ks](JobContext& c) { c.kernel_sink = &ks; });
    (void)ac_analysis(ckt, 1.0, 1e6, 40);
  }
  AcKernel kern(ckt);
  std::vector<std::complex<double>> xc(kern.dim());
  const int ac_iters = quick ? 500 : 5000;
  const double fused_ns = time_ns_per_op(ac_iters, [&] {
    kern.assemble(1e4);
    kern.solve_into(xc);
    benchmark::DoNotOptimize(xc.data());
  });
  MnaComplex mna(ckt.dim());
  const double virt_ns = time_ns_per_op(ac_iters, [&] {
    mna.clear();
    for (const auto& dev : ckt.devices()) dev->stamp_ac(mna, 1e4);
    for (size_t i = 0; i < ckt.num_nodes(); ++i) {
      mna.add(static_cast<NodeId>(i), static_cast<NodeId>(i), {1e-12, 0.0});
    }
    LuSolver<std::complex<double>> lu(mna.matrix());
    benchmark::DoNotOptimize(lu.solve(mna.rhs()));
  });
  w.key("ac_point")
      .begin_object()
      .field("dim", kern.dim())
      .field("fused_ns", fused_ns)
      .field("virtual_ns", virt_ns)
      .end_object();
  write_audit(w, "ac_sweep_audit", kern.dim(), ks);

  // Sparse sweep audits on a 120-stage ladder (dim 122): the symbolic
  // factorization must be reused across every Newton iteration / AC
  // point, no replay may need a re-order, and the steady-state loops
  // must stay allocation-free (workspace_regrowths == 0) — the committed
  // JSON is the acceptance record for all three claims.
  Circuit big = make_rc_ladder(120);
  ConvergenceReport rep;
  DcOptions dopts;
  dopts.report = &rep;
  (void)dc_operating_point(big, dopts);
  write_audit(w, "sparse_dc_audit", big.dim(), rep.kernel);
  KernelStats aks;
  {
    ScopedJobContext sink([&aks](JobContext& c) { c.kernel_sink = &aks; });
    (void)ac_analysis(big, 1.0, 1e6, quick ? 10 : 40);
  }
  write_audit(w, "sparse_ac_audit", big.dim(), aks);
  w.end_object();
  std::printf("sparse dc audit: %s\n", rep.kernel.summary().c_str());
  return bench::write_record("BENCH_spice_kernel.json", w) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      for (int k = i; k + 1 < argc; ++k) argv[k] = argv[k + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!quick) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_json(quick);
}
