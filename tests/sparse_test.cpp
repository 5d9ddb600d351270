#include "src/util/sparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <random>

#include "src/util/matrix.h"

namespace ape {
namespace {

/// Build a finalized pattern + slot values from a dense matrix, keeping
/// every entry whose |value| > 0 plus any slots in \p extra (structural
/// slots that happen to be zero right now, like a cutoff MOSFET's gm).
template <typename T>
void from_dense(const Matrix<T>& a, SparsePattern& p, std::vector<T>& vals,
                const std::vector<std::pair<int, int>>& extra = {}) {
  p.reset(a.rows());
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) {
      const double mag = std::abs(a(r, c));
      if (mag > 0.0 || !std::isfinite(mag)) p.add(static_cast<int>(r), static_cast<int>(c));
    }
  }
  for (const auto& rc : extra) p.add(rc.first, rc.second);
  p.finalize();
  vals.assign(p.nnz(), T{});
  for (size_t r = 0; r < a.rows(); ++r) {
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
      vals[s] = a(r, static_cast<size_t>(p.cols()[s]));
    }
  }
}

/// Max relative error of the sparse solution against the dense one.
template <typename T>
double rel_err(const std::vector<T>& xs, const std::vector<T>& xd) {
  double worst = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double denom = std::max(std::abs(xd[i]), 1e-30);
    worst = std::max(worst, std::abs(xs[i] - xd[i]) / denom);
  }
  return worst;
}

TEST(SparsePattern, FinalizeDedupsAndSorts) {
  SparsePattern p(3);
  p.add(2, 1);
  p.add(0, 0);
  p.add(2, 1);  // duplicate
  p.add(2, 0);
  p.finalize();
  EXPECT_EQ(p.nnz(), 3u);
  ASSERT_EQ(p.row_ptr().size(), 4u);
  EXPECT_EQ(p.row_ptr()[1], 1);  // row 0 -> one slot
  EXPECT_EQ(p.row_ptr()[2], 1);  // row 1 -> none
  EXPECT_EQ(p.row_ptr()[3], 3);  // row 2 -> two, sorted
  EXPECT_EQ(p.cols()[1], 0);
  EXPECT_EQ(p.cols()[2], 1);
  EXPECT_NE(p.signature(), 0u);
}

TEST(SparsePattern, SignatureDistinguishesStructures) {
  SparsePattern a(2), b(2);
  a.add(0, 0);
  a.add(1, 1);
  b.add(0, 0);
  b.add(1, 0);
  a.finalize();
  b.finalize();
  EXPECT_NE(a.signature(), b.signature());
}

TEST(SparseLu, SolvesIdentity) {
  RealMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLuReal lu;
  lu.factorize(p, vals);
  std::vector<double> x;
  lu.solve_into({3.0, -7.0}, x);
  EXPECT_DOUBLE_EQ(x[0], 3.0);
  EXPECT_DOUBLE_EQ(x[1], -7.0);
}

TEST(SparseLu, HandlesStructurallyZeroDiagonal) {
  // An MNA branch row: a voltage-source pair has zero on both diagonals,
  // so diagonal-only pivoting cannot work. Markowitz must pick the
  // off-diagonal pivots.
  RealMatrix m(2, 2);
  m(0, 1) = 1.0;
  m(1, 0) = 1.0;
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLuReal lu;
  lu.factorize(p, vals);
  std::vector<double> x;
  lu.solve_into({2.0, 9.0}, x);
  EXPECT_NEAR(x[0], 9.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, MatchesDenseOnRandomSparseSystems) {
  std::mt19937_64 gen(42);
  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 5 + static_cast<size_t>(trial) % 24;
    RealMatrix m(n, n);
    for (size_t i = 0; i < n; ++i) {
      m(i, i) = 2.0 + static_cast<double>(n) + unif(gen);  // diagonally dominant
      for (int k = 0; k < 3; ++k) {
        m(i, gen() % n) += unif(gen);
      }
    }
    std::vector<double> b(n);
    for (auto& v : b) v = unif(gen);

    LuSolver<double> dense;
    dense.factorize(m);
    std::vector<double> xd;
    dense.solve_into(b, xd);

    SparsePattern p;
    std::vector<double> vals;
    from_dense(m, p, vals);
    SparseLuReal lu;
    lu.factorize(p, vals);
    std::vector<double> xs;
    lu.solve_into(b, xs);

    EXPECT_LT(rel_err(xs, xd), 1e-10) << "trial " << trial;
  }
}

TEST(SparseLu, MatchesDenseOnComplexSystems) {
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  const size_t n = 17;
  ComplexMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    m(i, i) = {4.0 + unif(gen), unif(gen)};
    m(i, (i + 1) % n) = {unif(gen), unif(gen)};
    m((i + 3) % n, i) += std::complex<double>(unif(gen), unif(gen));
  }
  std::vector<std::complex<double>> b(n);
  for (auto& v : b) v = {unif(gen), unif(gen)};

  LuSolver<std::complex<double>> dense;
  dense.factorize(m);
  std::vector<std::complex<double>> xd;
  dense.solve_into(b, xd);

  SparsePattern p;
  std::vector<std::complex<double>> vals;
  from_dense(m, p, vals);
  SparseLuComplex lu;
  lu.factorize(p, vals);
  std::vector<std::complex<double>> xs;
  lu.solve_into(b, xs);
  EXPECT_LT(rel_err(xs, xd), 1e-10);
}

TEST(SparseLu, SymbolicReuseAcrossRefactorizations) {
  // Tridiagonal system, Newton-style: same structure, changing values.
  const size_t n = 200;
  RealMatrix m(n, n);
  auto fill = [&](double shift) {
    for (size_t i = 0; i < n; ++i) {
      m(i, i) = 4.0 + shift * static_cast<double>(i % 7);
      if (i > 0) m(i, i - 1) = -1.0 - shift;
      if (i + 1 < n) m(i, i + 1) = -1.0 + 0.5 * shift;
    }
  };
  fill(0.1);
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLuReal lu;
  lu.factorize(p, vals);
  EXPECT_EQ(lu.stats().symbolic_analyses, 1);
  EXPECT_EQ(lu.stats().symbolic_reuses, 0);
  EXPECT_EQ(lu.stats().numeric_refactors, 1);

  for (int it = 1; it <= 5; ++it) {
    fill(0.1 * it);
    for (size_t r = 0; r < n; ++r) {
      for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
        vals[s] = m(r, static_cast<size_t>(p.cols()[s]));
      }
    }
    std::vector<double> b(n, 1.0);
    lu.factorize(p, vals);
    std::vector<double> xs;
    lu.solve_into(b, xs);

    LuSolver<double> dense;
    dense.factorize(m);
    std::vector<double> xd;
    dense.solve_into(b, xd);
    EXPECT_LT(rel_err(xs, xd), 1e-10) << "refactor " << it;
  }
  EXPECT_EQ(lu.stats().symbolic_analyses, 1);
  EXPECT_EQ(lu.stats().symbolic_reuses, 5);
  EXPECT_EQ(lu.stats().numeric_refactors, 6);
  // Tridiagonal elimination with diagonal pivots generates no fill.
  EXPECT_EQ(lu.stats().fill_in, 0u);
  EXPECT_EQ(lu.stats().nnz, 3 * n - 2);
  EXPECT_GT(lu.memory_bytes(), 0u);
}

TEST(SparseLu, StructuralZeroSlotBecomesNonzeroLater) {
  // A slot registered in the pattern but 0.0 at analysis time (cutoff
  // device) must still have storage when a later refactor activates it.
  RealMatrix m(3, 3);
  m(0, 0) = 2.0;
  m(1, 1) = 3.0;
  m(2, 2) = 4.0;
  m(0, 1) = 1.0;
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals, {{1, 0}, {2, 0}});  // structural, currently 0.0
  SparseLuReal lu;
  lu.factorize(p, vals);

  m(1, 0) = -1.5;  // the "device" turned on
  m(2, 0) = 0.5;
  for (size_t r = 0; r < 3; ++r) {
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
      vals[s] = m(r, static_cast<size_t>(p.cols()[s]));
    }
  }
  lu.factorize(p, vals);
  EXPECT_EQ(lu.stats().symbolic_reuses, 1);
  std::vector<double> b = {1.0, 2.0, 3.0};
  std::vector<double> xs;
  lu.solve_into(b, xs);

  LuSolver<double> dense;
  dense.factorize(m);
  std::vector<double> xd;
  dense.solve_into(b, xd);
  EXPECT_LT(rel_err(xs, xd), 1e-12);
}

TEST(SparseLu, PatternChangeTriggersReanalysis) {
  RealMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 2.0;
  SparsePattern p1;
  std::vector<double> v1;
  from_dense(a, p1, v1);
  SparseLuReal lu;
  lu.factorize(p1, v1);

  a(0, 1) = 0.5;
  SparsePattern p2;
  std::vector<double> v2;
  from_dense(a, p2, v2);
  lu.factorize(p2, v2);
  EXPECT_EQ(lu.stats().symbolic_analyses, 2);
  EXPECT_EQ(lu.stats().symbolic_reuses, 0);
}

TEST(SparseLu, ThrowsOnSingular) {
  RealMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(0, 1) = 2.0;
  m(1, 0) = 2.0;
  m(1, 1) = 4.0;  // rank 1
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLuReal lu;
  EXPECT_THROW(lu.factorize(p, vals), NumericError);
}

TEST(SparseLu, ThrowsOnZeroMatrix) {
  SparsePattern p(2);
  p.add(0, 0);
  p.add(1, 1);
  p.finalize();
  std::vector<double> vals = {0.0, 0.0};
  SparseLuReal lu;
  EXPECT_THROW(lu.factorize(p, vals), NumericError);
}

TEST(SparseLu, NanPropagatesLikeDensePath) {
  // Fault probes poison a matrix entry with NaN; the dense LuSolver does
  // not throw (NaN fails every pivot comparison) — it produces a
  // non-finite solution that newton's all_finite check rejects. The
  // sparse path must behave the same so fault ordinals stay aligned.
  RealMatrix m(3, 3);
  m(0, 0) = std::nan("");
  m(1, 1) = 2.0;
  m(2, 2) = 3.0;
  m(0, 1) = 1.0;
  m(1, 0) = 1.0;
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLuReal lu;
  EXPECT_NO_THROW(lu.factorize(p, vals));
  std::vector<double> x;
  lu.solve_into({1.0, 1.0, 1.0}, x);
  bool any_nonfinite = false;
  for (double v : x) any_nonfinite = any_nonfinite || !std::isfinite(v);
  EXPECT_TRUE(any_nonfinite);
}

TEST(SparseLu, RefactorPivotCollapseThrows) {
  // First factorization sees a well-conditioned system; a refactor whose
  // values make the chosen pivot exactly zero must throw (the kernel
  // then re-orders on the current values).
  RealMatrix m(2, 2);
  m(0, 0) = 1.0;
  m(1, 1) = 1.0;
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLuReal lu;
  lu.factorize(p, vals);
  std::vector<double> collapsed = {0.0, 1.0};
  EXPECT_THROW(lu.factorize(p, collapsed), NumericError);
}

TEST(SparseLu, ReorderRescuesACollapsedReplayPivot) {
  // The ordering of [[4, 1], [1, 4]] pivots on (0, 0); zeroing it makes
  // the replay collapse although [[0, 1], [1, 4]] is nonsingular. A
  // re-order picks new pivots on the current values and solves exactly.
  RealMatrix m(2, 2);
  m(0, 0) = 4.0;
  m(0, 1) = 1.0;
  m(1, 0) = 1.0;
  m(1, 1) = 4.0;
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  SparseLuReal lu;
  lu.factorize(p, vals);
  vals[0] = 0.0;  // slot (0, 0)
  EXPECT_THROW(lu.factorize(p, vals), NumericError);
  lu.reorder(p, vals);
  std::vector<double> x;
  lu.solve_into({1.0, 6.0}, x);
  EXPECT_DOUBLE_EQ(x[0], 2.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_EQ(lu.stats().symbolic_analyses, 2);
  // The next replay reuses the new ordering.
  lu.factorize(p, vals);
  EXPECT_EQ(lu.stats().symbolic_reuses, 2);
}

TEST(SparseLu, RowScaledProxyIsTheRowEquilibratedReplaysProxy) {
  // Rows spanning 15 decades make the unscaled proxy max|a| / min|u_kk|
  // huge on a well-conditioned system. Dividing every row by its largest
  // magnitude and replaying under the same order yields the system the
  // row-scaled proxy describes: its max|a| is 1, so its plain proxy is
  // 1 / min|u_kk| and must equal the proxy read off the unscaled factors.
  std::mt19937_64 gen(11);
  std::uniform_real_distribution<double> unif(-1.0, 1.0);
  const size_t n = 17;
  ComplexMatrix m(n, n);
  for (size_t i = 0; i < n; ++i) {
    m(i, i) = {4.0 + unif(gen), unif(gen)};
    m(i, (i + 1) % n) = {unif(gen), unif(gen)};
    m((i + 3) % n, i) += std::complex<double>(unif(gen), unif(gen));
  }
  for (size_t i = 0; i < n; ++i) {
    const double row_scale = std::pow(10.0, -12.0 + 15.0 * static_cast<double>(i % 6) / 5.0);
    for (size_t j = 0; j < n; ++j) m(i, j) *= row_scale;
  }
  SparsePattern p;
  std::vector<std::complex<double>> vals;
  from_dense(m, p, vals);
  SparseLuComplex lu;
  lu.factorize(p, vals);
  const double proxy = lu.row_scaled_cond_proxy();
  EXPECT_GT(lu.max_abs_scale() / lu.min_pivot(), 1e14);
  EXPECT_LT(proxy, 1e3);
  for (size_t r = 0; r < n; ++r) {
    double row_max = 0.0;
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
      row_max = std::max(row_max, std::abs(vals[s]));
    }
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) vals[s] /= row_max;
  }
  lu.factorize(p, vals);
  EXPECT_EQ(lu.stats().symbolic_reuses, 1);
  EXPECT_NEAR(lu.max_abs_scale(), 1.0, 1e-15);
  EXPECT_NEAR(lu.max_abs_scale() / lu.min_pivot(), proxy, 1e-12 * proxy);
  EXPECT_NEAR(lu.row_scaled_cond_proxy(), proxy, 1e-12 * proxy);
}

}  // namespace
}  // namespace ape
