#include "src/util/sparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <random>
#include <string>

#include "src/spice/analysis.h"
#include "src/spice/devices.h"
#include "src/spice/parser.h"
#include "src/util/matrix.h"
#include "tests/netlist_corpus.h"
#include "tests/reference_sparse_order.h"

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

// ---------------------------------------------------------------------------
// Ordering equivalence: the sparse Markowitz pass against the dense-scratch
// reference it replaced (tests/reference_sparse_order.h). Same pivots, same
// L + U pattern, same fill and flops, bitwise-equal solutions, and the same
// exception text where the reference throws.

/// Factor (pattern, vals) with both and compare everything observable.
/// Returns whether the system factored (both agree on that too).
template <typename T>
bool expect_same_ordering(const SparsePattern& p, const std::vector<T>& vals,
                          const std::string& what) {
  SCOPED_TRACE(what);
  test::DenseOrderLu<T> ref;
  SparseLu<T> lu;
  std::string ref_err, got_err;
  try {
    ref.factorize(p, vals);
  } catch (const NumericError& e) {
    ref_err = e.what();
  }
  try {
    lu.factorize(p, vals);
  } catch (const NumericError& e) {
    got_err = e.what();
  }
  EXPECT_EQ(got_err, ref_err);
  if (!ref_err.empty() || !got_err.empty()) return false;
  EXPECT_EQ(lu.row_order(), ref.row_order());
  EXPECT_EQ(lu.col_order(), ref.col_order());
  EXPECT_EQ(lu.factor_row_ptr(), ref.factor_row_ptr());
  EXPECT_EQ(lu.factor_cols(), ref.factor_cols());
  EXPECT_EQ(lu.stats().fill_in, ref.stats().fill_in);
  EXPECT_EQ(lu.stats().flops, ref.stats().flops);
  const size_t n = p.n();
  std::vector<T> b(n), xs, xr;
  for (size_t i = 0; i < n; ++i) {
    b[i] = T(1.0 + 0.25 * static_cast<double>(i % 9) - 0.5 * static_cast<double>(i % 2));
  }
  lu.solve_into(b, xs);
  ref.solve_into(b, xr);
  EXPECT_EQ(std::memcmp(xs.data(), xr.data(), n * sizeof(T)), 0) << "solutions differ";
  return true;
}

/// A random sparse system: ~\p per_row off-diagonal entries per row, a
/// diagonal present with probability \p diag_prob, magnitudes spread over
/// \p decades, and (when \p ties) values from a small integer set so
/// cost, diagonal and magnitude ties are common.
template <typename T>
void random_system(std::mt19937_64& gen, size_t n, int per_row, double diag_prob,
                   double decades, bool ties, SparsePattern& p, std::vector<T>& vals) {
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  auto value = [&]() -> double {
    if (ties) return static_cast<double>(static_cast<int>(gen() % 5) - 2);  // -2..2, zeros too
    const double mag = std::pow(10.0, decades * (unif(gen) - 0.5));
    return unif(gen) < 0.5 ? -mag : mag;
  };
  auto scalar = [&]() -> T {
    if constexpr (std::is_same_v<T, double>) {
      return value();
    } else {
      return T(value(), ties ? 0.0 : value());
    }
  };
  Matrix<T> a(n, n);
  std::vector<std::pair<int, int>> slots;
  for (size_t i = 0; i < n; ++i) {
    if (unif(gen) < diag_prob) {
      a(i, i) = scalar();
      slots.emplace_back(static_cast<int>(i), static_cast<int>(i));
    }
    for (int k = 0; k < per_row; ++k) {
      const size_t j = gen() % n;
      a(i, j) = scalar();
      slots.emplace_back(static_cast<int>(i), static_cast<int>(j));
    }
  }
  // Every slot is structural, zero-valued ones included (a cutoff gm).
  p.reset(n);
  for (const auto& [r, c] : slots) p.add(r, c);
  p.finalize();
  vals.assign(p.nnz(), T{});
  for (size_t r = 0; r < n; ++r) {
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
      vals[s] = a(r, static_cast<size_t>(p.cols()[s]));
    }
  }
}

template <typename T>
void random_equivalence_sweep(uint64_t seed) {
  std::mt19937_64 gen(seed);
  int factored = 0, thrown = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const size_t n = 1 + static_cast<size_t>(gen() % 40);
    const int per_row = 1 + static_cast<int>(gen() % 4);
    const double diag_prob = (trial % 4 == 0) ? 0.3 : 0.9;  // structurally zero diagonals
    const double decades = (trial % 3 == 0) ? 12.0 : 2.0;   // threshold rejections
    const bool ties = trial % 5 == 1;
    SparsePattern p;
    std::vector<T> vals;
    random_system(gen, n, per_row, diag_prob, decades, ties, p, vals);
    if (expect_same_ordering(p, vals, "trial " + std::to_string(trial))) {
      ++factored;
    } else {
      ++thrown;
    }
  }
  // Both outcomes are exercised: most systems factor, singular ones throw.
  EXPECT_GT(factored, 200);
  EXPECT_GT(thrown, 10);
}

TEST(SparseOrderingEquivalence, RandomRealSystems) { random_equivalence_sweep<double>(101); }

TEST(SparseOrderingEquivalence, RandomComplexSystems) {
  random_equivalence_sweep<std::complex<double>>(202);
}

TEST(SparseOrderingEquivalence, ThresholdRejectsTheCheapestEntries) {
  // Row 0 and column 0 are singletons apart from tiny entries: the
  // cheapest (cost-0) candidates sit below 1% of their column maxima, so
  // the threshold must steer the pick to costlier but larger entries.
  RealMatrix m(5, 5);
  for (size_t i = 0; i < 5; ++i) m(i, i) = 1e-6;
  for (size_t i = 1; i < 5; ++i) {
    m(i, 0) = 1.0;
    m(0, i) = 1.0;
    m(i, (i % 4) + 1) += 2.0;
  }
  SparsePattern p;
  std::vector<double> vals;
  from_dense(m, p, vals);
  EXPECT_TRUE(expect_same_ordering(p, vals, "threshold"));
}

TEST(SparseOrderingEquivalence, NanPoisonAndSingularCases) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* name;
    std::vector<std::vector<double>> rows;
  };
  const Case cases[] = {
      {"nan diagonal", {{nan, 1, 0}, {1, 2, 0}, {0, 0, 3}}},
      {"nan only column", {{nan, 1, 0}, {nan, 0, 0}, {0, 0, 3}}},
      {"all nan", {{nan, nan}, {nan, nan}}},
      {"nan block after a finite pivot", {{1, 0, 0}, {0, nan, nan}, {0, nan, nan}}},
      {"nan and zero block", {{2, 0, 0}, {0, 0, nan}, {0, nan, 0}}},
      {"inf entry", {{inf, 1, 0}, {1, 2, 1}, {0, 1, 3}}},
      {"structurally singular", {{1, 1, 0}, {1, 1, 0}, {0, 0, 0}}},
      {"rank one", {{1, 2}, {2, 4}}},
      {"zero row after elimination", {{1, 1, 1}, {1, 1, 1}, {1, 2, 3}}},
  };
  for (const Case& c : cases) {
    const size_t n = c.rows.size();
    SparsePattern p(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) p.add(static_cast<int>(i), static_cast<int>(j));
    }
    p.finalize();
    std::vector<double> vals;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) vals.push_back(c.rows[i][j]);
    }
    expect_same_ordering(p, vals, c.name);
    std::vector<std::complex<double>> cvals(vals.begin(), vals.end());
    expect_same_ordering(p, cvals, std::string(c.name) + " (complex)");
  }
}

// --- MNA systems of real circuits ------------------------------------------

/// Capture the pattern (every stamp call) and values of one assembly.
template <typename Mna, typename T, typename Stamp>
void capture(size_t dim, const Stamp& stamp, SparsePattern& p, std::vector<T>& vals) {
  Mna mna(dim);
  p.reset(dim);
  mna.set_recorder(&p);
  stamp(mna);
  p.finalize();
  vals.assign(p.nnz(), T{});
  for (size_t r = 0; r < dim; ++r) {
    for (int s = p.row_ptr()[r]; s < p.row_ptr()[r + 1]; ++s) {
      vals[s] = mna.matrix()(r, static_cast<size_t>(p.cols()[s]));
    }
  }
}

/// The DC (at the operating point), transient (first step off it) and AC
/// (1 Hz .. 1 GHz) systems of \p ckt, as the kernel assembles them.
void expect_circuit_orderings(spice::Circuit& ckt, const std::string& name) {
  using namespace spice;
  const Solution op = dc_operating_point(ckt);
  const size_t dim = ckt.dim();
  const auto nodes = static_cast<NodeId>(ckt.num_nodes());
  SparsePattern p;
  std::vector<double> rv;
  capture<MnaReal>(dim, [&](MnaReal& m) {
    for (const auto& d : ckt.devices()) d->stamp_dc(m, op, 1.0);
    for (NodeId i = 0; i < nodes; ++i) m.add(i, i, 1e-12);
  }, p, rv);
  EXPECT_TRUE(expect_same_ordering(p, rv, name + " dc"));

  TranContext tc;
  tc.dt = 1e-9;
  tc.time = 1e-9;
  capture<MnaReal>(dim, [&](MnaReal& m) {
    for (const auto& d : ckt.devices()) d->stamp_tran(m, op, tc);
    for (NodeId i = 0; i < nodes; ++i) m.add(i, i, 1e-12);
  }, p, rv);
  EXPECT_TRUE(expect_same_ordering(p, rv, name + " tran"));

  std::vector<std::complex<double>> cv;
  for (double f : {1.0, 1e3, 1e6, 1e9}) {
    capture<MnaComplex>(dim, [&](MnaComplex& m) {
      for (const auto& d : ckt.devices()) d->stamp_ac(m, 2.0 * M_PI * f);
      for (NodeId i = 0; i < nodes; ++i) m.add(i, i, 1e-12);
    }, p, cv);
    EXPECT_TRUE(expect_same_ordering(p, cv, name + " ac " + std::to_string(f)));
  }
}

TEST(SparseOrderingEquivalence, RcLadder120Stages) {
  spice::Circuit ckt("ladder");
  spice::Waveform w;
  w.ac_mag = 1.0;
  ckt.add<spice::VSource>("vin", ckt.node("n0"), spice::kGround, w);
  for (int i = 0; i < 120; ++i) {
    const std::string a = "n" + std::to_string(i);
    const std::string b = "n" + std::to_string(i + 1);
    ckt.add<spice::Resistor>("r" + std::to_string(i), ckt.node(a), ckt.node(b), 1e3);
    ckt.add<spice::Capacitor>("c" + std::to_string(i), ckt.node(b), spice::kGround, 1e-9);
  }
  expect_circuit_orderings(ckt, "ladder");
}

TEST(SparseOrderingEquivalence, PaperTestbenches) {
  // Every Table 1 opamp testbench (four modes) and the five Table 5
  // module testbenches.
  const std::vector<test::NamedNetlist> tbs = test::paper_testbenches();
  ASSERT_EQ(tbs.size(), 45u);
  for (const test::NamedNetlist& tb : tbs) {
    spice::Circuit ckt = spice::parse_netlist(tb.text);
    expect_circuit_orderings(ckt, tb.name);
  }
}

}  // namespace
}  // namespace ape
