#pragma once
/// \file sparse.h
/// Sparse LU with Markowitz threshold pivoting and a reusable symbolic
/// factorization — the scale-up path of the MNA kernel (DESIGN.md
/// section 13).
///
/// The dense LuSolver (matrix.h) is O(n^3) per factorization, which caps
/// circuit size well below module-level netlists: BENCH_spice_kernel.json
/// put n = 64 at ~52 us and the Newton ladders refactor every iteration.
/// Circuit MNA systems are extremely sparse (a handful of entries per
/// row), so this file implements the classic SPICE solution (Berkeley
/// Sparse1.3 / KLU lineage) split into the two phases the compiled-stamp
/// kernel already separates:
///
///  - ORDER AND FACTOR (once per topology): numeric-threshold Markowitz
///    pivoting — pick the structural entry minimizing the fill estimate
///    (r_i - 1)(c_j - 1) among entries passing |a_ij| >= tau * colmax;
///    ties go to an original diagonal, then the larger magnitude, then
///    the first in permuted row-major order — while recording the
///    row/column permutations, the fill-in pattern of L + U, and a
///    compiled elimination "program": flat slot-index arrays that name,
///    for every elimination pair, exactly which L + U storage slots
///    participate. This is the symbolic factorization. The pass keeps
///    per-row and per-column lists of the active entries and searches
///    rows and columns by increasing count, so it costs the entries it
///    touches rather than n^2 per pivot.
///  - REFACTOR (every Newton iteration / AC point): scatter the new
///    values through the precomputed slot map and replay the program —
///    no searching, no allocation, no index arithmetic beyond array
///    reads, O(nnz + fill flops) instead of O(n^3).
///
/// The numeric value type is a template parameter (double for DC /
/// transient, std::complex<double> for AC); the symbolic machinery is
/// shared. A pattern is captured once per topology by the MNA stamp
/// recorder (device.h) — structural slots, not nonzero values, so a
/// cutoff MOSFET whose gm is 0.0 at the first operating point still
/// claims its slots.
///
/// Thread-safety: a SparseLu is owned by one solver workspace and used
/// on one thread, same as LuSolver (see the THREAD-SAFETY RULE in
/// src/util/diagnostics.h).

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/error.h"

namespace ape {

/// Structural (row, col) slots of a sparse system, deduplicated into CSR
/// form by finalize(). Slots are the stable handles the kernel uses to
/// gather values from its dense stamp storage and the solver uses to
/// scatter them into LU storage.
class SparsePattern {
public:
  SparsePattern() = default;
  explicit SparsePattern(size_t n) : n_(n) {}

  /// Reset to an empty n-by-n pattern (keeps buffer capacity).
  void reset(size_t n) {
    n_ = n;
    coords_.clear();
    row_ptr_.clear();
    cols_.clear();
    finalized_ = false;
  }

  /// Record a structural slot. Duplicates are welcome (stamps overlap);
  /// finalize() dedups. Ignored once finalized.
  void add(int r, int c) {
    if (!finalized_) coords_.push_back((static_cast<uint64_t>(r) << 32) | static_cast<uint32_t>(c));
  }

  /// Sort, dedup and build the CSR arrays. Idempotent.
  void finalize();

  size_t n() const { return n_; }
  size_t nnz() const { return cols_.size(); }
  bool finalized() const { return finalized_; }

  /// CSR arrays: row r owns slots [row_ptr()[r], row_ptr()[r+1]), whose
  /// columns are cols()[slot], sorted ascending.
  const std::vector<int>& row_ptr() const { return row_ptr_; }
  const std::vector<int>& cols() const { return cols_; }

  /// Pattern density nnz / n^2 (0 for empty).
  double density() const {
    return n_ == 0 ? 0.0 : static_cast<double>(nnz()) / (static_cast<double>(n_) * static_cast<double>(n_));
  }

  /// Cheap structural fingerprint (n, nnz, FNV over the CSR arrays) so a
  /// solver can assert the pattern it analyzed is the one it refactors.
  uint64_t signature() const { return signature_; }

  /// Bytes of owned storage (for the workspace allocation audit).
  size_t memory_bytes() const {
    return coords_.capacity() * sizeof(uint64_t) +
           (row_ptr_.capacity() + cols_.capacity()) * sizeof(int);
  }

private:
  size_t n_ = 0;
  std::vector<uint64_t> coords_;  ///< packed (r << 32 | c), pre-finalize
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
  uint64_t signature_ = 0;
  bool finalized_ = false;
};

/// Counters a solver reports up into KernelStats.
struct SparseLuStats {
  long symbolic_analyses = 0;  ///< order-and-factor passes (pattern changes)
  long numeric_refactors = 0;  ///< total numeric factorizations
  long symbolic_reuses = 0;    ///< refactors that replayed a cached program
  size_t nnz = 0;              ///< structural entries of the analyzed pattern
  size_t fill_in = 0;          ///< extra L + U entries created by elimination
  size_t flops = 0;            ///< multiply-subtract ops per refactor
};

/// Sparse LU over T in {double, std::complex<double>}.
template <typename T>
class SparseLu {
public:
  SparseLu() = default;

  /// Factorize the system whose structural slots are \p pattern
  /// (finalized) and whose slot values are \p values (CSR slot order).
  /// The first call (or a call after the pattern's signature changed)
  /// runs the Markowitz order-and-factor pass and compiles the
  /// elimination program; subsequent calls replay the program —
  /// allocation-free and typically 10-100x cheaper. Throws NumericError
  /// on a (numerically) singular system; the solver must be refactorized
  /// before the next solve.
  void factorize(const SparsePattern& pattern, const std::vector<T>& values);

  /// factorize() with a fresh order-and-factor pass on \p values even
  /// when the pattern was analyzed already: the rescue when a replay's
  /// pivot collapsed because the values drifted away from the ones the
  /// cached ordering was chosen for. Counts as a symbolic analysis.
  /// Throws NumericError when the system is singular.
  void reorder(const SparsePattern& pattern, const std::vector<T>& values);

  /// Solve A x = b into \p x (resized; no allocation at steady state).
  /// \p b and \p x must not alias. Requires a successful factorize().
  void solve_into(const std::vector<T>& b, std::vector<T>& x) const;

  /// Solve A^T x = b (plain transpose, no conjugation) against the same
  /// factorization — the Hager condition-estimator probe
  /// (numeric_health.h). Not a hot path. \p b and \p x must not alias.
  void solve_transposed_into(const std::vector<T>& b, std::vector<T>& x) const;

  size_t size() const { return n_; }
  const SparseLuStats& stats() const { return stats_; }

  /// The analyzed ordering, read-only: permuted position p holds original
  /// row row_order()[p] and original column col_order()[p].
  const std::vector<int>& row_order() const { return row_orig_; }
  const std::vector<int>& col_order() const { return col_orig_; }
  /// The L + U pattern in CSR over permuted rows (columns are permuted
  /// positions, ascending); its row r holds the multipliers of unit-lower
  /// L left of the diagonal and U from the diagonal on.
  const std::vector<int>& factor_row_ptr() const { return f_row_ptr_; }
  const std::vector<int>& factor_cols() const { return f_cols_; }

  /// max_k|u_kk| / max|a| of the last refactor — the O(1) diagonal
  /// pivot-growth monitor used by the numerical-health layer (same proxy
  /// as LuSolver::pivot_growth).
  double pivot_growth() const {
    return scale_ > 0.0 ? max_pivot_ / scale_ : 0.0;
  }
  /// Smallest |u_kk| of the last refactor; scale / min_pivot is the
  /// cheap condition-number lower-bound trigger.
  double min_pivot() const { return min_pivot_; }
  /// max|a_ij| of the last refactored values (the singularity scale).
  double max_abs_scale() const { return scale_; }
  /// max_k max_j|a_{r(k), j}| / |u_kk| over the last refactor, where
  /// r(k) is the original row pivoted at step k: the condition proxy of
  /// the row-equilibrated system under the same pivot order (row scaling
  /// scales each U row by its row's factor), taken from the current
  /// factors in O(n). Unlike scale / min_pivot it ignores the spread of
  /// row magnitudes, which on AC systems (G next to jwC) spans many
  /// decades without costing accuracy.
  double row_scaled_cond_proxy() const;

  /// Bytes of owned storage (for the workspace allocation audit).
  size_t memory_bytes() const;

  /// Numeric pivot-acceptance threshold for the ordering pass: an entry
  /// competes for the pivot only when |a_ij| >= tau * max|a_:j|. 0.01
  /// trades a little growth for much less fill (Sparse1.3 default
  /// territory); the kernel re-orders (reorder()) when a refactor pivot
  /// collapses anyway.
  static constexpr double kPivotThreshold = 0.01;

private:
  void order_and_factor(const SparsePattern& pattern, const std::vector<T>& values);
  void refactor(const std::vector<T>& values);

  size_t n_ = 0;
  uint64_t analyzed_signature_ = 0;
  bool factorized_ = false;

  // Permutations: permuted position p holds original row row_orig_[p] /
  // original column col_orig_[p].
  std::vector<int> row_orig_;
  std::vector<int> col_orig_;

  // LU storage: CSR over permuted rows, columns sorted; sub-diagonal
  // entries are the multipliers of unit-lower L, the diagonal + upper
  // entries are U.
  std::vector<int> f_row_ptr_;
  std::vector<int> f_cols_;
  std::vector<int> f_diag_;       ///< slot of (i, i) per permuted row
  std::vector<T> f_vals_;

  // Scatter map: pattern slot s lands in LU slot scatter_[s]; the
  // pattern's CSR rows, so each refactor also records its row maxima.
  std::vector<int> scatter_;
  std::vector<int> a_row_ptr_;
  std::vector<double> row_max_;   ///< max|a_ij| per original row, last refactor

  // Compiled elimination program. For pivot step k the U-row slots are
  // the contiguous factor slots (f_diag_[k], f_row_ptr_[k+1]); each
  // elimination pair p in [pair_ptr_[k], pair_ptr_[k+1]) names its
  // multiplier slot l_slot_[p] and the destination slots
  // dst_[dst_ptr_[p] + t], aligned with the U-row slots (the t-th
  // destination pairs with the t-th U slot).
  std::vector<int> pair_ptr_;
  std::vector<int> l_slot_;
  std::vector<int> dst_ptr_;
  std::vector<int> dst_;

  mutable std::vector<T> y_;      ///< permuted solve scratch
  SparseLuStats stats_;
  double scale_ = 0.0;
  double max_pivot_ = 0.0;
  double min_pivot_ = 0.0;
};

extern template class SparseLu<double>;
extern template class SparseLu<std::complex<double>>;

using SparseLuReal = SparseLu<double>;
using SparseLuComplex = SparseLu<std::complex<double>>;

}  // namespace ape
