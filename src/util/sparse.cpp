#include "src/util/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "src/util/numeric_health.h"

namespace ape {

namespace {

/// FNV-1a over a byte range, seeded with the running hash.
uint64_t fnv1a(uint64_t h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void SparsePattern::finalize() {
  if (finalized_) return;
  std::sort(coords_.begin(), coords_.end());
  coords_.erase(std::unique(coords_.begin(), coords_.end()), coords_.end());
  row_ptr_.assign(n_ + 1, 0);
  cols_.clear();
  cols_.reserve(coords_.size());
  for (uint64_t packed : coords_) {
    const int r = static_cast<int>(packed >> 32);
    const int c = static_cast<int>(packed & 0xffffffffu);
    if (r < 0 || c < 0 || static_cast<size_t>(r) >= n_ || static_cast<size_t>(c) >= n_) {
      throw NumericError("sparse pattern: slot (" + std::to_string(r) + ", " + std::to_string(c) +
                         ") outside " + std::to_string(n_) + "-dim system");
    }
    ++row_ptr_[static_cast<size_t>(r) + 1];
    cols_.push_back(c);
  }
  for (size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, &n_, sizeof(n_));
  if (!cols_.empty()) h = fnv1a(h, cols_.data(), cols_.size() * sizeof(int));
  if (!row_ptr_.empty()) h = fnv1a(h, row_ptr_.data(), row_ptr_.size() * sizeof(int));
  signature_ = h;
  coords_.clear();
  coords_.shrink_to_fit();
  finalized_ = true;
}

template <typename T>
void SparseLu<T>::factorize(const SparsePattern& pattern, const std::vector<T>& values) {
  if (!pattern.finalized()) throw NumericError("sparse LU: pattern not finalized");
  if (values.size() != pattern.nnz()) throw NumericError("sparse LU: value/slot count mismatch");
  factorized_ = false;
  const bool analyzed = analyzed_signature_ != 0 && analyzed_signature_ == pattern.signature() &&
                        n_ == pattern.n();
  if (!analyzed) {
    analyzed_signature_ = 0;  // invalidated until the analysis succeeds
    order_and_factor(pattern, values);
    analyzed_signature_ = pattern.signature();
    ++stats_.symbolic_analyses;
  } else {
    ++stats_.symbolic_reuses;
  }
  refactor(values);
  factorized_ = true;
}

template <typename T>
void SparseLu<T>::reorder(const SparsePattern& pattern, const std::vector<T>& values) {
  analyzed_signature_ = 0;
  factorize(pattern, values);
}

template <typename T>
void SparseLu<T>::order_and_factor(const SparsePattern& pattern, const std::vector<T>& values) {
  n_ = pattern.n();
  const int n = static_cast<int>(n_);
  if (n == 0) throw NumericError("sparse LU: empty system");

  // Scaling singularity check, NaN-ignoring exactly like Matrix::max_abs.
  double scale = 0.0;
  for (const T& v : values) {
    const double m = std::abs(v);
    if (m > scale) scale = m;
  }
  if (scale == 0.0) throw NumericError("sparse LU: zero matrix");

  // Dense working copies in permuted coordinates: W holds values (then
  // multipliers below the diagonal), S the structural pattern including
  // fill. O(n^2) scratch is acceptable because this pass runs once per
  // topology; it is freed before the first refactor.
  std::vector<T> w(n_ * n_, T{});
  std::vector<uint8_t> s(n_ * n_, 0);
  const std::vector<int>& rp = pattern.row_ptr();
  const std::vector<int>& pc = pattern.cols();
  for (int r = 0; r < n; ++r) {
    for (int slot = rp[r]; slot < rp[r + 1]; ++slot) {
      w[static_cast<size_t>(r) * n_ + pc[slot]] = values[slot];
      s[static_cast<size_t>(r) * n_ + pc[slot]] = 1;
    }
  }
  row_orig_.resize(n_);
  col_orig_.resize(n_);
  for (int i = 0; i < n; ++i) row_orig_[i] = col_orig_[i] = i;

  size_t fill = 0;
  std::vector<int> r_cnt(n_), c_cnt(n_);
  std::vector<double> colmax(n_);

  for (int k = 0; k < n; ++k) {
    // Active-submatrix row/column structural counts and column value
    // maxima for the Markowitz cost and the numeric threshold.
    for (int j = k; j < n; ++j) {
      c_cnt[j] = 0;
      colmax[j] = 0.0;
    }
    for (int i = k; i < n; ++i) {
      int rc = 0;
      const uint8_t* srow = &s[static_cast<size_t>(i) * n_];
      const T* wrow = &w[static_cast<size_t>(i) * n_];
      for (int j = k; j < n; ++j) {
        if (!srow[j]) continue;
        ++rc;
        ++c_cnt[j];
        const double m = std::abs(wrow[j]);
        if (m > colmax[j]) colmax[j] = m;
      }
      r_cnt[i] = rc;
    }

    // Markowitz selection: minimize (r - 1)(c - 1) over structural
    // entries whose magnitude passes the threshold; ties prefer the
    // original diagonal, then the larger magnitude (growth control).
    long best_cost = std::numeric_limits<long>::max();
    int bi = -1, bj = -1;
    double best_mag = 0.0;
    for (int i = k; i < n; ++i) {
      const uint8_t* srow = &s[static_cast<size_t>(i) * n_];
      const T* wrow = &w[static_cast<size_t>(i) * n_];
      const long rm = r_cnt[i] - 1;
      for (int j = k; j < n; ++j) {
        if (!srow[j]) continue;
        const double m = std::abs(wrow[j]);
        if (!(m > 0.0) || !(m >= kPivotThreshold * colmax[j])) continue;
        const long cost = rm * (c_cnt[j] - 1);
        bool better;
        if (cost != best_cost) {
          better = cost < best_cost;
        } else {
          const bool cand_diag = row_orig_[i] == col_orig_[j];
          const bool cur_diag = bi >= 0 && row_orig_[bi] == col_orig_[bj];
          better = cand_diag != cur_diag ? cand_diag : m > best_mag;
        }
        if (better) {
          best_cost = cost;
          bi = i;
          bj = j;
          best_mag = m;
        }
      }
    }
    if (bi < 0) {
      // No entry passed the threshold. Fall back to the largest
      // magnitude; if everything is zero, check for non-finite poison
      // (which must propagate, matching the dense solver) before
      // declaring the matrix singular.
      for (int i = k; i < n; ++i) {
        for (int j = k; j < n; ++j) {
          if (!s[static_cast<size_t>(i) * n_ + j]) continue;
          const double m = std::abs(w[static_cast<size_t>(i) * n_ + j]);
          if (m > best_mag) {
            best_mag = m;
            bi = i;
            bj = j;
          }
        }
      }
      if (bi < 0 || best_mag == 0.0) {
        int nf_i = -1, nf_j = -1;
        for (int i = k; i < n && nf_i < 0; ++i) {
          for (int j = k; j < n; ++j) {
            if (s[static_cast<size_t>(i) * n_ + j] &&
                !std::isfinite(std::abs(w[static_cast<size_t>(i) * n_ + j]))) {
              nf_i = i;
              nf_j = j;
              break;
            }
          }
        }
        if (nf_i < 0) {
          throw NumericError(singular_message("sparse", static_cast<size_t>(k),
                                              n_, scale,
                                              health::kSingularRelTol));
        }
        bi = nf_i;
        bj = nf_j;
      }
    }

    // Bring the pivot to (k, k) by physical row/column swaps.
    if (bi != k) {
      std::swap_ranges(w.begin() + static_cast<size_t>(k) * n_,
                       w.begin() + static_cast<size_t>(k + 1) * n_,
                       w.begin() + static_cast<size_t>(bi) * n_);
      std::swap_ranges(s.begin() + static_cast<size_t>(k) * n_,
                       s.begin() + static_cast<size_t>(k + 1) * n_,
                       s.begin() + static_cast<size_t>(bi) * n_);
      std::swap(row_orig_[k], row_orig_[bi]);
    }
    if (bj != k) {
      for (int r = 0; r < n; ++r) {
        std::swap(w[static_cast<size_t>(r) * n_ + k], w[static_cast<size_t>(r) * n_ + bj]);
        std::swap(s[static_cast<size_t>(r) * n_ + k], s[static_cast<size_t>(r) * n_ + bj]);
      }
      std::swap(col_orig_[k], col_orig_[bj]);
    }

    // Structural elimination with numeric values along for the ride —
    // fill is decided by the pattern, never by value cancellation, so a
    // slot that happens to be 0.0 this time still reserves its storage.
    const T piv = w[static_cast<size_t>(k) * n_ + k];
    const uint8_t* skrow = &s[static_cast<size_t>(k) * n_];
    const T* wkrow = &w[static_cast<size_t>(k) * n_];
    for (int i = k + 1; i < n; ++i) {
      if (!s[static_cast<size_t>(i) * n_ + k]) continue;
      const T m = w[static_cast<size_t>(i) * n_ + k] / piv;
      w[static_cast<size_t>(i) * n_ + k] = m;
      uint8_t* sirow = &s[static_cast<size_t>(i) * n_];
      T* wirow = &w[static_cast<size_t>(i) * n_];
      for (int j = k + 1; j < n; ++j) {
        if (!skrow[j]) continue;
        if (!sirow[j]) {
          sirow[j] = 1;
          ++fill;
        }
        wirow[j] -= m * wkrow[j];
      }
    }
  }

  // Freeze the L + U pattern into CSR over permuted rows.
  f_row_ptr_.assign(n_ + 1, 0);
  f_cols_.clear();
  f_diag_.assign(n_, -1);
  for (int i = 0; i < n; ++i) {
    const uint8_t* srow = &s[static_cast<size_t>(i) * n_];
    for (int j = 0; j < n; ++j) {
      if (!srow[j]) continue;
      if (j == i) f_diag_[i] = static_cast<int>(f_cols_.size());
      f_cols_.push_back(j);
    }
    f_row_ptr_[i + 1] = static_cast<int>(f_cols_.size());
    if (f_diag_[i] < 0) {
      // Unreachable: the step-i pivot sits at (i, i) by construction.
      throw NumericError("sparse LU: missing diagonal in factor row " + std::to_string(i));
    }
  }
  f_vals_.assign(f_cols_.size(), T{});

  // Slot lookup in a factor row (columns sorted ascending).
  auto f_slot = [&](int i, int j) {
    const int* begin = f_cols_.data() + f_row_ptr_[i];
    const int* end = f_cols_.data() + f_row_ptr_[i + 1];
    const int* it = std::lower_bound(begin, end, j);
    if (it == end || *it != j) {
      throw NumericError("sparse LU: internal pattern inconsistency");
    }
    return static_cast<int>(f_row_ptr_[i] + (it - begin));
  };

  // Scatter map: original pattern slot -> factor slot.
  std::vector<int> pos_row(n_), pos_col(n_);
  for (int p = 0; p < n; ++p) {
    pos_row[row_orig_[p]] = p;
    pos_col[col_orig_[p]] = p;
  }
  scatter_.resize(pattern.nnz());
  for (int r = 0; r < n; ++r) {
    for (int slot = rp[r]; slot < rp[r + 1]; ++slot) {
      scatter_[slot] = f_slot(pos_row[r], pos_col[pc[slot]]);
    }
  }
  a_row_ptr_ = rp;
  row_max_.assign(n_, 0.0);

  // Compile the elimination program. The U-row slots of step k are the
  // contiguous factor slots (f_diag_[k], f_row_ptr_[k+1]); each pair
  // stores its multiplier slot plus destination slots aligned with them.
  pair_ptr_.assign(n_ + 1, 0);
  l_slot_.clear();
  dst_ptr_.clear();
  dst_.clear();
  size_t flops = 0;
  for (int k = 0; k < n; ++k) {
    const int ub = f_diag_[k] + 1;
    const int ue = f_row_ptr_[k + 1];
    for (int i = k + 1; i < n; ++i) {
      if (!s[static_cast<size_t>(i) * n_ + k]) continue;
      l_slot_.push_back(f_slot(i, k));
      dst_ptr_.push_back(static_cast<int>(dst_.size()));
      for (int us = ub; us < ue; ++us) dst_.push_back(f_slot(i, f_cols_[us]));
      flops += static_cast<size_t>(ue - ub);
    }
    pair_ptr_[k + 1] = static_cast<int>(l_slot_.size());
  }
  dst_ptr_.push_back(static_cast<int>(dst_.size()));

  y_.resize(n_);
  stats_.nnz = pattern.nnz();
  stats_.fill_in = fill;
  stats_.flops = flops;
}

template <typename T>
void SparseLu<T>::refactor(const std::vector<T>& values) {
  ++stats_.numeric_refactors;
  std::fill(f_vals_.begin(), f_vals_.end(), T{});
  double scale = 0.0;
  for (size_t r = 0; r < n_; ++r) {
    double rmax = 0.0;
    for (int slot = a_row_ptr_[r]; slot < a_row_ptr_[r + 1]; ++slot) {
      f_vals_[scatter_[slot]] = values[slot];
      const double m = std::abs(values[slot]);
      if (m > rmax) rmax = m;
    }
    row_max_[r] = rmax;
    if (rmax > scale) scale = rmax;
  }
  scale_ = scale;
  max_pivot_ = 0.0;
  min_pivot_ = std::numeric_limits<double>::infinity();
  if (scale == 0.0) throw NumericError("sparse LU: zero matrix");
  const int n = static_cast<int>(n_);
  for (int k = 0; k < n; ++k) {
    const T piv = f_vals_[f_diag_[k]];
    const double apiv = std::abs(piv);
    // Same collapse threshold as the dense solver; non-finite pivots
    // pass (the comparison is false) and propagate to the all_finite
    // check downstream, keeping fault-probe semantics identical.
    if (apiv <= scale * health::kSingularRelTol) {
      throw NumericError(singular_message("sparse", static_cast<size_t>(k), n_,
                                          scale, health::kSingularRelTol));
    }
    // O(1) pivot tracking for the growth / condition monitors
    // (NaN-ignoring comparisons, like the scale scan above).
    if (apiv > max_pivot_) max_pivot_ = apiv;
    if (apiv < min_pivot_) min_pivot_ = apiv;
    const int ub = f_diag_[k] + 1;
    const int ulen = f_row_ptr_[k + 1] - ub;
    const T* urow = f_vals_.data() + ub;
    for (int p = pair_ptr_[k]; p < pair_ptr_[k + 1]; ++p) {
      const T m = f_vals_[l_slot_[p]] / piv;
      f_vals_[l_slot_[p]] = m;
      const int* d = dst_.data() + dst_ptr_[p];
      for (int t = 0; t < ulen; ++t) f_vals_[d[t]] -= m * urow[t];
    }
  }
}

template <typename T>
double SparseLu<T>::row_scaled_cond_proxy() const {
  // Squared magnitudes (std::norm, no square root per pivot), one root.
  double proxy2 = 0.0;
  for (size_t k = 0; k < n_; ++k) {
    const double r = row_max_[row_orig_[k]];
    const double ratio2 = r * r / std::norm(f_vals_[f_diag_[k]]);
    if (ratio2 > proxy2) proxy2 = ratio2;
  }
  return std::sqrt(proxy2);
}

template <typename T>
void SparseLu<T>::solve_into(const std::vector<T>& b, std::vector<T>& x) const {
  if (!factorized_) throw NumericError("sparse LU: not factorized");
  if (b.size() != n_) throw NumericError("sparse LU: rhs size mismatch");
  const int n = static_cast<int>(n_);
  y_.resize(n_);
  for (int p = 0; p < n; ++p) y_[p] = b[row_orig_[p]];
  // Forward substitution: sub-diagonal factor slots are the multipliers
  // of unit-lower L, already sorted by column within each row.
  for (int i = 1; i < n; ++i) {
    T sum = y_[i];
    for (int slot = f_row_ptr_[i]; slot < f_diag_[i]; ++slot) {
      sum -= f_vals_[slot] * y_[f_cols_[slot]];
    }
    y_[i] = sum;
  }
  // Back substitution (U).
  for (int i = n - 1; i >= 0; --i) {
    T sum = y_[i];
    for (int slot = f_diag_[i] + 1; slot < f_row_ptr_[i + 1]; ++slot) {
      sum -= f_vals_[slot] * y_[f_cols_[slot]];
    }
    y_[i] = sum / f_vals_[f_diag_[i]];
  }
  x.resize(n_);
  for (int q = 0; q < n; ++q) x[col_orig_[q]] = y_[q];
}

template <typename T>
void SparseLu<T>::solve_transposed_into(const std::vector<T>& b, std::vector<T>& x) const {
  if (!factorized_) throw NumericError("sparse LU: not factorized");
  if (b.size() != n_) throw NumericError("sparse LU: rhs size mismatch");
  const int n = static_cast<int>(n_);
  y_.resize(n_);
  // A = R^-1 L U C (R gathers permuted rows, C permuted columns), so
  // A^T x = b solves as: w = C b, U^T t = w, L^T z = t, x = R^T z.
  for (int q = 0; q < n; ++q) y_[q] = b[col_orig_[q]];
  // Forward substitution on U^T: finalize y_[k], push to later columns.
  for (int k = 0; k < n; ++k) {
    y_[k] /= f_vals_[f_diag_[k]];
    for (int slot = f_diag_[k] + 1; slot < f_row_ptr_[k + 1]; ++slot) {
      y_[f_cols_[slot]] -= f_vals_[slot] * y_[k];
    }
  }
  // Back substitution on L^T (unit diagonal): descending, push style.
  for (int k = n - 1; k >= 0; --k) {
    for (int slot = f_row_ptr_[k]; slot < f_diag_[k]; ++slot) {
      y_[f_cols_[slot]] -= f_vals_[slot] * y_[k];
    }
  }
  x.resize(n_);
  for (int p = 0; p < n; ++p) x[row_orig_[p]] = y_[p];
}

template <typename T>
size_t SparseLu<T>::memory_bytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(row_orig_) + bytes(col_orig_) + bytes(f_row_ptr_) + bytes(f_cols_) +
         bytes(f_diag_) + bytes(f_vals_) + bytes(scatter_) + bytes(a_row_ptr_) +
         bytes(row_max_) + bytes(pair_ptr_) + bytes(l_slot_) +
         bytes(dst_ptr_) + bytes(dst_) + bytes(y_);
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace ape
