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

/// Items (the rows or the columns of the active submatrix) kept on
/// doubly linked lists by their active entry count, so the ordering pass
/// visits rows in count order and finds the smallest column count without
/// a scan over all of them.
class CountBuckets {
public:
  explicit CountBuckets(size_t n) : head_(n + 1, -1), next_(n, -1), prev_(n, -1), at_(n, -1) {}

  void insert(int item, int count) {
    at_[item] = count;
    prev_[item] = -1;
    next_[item] = head_[count];
    if (next_[item] >= 0) prev_[next_[item]] = item;
    head_[count] = item;
  }
  void remove(int item) {
    (prev_[item] >= 0 ? next_[prev_[item]] : head_[at_[item]]) = next_[item];
    if (next_[item] >= 0) prev_[next_[item]] = prev_[item];
    at_[item] = -1;
  }
  void move(int item, int count) {
    if (at_[item] == count) return;
    remove(item);
    insert(item, count);
  }
  int first(int count) const { return head_[count]; }
  int next(int item) const { return next_[item]; }

private:
  std::vector<int> head_, next_, prev_, at_;
};

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

  // Every structural entry of the elimination, original or fill, in
  // original coordinates, with its current value and magnitude. Entry s <
  // nnz is pattern slot s. Each entry sits on a doubly linked list of its
  // row's and of its column's *active* entries (those whose row and column
  // are not yet pivoted), so one pivot step costs the active submatrix's
  // entries, not n^2.
  struct Entry {
    int row, col;
    int row_prev, row_next, col_prev, col_next;
    T val;
    double mag;
  };
  std::vector<Entry> ent;
  ent.reserve(2 * pattern.nnz());
  std::vector<int> row_head(n_, -1), col_head(n_, -1), row_cnt(n_, 0), col_cnt(n_, 0);
  auto link = [&](int e) {
    Entry& x = ent[e];
    x.row_prev = -1;
    x.row_next = row_head[x.row];
    if (x.row_next >= 0) ent[x.row_next].row_prev = e;
    row_head[x.row] = e;
    ++row_cnt[x.row];
    x.col_prev = -1;
    x.col_next = col_head[x.col];
    if (x.col_next >= 0) ent[x.col_next].col_prev = e;
    col_head[x.col] = e;
    ++col_cnt[x.col];
  };
  auto unlink_row = [&](int e) {
    const Entry& x = ent[e];
    (x.row_prev >= 0 ? ent[x.row_prev].row_next : row_head[x.row]) = x.row_next;
    if (x.row_next >= 0) ent[x.row_next].row_prev = x.row_prev;
    --row_cnt[x.row];
  };
  auto unlink_col = [&](int e) {
    const Entry& x = ent[e];
    (x.col_prev >= 0 ? ent[x.col_prev].col_next : col_head[x.col]) = x.col_next;
    if (x.col_next >= 0) ent[x.col_next].col_prev = x.col_prev;
    --col_cnt[x.col];
  };
  auto add_entry = [&](int r, int c, const T& v) {
    ent.push_back({r, c, -1, -1, -1, -1, v, std::abs(v)});
    link(static_cast<int>(ent.size()) - 1);
    return static_cast<int>(ent.size()) - 1;
  };

  const std::vector<int>& rp = pattern.row_ptr();
  const std::vector<int>& pc = pattern.cols();
  std::vector<double> colmax(n_, 0.0);  // active column value maxima, NaN-ignoring
  for (int r = 0; r < n; ++r) {
    for (int slot = rp[r]; slot < rp[r + 1]; ++slot) {
      const Entry& x = ent[add_entry(r, pc[slot], values[slot])];
      if (x.mag > colmax[x.col]) colmax[x.col] = x.mag;
    }
  }

  // Permutations and their inverses. The pivot of step k is brought to
  // position (k, k) by swapping positions, so the active rows at step k
  // are row_orig_[k..n) and "first in permuted row-major order" compares
  // (row_pos, col_pos).
  row_orig_.resize(n_);
  col_orig_.resize(n_);
  std::vector<int> row_pos(n_), col_pos(n_);
  for (int i = 0; i < n; ++i) row_orig_[i] = col_orig_[i] = row_pos[i] = col_pos[i] = i;

  CountBuckets row_buckets(n_), col_buckets(n_);
  for (int i = 0; i < n; ++i) {
    row_buckets.insert(i, row_cnt[i]);
    col_buckets.insert(i, col_cnt[i]);
  }

  std::vector<int> col_stamp(n_, -1), col_entry(n_);  // one row's columns, per stamp
  int stamp = 0;
  size_t fill = 0;

  for (int k = 0; k < n; ++k) {
    // Markowitz selection: minimize (r - 1)(c - 1) over active entries
    // whose magnitude passes the threshold; ties prefer the original
    // diagonal, then the larger magnitude (growth control), then the
    // first in permuted row-major order.
    long best_cost = std::numeric_limits<long>::max();
    int best = -1, best_p = 0, best_q = 0;
    bool best_diag = false;
    double best_mag = 0.0;
    auto earlier = [&](int p, int q) { return p < best_p || (p == best_p && q < best_q); };
    auto consider = [&](int e) {
      const Entry& x = ent[e];
      const double m = x.mag;
      if (!(m > 0.0) || !(m >= kPivotThreshold * colmax[x.col])) return;
      const long cost = static_cast<long>(row_cnt[x.row] - 1) * (col_cnt[x.col] - 1);
      const bool diag = x.row == x.col;
      const int p = row_pos[x.row];
      const int q = col_pos[x.col];
      bool better = cost < best_cost;
      if (cost == best_cost) {
        better = diag != best_diag ? diag : m != best_mag ? m > best_mag : earlier(p, q);
      }
      if (better) {
        best_cost = cost;
        best = e;
        best_p = p;
        best_q = q;
        best_diag = diag;
        best_mag = m;
      }
    };
    // The Markowitz search order: rows and columns of count 1, then of
    // count 2, ... Once every row and column of count <= c is seen, any
    // other entry costs at least c * c, so the search stops when that
    // exceeds the best cost (ties still compete: only a strictly higher
    // bound stops). The winner is the same as a full scan's because the
    // comparison is a total order on (cost, diagonal, magnitude, position).
    for (int c = 1; c <= n; ++c) {
      for (int r = row_buckets.first(c); r >= 0; r = row_buckets.next(r)) {
        for (int e = row_head[r]; e >= 0; e = ent[e].row_next) consider(e);
      }
      for (int col = col_buckets.first(c); col >= 0; col = col_buckets.next(col)) {
        for (int e = col_head[col]; e >= 0; e = ent[e].col_next) consider(e);
      }
      if (static_cast<long>(c) * c > best_cost) break;
    }
    if (best < 0) {
      // No candidate means no active entry has a positive magnitude (the
      // entry holding its column's maximum always passes the threshold).
      // Non-finite poison must propagate, matching the dense solver:
      // pivot on the first NaN in permuted row-major order; with none,
      // the matrix is singular.
      for (int p = k; p < n; ++p) {
        for (int e = row_head[row_orig_[p]]; e >= 0; e = ent[e].row_next) {
          const int q = col_pos[ent[e].col];
          if (!std::isfinite(ent[e].mag) && (best < 0 || earlier(p, q))) {
            best = e;
            best_p = p;
            best_q = q;
          }
        }
      }
      if (best < 0) {
        throw NumericError(singular_message("sparse", static_cast<size_t>(k),
                                            n_, scale,
                                            health::kSingularRelTol));
      }
    }

    // Bring the pivot to position (k, k).
    const int pr = ent[best].row;
    const int pcol = ent[best].col;
    if (best_p != k) {
      std::swap(row_orig_[k], row_orig_[best_p]);
      row_pos[row_orig_[k]] = k;
      row_pos[row_orig_[best_p]] = best_p;
    }
    if (best_q != k) {
      std::swap(col_orig_[k], col_orig_[best_q]);
      col_pos[col_orig_[k]] = k;
      col_pos[col_orig_[best_q]] = best_q;
    }

    // Structural elimination with numeric values along for the ride —
    // fill is decided by the pattern, never by value cancellation, so a
    // slot that happens to be 0.0 this time still reserves its storage.
    const T piv = ent[best].val;
    for (int e = col_head[pcol]; e >= 0; e = ent[e].col_next) {
      const int i = ent[e].row;
      if (i == pr) continue;
      const T m = ent[e].val / piv;
      ent[e].val = m;
      ++stamp;
      for (int f = row_head[i]; f >= 0; f = ent[f].row_next) {
        col_stamp[ent[f].col] = stamp;
        col_entry[ent[f].col] = f;
      }
      for (int u = row_head[pr]; u >= 0; u = ent[u].row_next) {
        const int j = ent[u].col;
        if (j == pcol) continue;
        int t = col_entry[j];
        if (col_stamp[j] != stamp) {
          t = add_entry(i, j, T{});
          ++fill;
        }
        ent[t].val -= m * ent[u].val;
        ent[t].mag = std::abs(ent[t].val);
      }
    }

    // Retire the pivot row and column from the active lists; the columns
    // of the pivot row lost an entry and changed values, so their maxima
    // are the only ones to refresh.
    for (int u = row_head[pr]; u >= 0; u = ent[u].row_next) unlink_col(u);
    for (int e = col_head[pcol]; e >= 0; e = ent[e].col_next) {
      unlink_row(e);
      row_buckets.move(ent[e].row, row_cnt[ent[e].row]);
    }
    row_buckets.remove(pr);
    col_buckets.remove(pcol);
    for (int u = row_head[pr]; u >= 0; u = ent[u].row_next) {
      const int j = ent[u].col;
      if (j == pcol) continue;
      col_buckets.move(j, col_cnt[j]);
      double cm = 0.0;
      for (int e = col_head[j]; e >= 0; e = ent[e].col_next) {
        if (ent[e].mag > cm) cm = ent[e].mag;
      }
      colmax[j] = cm;
    }
  }

  // Freeze the L + U pattern into CSR over permuted rows, columns
  // ascending: a counting sort of the entries by column position, then a
  // stable one by row position.
  const size_t total = ent.size();
  std::vector<int> by_col(total), next(n_ + 1, 0), slot_of(total);
  for (const Entry& x : ent) ++next[col_pos[x.col] + 1];
  for (size_t q = 0; q < n_; ++q) next[q + 1] += next[q];
  for (size_t e = 0; e < total; ++e) by_col[next[col_pos[ent[e].col]]++] = static_cast<int>(e);
  f_row_ptr_.assign(n_ + 1, 0);
  for (const Entry& x : ent) ++f_row_ptr_[row_pos[x.row] + 1];
  for (size_t p = 0; p < n_; ++p) f_row_ptr_[p + 1] += f_row_ptr_[p];
  std::copy(f_row_ptr_.begin(), f_row_ptr_.end() - 1, next.begin());
  f_cols_.resize(total);
  f_diag_.assign(n_, -1);
  for (int e : by_col) {
    const int p = row_pos[ent[e].row];
    const int q = col_pos[ent[e].col];
    const int slot = next[p]++;
    f_cols_[slot] = q;
    slot_of[e] = slot;
    if (p == q) f_diag_[p] = slot;
  }
  for (int i = 0; i < n; ++i) {
    if (f_diag_[i] < 0) {
      // Unreachable: the step-i pivot sits at (i, i) by construction.
      throw NumericError("sparse LU: missing diagonal in factor row " + std::to_string(i));
    }
  }
  f_vals_.assign(f_cols_.size(), T{});

  // Scatter map: original pattern slot -> factor slot.
  scatter_.assign(slot_of.begin(), slot_of.begin() + static_cast<std::ptrdiff_t>(pattern.nnz()));
  a_row_ptr_ = rp;
  row_max_.assign(n_, 0.0);

  // Compile the elimination program. The U-row slots of step k are the
  // contiguous factor slots (f_diag_[k], f_row_ptr_[k+1]); each pair
  // (step k, row i > k with an L entry in column k), ordered by k then
  // i, stores its multiplier slot plus destination slots aligned with
  // them. Pairs of step k all have the U-row length of k, so their
  // storage offsets follow from the per-column L counts; rows are then
  // walked in ascending order, each resolving its columns through a
  // column -> slot map.
  pair_ptr_.assign(n_ + 1, 0);
  for (int i = 0; i < n; ++i) {
    for (int slot = f_row_ptr_[i]; slot < f_diag_[i]; ++slot) ++pair_ptr_[f_cols_[slot] + 1];
  }
  for (size_t k = 0; k < n_; ++k) pair_ptr_[k + 1] += pair_ptr_[k];
  const size_t pairs = static_cast<size_t>(pair_ptr_[n_]);
  l_slot_.resize(pairs);
  dst_ptr_.resize(pairs + 1);
  size_t flops = 0;
  for (int k = 0; k < n; ++k) {
    const size_t ulen = static_cast<size_t>(f_row_ptr_[k + 1] - f_diag_[k] - 1);
    for (int p = pair_ptr_[k]; p < pair_ptr_[k + 1]; ++p) {
      dst_ptr_[p] = static_cast<int>(flops);
      flops += ulen;
    }
  }
  dst_ptr_[pairs] = static_cast<int>(flops);
  dst_.resize(flops);
  std::copy(pair_ptr_.begin(), pair_ptr_.end() - 1, next.begin());
  std::fill(col_stamp.begin(), col_stamp.end(), -1);
  for (int i = 0; i < n; ++i) {
    for (int slot = f_row_ptr_[i]; slot < f_row_ptr_[i + 1]; ++slot) {
      col_stamp[f_cols_[slot]] = i;
      col_entry[f_cols_[slot]] = slot;
    }
    for (int slot = f_row_ptr_[i]; slot < f_diag_[i]; ++slot) {
      const int k = f_cols_[slot];
      const int pair = next[k]++;
      l_slot_[pair] = slot;
      int* d = dst_.data() + dst_ptr_[pair];
      for (int us = f_diag_[k] + 1; us < f_row_ptr_[k + 1]; ++us) {
        if (col_stamp[f_cols_[us]] != i) {
          throw NumericError("sparse LU: internal pattern inconsistency");
        }
        *d++ = col_entry[f_cols_[us]];
      }
    }
  }

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
