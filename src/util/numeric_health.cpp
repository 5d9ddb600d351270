#include "src/util/numeric_health.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <limits>

namespace ape {

namespace {

double abs_of(double v) { return std::abs(v); }
double abs_of(const std::complex<double>& v) { return std::abs(v); }

/// The infinity-norm magnitude: |re| + |im| for complex values.
double inf_mag(double v) { return std::abs(v); }
double inf_mag(const std::complex<double>& v) {
  return std::abs(v.real()) + std::abs(v.imag());
}

/// Elementwise sign for Hager's probe: y/|y|, 1 where y == 0.
double sign_of(double v) { return v >= 0.0 ? 1.0 : -1.0; }
std::complex<double> sign_of(const std::complex<double>& v) {
  const double m = std::abs(v);
  return m > 0.0 ? v / m : std::complex<double>(1.0, 0.0);
}

template <typename T>
bool all_finite_vec(const std::vector<T>& v) {
  for (const T& x : v) {
    if (!std::isfinite(abs_of(x))) return false;
  }
  return true;
}

}  // namespace

std::string NumericHealth::summary() const {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "health: cond~%.3g growth=%.3g resid=%.3g refine_iters=%d%s%s",
                cond_estimate, pivot_growth, residual_norm,
                refinement_iterations, equilibrated ? " equilibrated" : "",
                recovered ? " recovered" : "");
  return buf;
}

std::string singular_message(const char* kernel, size_t step, size_t dim,
                             double scale, double rel_tol) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%s LU: singular pivot at step %zu of %zu "
                "(|pivot| <= %.3g; max|a| %.3g, rel_tol %.3g)",
                kernel, step, dim, scale * rel_tol, scale, rel_tol);
  return buf;
}

double pow2_scale(double magnitude) {
  if (!(magnitude > 0.0) || !std::isfinite(magnitude)) return 1.0;
  // 2^-round(log2(m)): maps m into [1/sqrt(2), sqrt(2)) exactly.
  const int e = static_cast<int>(std::lround(std::log2(magnitude)));
  return std::ldexp(1.0, -e);
}

template <typename T>
bool compute_equilibration(const T* a, size_t n, std::vector<double>& row_scale,
                           std::vector<double>& col_scale) {
  row_scale.assign(n, 1.0);
  col_scale.assign(n, 1.0);
  if (n == 0) return false;
  for (size_t i = 0; i < n; ++i) {
    double m = 0.0;
    const T* row = a + i * n;
    for (size_t j = 0; j < n; ++j) m = std::max(m, abs_of(row[j]));
    row_scale[i] = pow2_scale(m);
  }
  for (size_t j = 0; j < n; ++j) {
    double m = 0.0;
    for (size_t i = 0; i < n; ++i) {
      m = std::max(m, abs_of(a[i * n + j]) * row_scale[i]);
    }
    col_scale[j] = pow2_scale(m);
  }
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(row_scale[i]) || !std::isfinite(col_scale[i]) ||
        row_scale[i] <= 0.0 || col_scale[i] <= 0.0) {
      row_scale.assign(n, 1.0);
      col_scale.assign(n, 1.0);
      return false;
    }
  }
  return true;
}

template <typename T>
bool compute_equilibration_csr(const int* row_ptr, const int* cols,
                               const T* vals, size_t n,
                               std::vector<double>& row_scale,
                               std::vector<double>& col_scale) {
  row_scale.assign(n, 1.0);
  col_scale.assign(n, 1.0);
  if (n == 0) return false;
  for (size_t i = 0; i < n; ++i) {
    double m = 0.0;
    for (int s = row_ptr[i]; s < row_ptr[i + 1]; ++s) {
      m = std::max(m, abs_of(vals[s]));
    }
    row_scale[i] = pow2_scale(m);
  }
  std::vector<double> colmax(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (int s = row_ptr[i]; s < row_ptr[i + 1]; ++s) {
      colmax[cols[s]] = std::max(colmax[cols[s]], abs_of(vals[s]) * row_scale[i]);
    }
  }
  for (size_t j = 0; j < n; ++j) col_scale[j] = pow2_scale(colmax[j]);
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(row_scale[i]) || !std::isfinite(col_scale[i]) ||
        row_scale[i] <= 0.0 || col_scale[i] <= 0.0) {
      row_scale.assign(n, 1.0);
      col_scale.assign(n, 1.0);
      return false;
    }
  }
  return true;
}

template <typename T>
void scale_dense(T* a, size_t n, const std::vector<double>& row_scale,
                 const std::vector<double>& col_scale) {
  for (size_t i = 0; i < n; ++i) {
    T* row = a + i * n;
    const double r = row_scale[i];
    for (size_t j = 0; j < n; ++j) row[j] *= r * col_scale[j];
  }
}

template <typename T>
void unscale_dense(T* a, size_t n, const std::vector<double>& row_scale,
                   const std::vector<double>& col_scale) {
  for (size_t i = 0; i < n; ++i) {
    T* row = a + i * n;
    const double r = row_scale[i];
    for (size_t j = 0; j < n; ++j) row[j] /= r * col_scale[j];
  }
}

template <typename T>
void scale_csr(const int* row_ptr, const int* cols, T* vals, size_t n,
               const std::vector<double>& row_scale,
               const std::vector<double>& col_scale) {
  for (size_t i = 0; i < n; ++i) {
    const double r = row_scale[i];
    for (int s = row_ptr[i]; s < row_ptr[i + 1]; ++s) {
      vals[s] *= r * col_scale[cols[s]];
    }
  }
}

template <typename T>
void scale_vector(std::vector<T>& v, const std::vector<double>& s) {
  for (size_t i = 0; i < v.size(); ++i) v[i] *= s[i];
}

template <typename T>
void unscale_vector(std::vector<T>& v, const std::vector<double>& s) {
  for (size_t i = 0; i < v.size(); ++i) v[i] /= s[i];
}

template <typename T>
double norm1_dense(const T* a, size_t n, std::vector<double>& col_sums) {
  col_sums.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const T* row = a + i * n;
    for (size_t j = 0; j < n; ++j) col_sums[j] += abs_of(row[j]);
  }
  double m = 0.0;
  for (double s : col_sums) m = std::max(m, s);
  return m;
}

template <typename T>
double norm1_csr(const int* row_ptr, const int* cols, const T* vals, size_t n,
                 std::vector<double>& col_sums) {
  col_sums.assign(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (int s = row_ptr[i]; s < row_ptr[i + 1]; ++s) {
      col_sums[cols[s]] += abs_of(vals[s]);
    }
  }
  double m = 0.0;
  for (double s : col_sums) m = std::max(m, s);
  return m;
}

template <typename T>
double norm_inf_dense(const T* a, size_t n) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    const T* row = a + i * n;
    for (size_t j = 0; j < n; ++j) s += inf_mag(row[j]);
    m = std::max(m, s);
  }
  return m;
}

template <typename T>
double norm_inf_csr(const int* row_ptr, const T* vals, size_t n) {
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (int slot = row_ptr[i]; slot < row_ptr[i + 1]; ++slot) {
      s += inf_mag(vals[slot]);
    }
    m = std::max(m, s);
  }
  return m;
}

template <typename T>
double norm_inf_vec(const std::vector<T>& v) {
  double m = 0.0;
  for (const T& x : v) m = std::max(m, inf_mag(x));
  return m;
}

template <typename T>
double condest_1norm(size_t n, double anorm1,
                     const std::function<void(std::vector<T>&)>& solve,
                     const std::function<void(std::vector<T>&)>& solve_t,
                     std::vector<T>& work) {
  if (n == 0) return 0.0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // A^-H probe: for real T this is the plain transpose solve; for
  // complex T conjugate around the transpose solve.
  auto solve_adj = [&](std::vector<T>& v) {
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      for (T& x : v) x = std::conj(x);
      solve_t(v);
      for (T& x : v) x = std::conj(x);
    } else {
      solve_t(v);
    }
  };
  work.assign(n, T(1.0 / static_cast<double>(n)));
  double est = 0.0;
  size_t last_j = n;  // sentinel: no unit vector chosen yet
  for (int iter = 0; iter < 5; ++iter) {
    // y = A^-1 x (in place).
    solve(work);
    if (!all_finite_vec(work)) return kInf;
    double y1 = 0.0;
    for (const T& v : work) y1 += abs_of(v);
    est = std::max(est, y1);
    // z = A^-H sign(y).
    for (T& v : work) v = sign_of(v);
    solve_adj(work);
    if (!all_finite_vec(work)) return kInf;
    size_t j = 0;
    double zmax = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double m = abs_of(work[i]);
      if (m > zmax) {
        zmax = m;
        j = i;
      }
    }
    // Converged when the dual probe stops finding a steeper direction.
    if (iter > 0 && (zmax <= est || j == last_j)) break;
    last_j = j;
    work.assign(n, T{});
    work[j] = T(1.0);
  }
  return anorm1 * est;
}

// Explicit instantiations for the two MNA value types.
#define APE_HEALTH_INSTANTIATE(T)                                            \
  template bool compute_equilibration<T>(const T*, size_t,                   \
                                         std::vector<double>&,               \
                                         std::vector<double>&);              \
  template bool compute_equilibration_csr<T>(                                \
      const int*, const int*, const T*, size_t, std::vector<double>&,        \
      std::vector<double>&);                                                 \
  template void scale_dense<T>(T*, size_t, const std::vector<double>&,       \
                               const std::vector<double>&);                  \
  template void unscale_dense<T>(T*, size_t, const std::vector<double>&,     \
                                 const std::vector<double>&);                \
  template void scale_csr<T>(const int*, const int*, T*, size_t,             \
                             const std::vector<double>&,                     \
                             const std::vector<double>&);                    \
  template void scale_vector<T>(std::vector<T>&,                             \
                                const std::vector<double>&);                 \
  template void unscale_vector<T>(std::vector<T>&,                           \
                                  const std::vector<double>&);               \
  template double norm1_dense<T>(const T*, size_t, std::vector<double>&);    \
  template double norm1_csr<T>(const int*, const int*, const T*, size_t,     \
                               std::vector<double>&);                        \
  template double norm_inf_dense<T>(const T*, size_t);                       \
  template double norm_inf_csr<T>(const int*, const T*, size_t);             \
  template double norm_inf_vec<T>(const std::vector<T>&);                    \
  template double condest_1norm<T>(                                          \
      size_t, double, const std::function<void(std::vector<T>&)>&,           \
      const std::function<void(std::vector<T>&)>&, std::vector<T>&)

APE_HEALTH_INSTANTIATE(double);
APE_HEALTH_INSTANTIATE(std::complex<double>);

#undef APE_HEALTH_INSTANTIATE

}  // namespace ape
