#include "src/synth/awe.h"

#include <algorithm>
#include <cmath>

#include "src/spice/device.h"
#include "src/spice/kernel.h"
#include "src/util/error.h"
#include "src/util/matrix.h"
#include "src/util/poly.h"
#include "src/util/sparse.h"

namespace ape::synth {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

}  // namespace

std::complex<double> AweModel::eval(double f_hz) const {
  const std::complex<double> s{0.0, kTwoPi * f_hz};
  std::complex<double> h{0.0, 0.0};
  for (size_t i = 0; i < poles_.size(); ++i) h += residues_[i] / (s - poles_[i]);
  return h;
}

namespace {

/// First downward crossing of |H| through `level` on a log grid + bisection.
double mag_crossing(const AweModel& m, double level, double f_max) {
  double f_prev = 1e-2;
  double mag_prev = std::abs(m.eval(f_prev));
  for (double f = 1e-2; f <= f_max; f *= 1.2) {
    const double mag = std::abs(m.eval(f));
    if (mag_prev >= level && mag < level) {
      // Bisect inside [f_prev, f].
      double lo = f_prev, hi = f;
      for (int i = 0; i < 60; ++i) {
        const double mid = std::sqrt(lo * hi);
        if (std::abs(m.eval(mid)) >= level) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      return std::sqrt(lo * hi);
    }
    f_prev = f;
    mag_prev = mag;
  }
  return 0.0;
}

}  // namespace

double AweModel::unity_gain_freq(double f_max) const {
  return mag_crossing(*this, 1.0, f_max);
}

double AweModel::f_3db(double f_max) const {
  return mag_crossing(*this, std::fabs(m0_) / std::sqrt(2.0), f_max);
}

AweModel awe_reduce(
    spice::Circuit& ckt, const std::string& out_node, int q,
    const std::vector<std::string>& exclude,
    const std::vector<std::pair<std::string, double>>& ground_ties) {
  if (q < 1 || q > 10) throw SpecError("awe_reduce: order q must be 1..10");
  ckt.finalize();
  const size_t dim = ckt.dim();
  const spice::NodeId out = ckt.find_node(out_node);
  if (out == spice::kGround) throw SpecError("awe_reduce: output is ground");

  auto excluded = [&](const spice::Device& d) {
    for (const auto& name : exclude) {
      if (d.name() == name) return true;
    }
    return false;
  };

  // Extract G, C and the stimulus vector from two complex AC stamps:
  // A(w) = G + jwC, so G = Re A(0) and C = Im A(1 rad/s).
  spice::MnaComplex mna(dim);
  mna.clear();
  for (const auto& dev : ckt.devices()) {
    if (!excluded(*dev)) dev->stamp_ac(mna, 0.0);
  }
  RealMatrix g(dim, dim);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) g(i, j) = mna.matrix()(i, j).real();
    g(i, i) += 1e-12;  // same floating-node guard as the AC analysis
  }
  for (const auto& [node, cond] : ground_ties) {
    const spice::NodeId n = ckt.find_node(node);
    if (n != spice::kGround) {
      g(static_cast<size_t>(n), static_cast<size_t>(n)) += cond;
    }
  }
  std::vector<double> b(dim);
  for (size_t i = 0; i < dim; ++i) b[i] = mna.rhs()[i].real();

  mna.clear();
  for (const auto& dev : ckt.devices()) {
    if (!excluded(*dev)) dev->stamp_ac(mna, 1.0);
  }
  RealMatrix c(dim, dim);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) c(i, j) = mna.matrix()(i, j).imag();
  }

  // Moment recursion: one factorization, 2q in-place solves. Only the
  // latest moment vector is needed, so two reused buffers replace the
  // old per-order allocations (the recursion only ever reads m_cur).
  //
  // Large reduced networks (interconnect ladders) go through the sparse
  // LU and a CSR matvec for C, selected by the same crossover policy as
  // the MNA kernel. A plain value scan is a safe pattern source here —
  // unlike the Newton kernel, G and C are fixed for the whole reduction,
  // so a zero entry can never "turn on" later.
  SparsePattern gp(dim);
  std::vector<double> gvals;
  std::vector<int> c_rp, c_cols;
  std::vector<double> c_vals;
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      if (g(i, j) != 0.0) gp.add(static_cast<int>(i), static_cast<int>(j));
    }
  }
  gp.finalize();
  const bool use_sparse = spice::kernel_policy().wants_sparse(dim, gp.density());
  LuSolver<double> lu;
  SparseLuReal slu;
  if (use_sparse) {
    gvals.resize(gp.nnz());
    for (size_t i = 0; i < dim; ++i) {
      for (int s = gp.row_ptr()[i]; s < gp.row_ptr()[i + 1]; ++s) {
        gvals[s] = g(i, static_cast<size_t>(gp.cols()[s]));
      }
    }
    slu.factorize(gp, gvals);
    c_rp.assign(dim + 1, 0);
    for (size_t i = 0; i < dim; ++i) {
      for (size_t j = 0; j < dim; ++j) {
        if (c(i, j) != 0.0) {
          c_cols.push_back(static_cast<int>(j));
          c_vals.push_back(c(i, j));
        }
      }
      c_rp[i + 1] = static_cast<int>(c_cols.size());
    }
  } else {
    lu.factorize(g);
  }
  auto solve = [&](const std::vector<double>& rhs_in, std::vector<double>& x_out) {
    if (use_sparse) {
      slu.solve_into(rhs_in, x_out);
    } else {
      lu.solve_into(rhs_in, x_out);
    }
  };
  std::vector<double> m_cur(dim), mrhs(dim);
  solve(b, m_cur);
  std::vector<double> mu;
  mu.reserve(static_cast<size_t>(2 * q));
  mu.push_back(m_cur[static_cast<size_t>(out)]);
  for (int k = 1; k < 2 * q; ++k) {
    if (use_sparse) {
      for (size_t i = 0; i < dim; ++i) {
        double acc = 0.0;
        for (int s = c_rp[i]; s < c_rp[i + 1]; ++s) {
          acc += c_vals[s] * m_cur[static_cast<size_t>(c_cols[s])];
        }
        mrhs[i] = -acc;
      }
    } else {
      for (size_t i = 0; i < dim; ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < dim; ++j) acc += c(i, j) * m_cur[j];
        mrhs[i] = -acc;
      }
    }
    solve(mrhs, m_cur);
    mu.push_back(m_cur[static_cast<size_t>(out)]);
  }

  // Scale the moment series (moments grow like 1/|p_dom|^k) to keep the
  // Pade solve well-conditioned: work with nu_k = mu_k * s0^k where
  // s0 ~ |mu_0 / mu_1| approximates the dominant pole.
  const double s0 = (std::fabs(mu[1]) > 0.0 && std::fabs(mu[0]) > 0.0)
                        ? std::fabs(mu[0] / mu[1])
                        : 1.0;
  std::vector<double> nu(mu.size());
  double scale = 1.0;
  for (size_t k = 0; k < mu.size(); ++k) {
    nu[k] = mu[k] * scale;
    scale *= s0;
  }

  // A network with fewer poles than q makes the higher-order Hankel
  // systems rank-deficient (pade_denominator rejects them) and can push
  // the scaled moments of a lone fast pole past the double range. Fit the
  // largest order whose moments are finite and whose solve is sound.
  std::vector<double> bpade;
  for (int order = q; bpade.empty(); --order) {
    const std::vector<double> head(nu.begin(), nu.begin() + 2 * order);
    const bool finite = std::all_of(head.begin(), head.end(),
                                    [](double v) { return std::isfinite(v); });
    try {
      if (!finite) throw NumericError("awe_reduce: moments overflow");
      bpade = pade_denominator(head, order);
    } catch (const NumericError&) {
      if (order == 1) throw;
    }
  }
  // D(z) = 1 + b1 z + ... + bq z^q in z = s/s0; poles: roots scaled by s0.
  std::vector<double> dpoly{1.0};
  dpoly.insert(dpoly.end(), bpade.begin(), bpade.end());
  const auto zroots = poly_roots(dpoly);

  AweModel model;
  model.m0_ = mu[0];
  for (const auto& z : zroots) {
    // z is a root of D(s/s0): pole p = s0 / z ... D expressed in z = s/s0
    // with coefficients of z^k, so s_pole = z * s0? D(z)=0 at z=z_i and
    // z = s/s0 => s_i = z_i * s0.
    model.poles_.push_back(z * s0);
  }

  // Residues from the first n moments, one per pole:
  //   mu_k = -sum_i r_i / p_i^{k+1}
  const size_t n = model.poles_.size();
  ComplexMatrix a(n, n);
  std::vector<std::complex<double>> rhs(n);
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      a(k, i) = -1.0 / std::pow(model.poles_[i], static_cast<int>(k) + 1);
    }
    rhs[k] = std::complex<double>{mu[k], 0.0};
  }
  LuSolver<std::complex<double>> rlu(a);
  model.residues_ = rlu.solve(rhs);
  return model;
}

}  // namespace ape::synth
