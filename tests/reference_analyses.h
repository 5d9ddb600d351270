#pragma once
/// \file reference_analyses.h
/// Reference implementations: the pre-kernel analysis algorithms, kept
/// verbatim (minus probes / reporting; plus the .nodeset Seeded plan that
/// dc_operating_point tries first) as the ground truth the compiled path
/// must reproduce.
///
/// Shared by the kernel equivalence suite (tests/kernel_test.cpp) and the
/// transient bypass tests (tests/spice_tran_test.cpp). ref_transient is
/// the full-Newton definition: every device is re-evaluated through
/// Device::stamp_tran on every iteration, with no bypass and no factor
/// reuse.

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "src/spice/analysis.h"
#include "src/spice/circuit.h"
#include "src/util/matrix.h"

namespace ape::test {

using spice::AcResult;
using spice::Circuit;
using spice::MnaComplex;
using spice::MnaReal;
using spice::NodeId;
using spice::Solution;
using spice::TranContext;
using spice::TranResult;
using spice::kAbstol;
using spice::kDcMaxIterations;
using spice::kGminSteps;
using spice::kMaxDampingRatio;
using spice::kMaxStepHalvings;
using spice::kReltol;
using spice::kSeededMaxIterations;
using spice::kSourceSteps;
using spice::kTranMaxIterations;
using spice::kVntol;
using spice::kVstepLimit;

inline bool ref_all_finite(const std::vector<double>& v) {
  for (double e : v) {
    if (!std::isfinite(e)) return false;
  }
  return true;
}

inline bool ref_newton_dc(Circuit& ckt, Solution& x, double gmin, double src_scale,
                          int max_iterations = kDcMaxIterations) {
  const size_t dim = ckt.dim();
  const size_t n_nodes = ckt.num_nodes();
  MnaReal mna(dim);
  for (int iter = 0; iter < max_iterations; ++iter) {
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
      if (dv > kVstepLimit) max_ratio = std::max(max_ratio, dv / kVstepLimit);
    }
    max_ratio = std::min(max_ratio, kMaxDampingRatio);
    for (size_t i = 0; i < dim; ++i) {
      const double step = (xnew[i] - x.x[i]) / max_ratio;
      const double next = x.x[i] + step;
      const double tol = (i < n_nodes)
                             ? kVntol + kReltol * std::max(std::fabs(next), std::fabs(x.x[i]))
                             : kAbstol + kReltol * std::max(std::fabs(next), std::fabs(x.x[i]));
      if (std::fabs(step) > tol) converged = false;
      x.x[i] = next;
    }
    if (converged && max_ratio == 1.0 && iter > 0) return true;
  }
  return false;
}

inline Solution ref_dc_operating_point(Circuit& ckt) {
  ckt.finalize();
  Solution x;
  x.x.assign(ckt.dim(), 0.0);
  bool ok = false;
  if (!ckt.nodesets().empty()) {
    for (const Circuit::NodeSet& ns : ckt.nodesets()) {
      x.x[static_cast<size_t>(ns.node)] = ns.volts;
    }
    ok = ref_newton_dc(ckt, x, kGminSteps.back(), 1.0, kSeededMaxIterations);
    if (!ok) x.x.assign(ckt.dim(), 0.0);
  }
  if (!ok) {
    ok = true;
    for (double gmin : kGminSteps) {
      if (!ref_newton_dc(ckt, x, gmin, 1.0)) {
        ok = false;
        break;
      }
    }
  }
  if (!ok) {
    x.x.assign(ckt.dim(), 0.0);
    ok = true;
    for (double s : kSourceSteps) {
      if (!ref_newton_dc(ckt, x, 1e-9, s)) {
        ok = false;
        break;
      }
    }
    if (ok) {
      for (double gmin : kGminSteps) {
        if (!ref_newton_dc(ckt, x, gmin, 1.0)) {
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

inline AcResult ref_ac_analysis(Circuit& ckt, double f_start, double f_stop,
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

inline TranResult ref_transient(Circuit& ckt, double t_step, double t_stop) {
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
      for (int iter = 0; iter < kTranMaxIterations; ++iter) {
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
          const double tol = kVntol + kReltol *
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
      if (++halvings > kMaxStepHalvings) {
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

}  // namespace ape::test
