#include "src/estimator/constraints.h"

#include <algorithm>
#include <cmath>

#include "src/spice/measure.h"
#include "src/util/error.h"

namespace ape::est {
namespace {

/// -3 dB corner of a product of responses, by bisection on a log grid.
/// Valid for buffered (non-loading) stage interfaces.
double composed_corner(const std::vector<spice::Bode>& stages, double f_lo,
                       double f_hi) {
  auto chain_mag = [&](double f) {
    double m = 1.0;
    for (const auto& b : stages) m *= b.mag_at(f);
    return m;
  };
  const double target = chain_mag(f_lo) / std::sqrt(2.0);
  double lo = f_lo, hi = f_hi;
  if (chain_mag(hi) > target) return hi;  // never drops: corner beyond sweep
  for (int i = 0; i < 60; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (chain_mag(mid) >= target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::sqrt(lo * hi);
}

void fill_totals(ChainAllocation& out, const Process& proc, double f_ref) {
  out.total_area = 0.0;
  out.total_power = 0.0;
  std::vector<spice::Bode> bodes;
  for (const auto& d : out.designs) {
    out.total_area += d.perf.gate_area;
    out.total_power += d.perf.dc_power;
    bodes.push_back(macro_bode(d, proc, f_ref * 1e-2, f_ref * 1e2, 20));
  }
  double g = 1.0;
  for (const auto& b : bodes) g *= b.mag_at(f_ref * 1e-2);
  out.system_gain = g;
  out.system_bw_hz = composed_corner(bodes, f_ref * 1e-2, f_ref * 1e2);
}

}  // namespace

ChainAllocation allocate_gain_chain(const Process& proc, double total_gain,
                                    double bw_hz, int n_stages,
                                    double area_budget) {
  if (total_gain <= 1.0 || n_stages < 1 || n_stages > 6 || bw_hz <= 0.0) {
    throw SpecError("allocate_gain_chain: bad system spec");
  }
  const ModuleEstimator me(proc);

  // Equal split in log-gain is area-optimal for identical stage types;
  // the transformation work is the bandwidth budget: each stage needs
  // BW_stage = BW_total / sqrt(2^(1/n) - 1).
  const double g_stage = std::pow(total_gain, 1.0 / n_stages);
  const double shrink = std::sqrt(std::pow(2.0, 1.0 / n_stages) - 1.0);
  const double bw_stage = bw_hz / shrink;

  ChainAllocation out;
  for (int i = 0; i < n_stages; ++i) {
    ModuleSpec s;
    s.kind = ModuleKind::InvertingAmp;
    s.gain = g_stage;
    s.bw_hz = bw_stage;
    out.stage_specs.push_back(s);
    out.designs.push_back(me.estimate(s));
    ++out.iterations;
  }
  fill_totals(out, proc, bw_hz);
  out.feasible = out.system_bw_hz >= bw_hz &&
                 out.system_gain >= 0.9 * total_gain &&
                 (area_budget <= 0.0 || out.total_area <= area_budget);
  return out;
}

ChainAllocation allocate_amp_filter_chain(const Process& proc, double gain,
                                          double f0_hz, double area_budget,
                                          double corner_tol) {
  if (gain <= 1.0 || f0_hz <= 0.0) {
    throw SpecError("allocate_amp_filter_chain: bad system spec");
  }
  const ModuleEstimator me(proc);

  ModuleSpec lpf;
  lpf.kind = ModuleKind::LowPassFilter;
  lpf.order = 4;
  lpf.f0_hz = f0_hz;
  const ModuleDesign lpf_design = me.estimate(lpf);
  const spice::Bode lpf_bode =
      macro_bode(lpf_design, proc, f0_hz * 1e-2, f0_hz * 1e2, 20);

  // Directed interval search on the amplifier bandwidth multiplier k:
  // widen until the composed corner stops sagging below the filter's own
  // corner (the transformed constraint is then "amp BW >= k f0").
  ChainAllocation out;
  double k = 2.0;
  for (int iter = 0; iter < 12; ++iter) {
    ++out.iterations;
    ModuleSpec amp;
    amp.kind = ModuleKind::InvertingAmp;
    amp.gain = gain;
    amp.bw_hz = k * f0_hz;
    const ModuleDesign amp_design = me.estimate(amp);
    const spice::Bode amp_bode =
        macro_bode(amp_design, proc, f0_hz * 1e-2, f0_hz * 1e2, 20);
    const double fc =
        composed_corner({amp_bode, lpf_bode}, f0_hz * 1e-2, f0_hz * 1e2);
    const double lpf_corner = lpf_bode.f_3db().value_or(f0_hz);

    out.stage_specs = {amp.kind == ModuleKind::InvertingAmp ? amp : amp, lpf};
    out.designs = {amp_design, lpf_design};
    if (fc >= (1.0 - corner_tol) * lpf_corner) {
      fill_totals(out, proc, f0_hz);
      out.feasible =
          (area_budget <= 0.0 || out.total_area <= area_budget);
      return out;
    }
    k *= 1.5;
  }
  fill_totals(out, proc, f0_hz);
  out.feasible = false;
  return out;
}

}  // namespace ape::est
