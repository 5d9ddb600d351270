#include "src/estimator/verify.h"

#include <algorithm>
#include <cmath>

#include "src/spice/analysis.h"
#include "src/spice/devices.h"
#include "src/spice/measure.h"
#include "src/spice/parser.h"

namespace ape::est {
namespace {

using spice::AcResult;
using spice::Bode;
using spice::Circuit;
using spice::NodeId;

/// Bode of a (possibly differential) probe pair.
Bode probe_bode(const Circuit& ckt, const AcResult& ac, const Testbench& tb) {
  if (tb.out_node2.empty()) return Bode(ac, ckt.find_node(tb.out_node));
  // Differential: synthesize an AcResult holding v(out) - v(out2).
  AcResult diff;
  diff.freq_hz = ac.freq_hz;
  const NodeId p = ckt.find_node(tb.out_node);
  const NodeId n = ckt.find_node(tb.out_node2);
  for (size_t k = 0; k < ac.freq_hz.size(); ++k) {
    diff.solutions.push_back({ac.voltage(p, k) - ac.voltage(n, k)});
  }
  return Bode(diff, 0);
}

/// Signed low-frequency gain: magnitude with the sign of the real part.
double signed_dc_gain(const Circuit& ckt, const AcResult& ac, const Testbench& tb) {
  std::complex<double> h;
  if (tb.out_node2.empty()) {
    h = ac.voltage(ckt.find_node(tb.out_node), 0);
  } else {
    h = ac.voltage(ckt.find_node(tb.out_node), 0) -
        ac.voltage(ckt.find_node(tb.out_node2), 0);
  }
  const double mag = std::abs(h);
  return h.real() < 0.0 ? -mag : mag;
}

}  // namespace

SimMeasurement simulate(const Testbench& tb, double fstart, double fstop,
                        int points_per_decade) {
  Circuit ckt = spice::parse_netlist(tb.netlist);
  const auto sol = spice::dc_operating_point(ckt);

  SimMeasurement m;
  m.out_dc = spice::node_voltage(ckt, sol, tb.out_node);
  if (!tb.supply_source.empty()) {
    const double i = spice::source_current(ckt, sol, tb.supply_source);
    const double vdd = spice::node_voltage(
        ckt, sol, "vdd");  // supply node is "vdd" in all emitted benches
    m.power = std::fabs(i) * vdd;
  }
  if (!tb.in_source.empty()) {
    // DC current through the probe source (current-source components).
    m.out_current = std::fabs(spice::source_current(ckt, sol, tb.in_source));
  }

  const auto ac = spice::ac_analysis(ckt, fstart, fstop, points_per_decade);
  const Bode bode = probe_bode(ckt, ac, tb);
  m.dc_gain = signed_dc_gain(ckt, ac, tb);
  m.ugf_hz = bode.unity_gain_freq();
  m.f3db_hz = bode.f_3db();
  m.phase_margin = bode.phase_margin_deg();

  // Output impedance: when the probe is a voltage source with AC 1, the
  // AC current through its branch gives |Zout| = 1 / |I|.
  if (!tb.in_source.empty()) {
    auto& vs = ckt.find_as<spice::VSource>(tb.in_source);
    if (vs.wave().ac_mag != 0.0) {
      const auto i_ac = ac.solutions.front()[static_cast<size_t>(vs.branch())];
      const double mag = std::abs(i_ac);
      if (mag > 0.0) m.zout = vs.wave().ac_mag / mag;
    }
  }
  return m;
}

ComponentSimReport simulate_component(const ComponentDesign& design,
                                      const Process& proc) {
  const Testbench tb = design.testbench(proc);
  ComponentSimReport r;

  switch (design.spec.kind) {
    case ComponentKind::DcVolt: {
      const SimMeasurement m = simulate(tb, 1.0, 1e6, 10);
      r.power = m.power;
      r.gain = m.out_dc;  // the produced reference voltage
      r.current = m.power / proc.vdd;
      r.zout = 0.0;
      break;
    }
    case ComponentKind::CurrentMirror:
    case ComponentKind::WilsonSource:
    case ComponentKind::CascodeSource: {
      const SimMeasurement m = simulate(tb, 1.0, 1e6, 10);
      r.power = m.power;
      r.current = m.out_current;
      r.zout = m.zout;
      break;
    }
    default: {
      const SimMeasurement m = simulate(tb, 10.0, 1e10, 20);
      r.power = m.power;
      r.gain = m.dc_gain;
      // Sub-unity-gain stages (followers) report their bandwidth instead.
      r.ugf_hz = m.ugf_hz ? m.ugf_hz : m.f3db_hz;
      r.zout = m.zout;
      if (design.spec.kind == ComponentKind::Follower) {
        r.current = m.power / proc.vdd;  // total branch current drawn
      }
      // CMRR: second run with a common-mode stimulus.
      if (design.spec.kind == ComponentKind::DiffCmos ||
          design.spec.kind == ComponentKind::DiffNmos) {
        const Testbench cm = design.testbench(proc, TbMode::CommonMode);
        const SimMeasurement mc = simulate(cm, 10.0, 1e10, 20);
        if (std::fabs(mc.dc_gain) > 0.0) {
          r.cmrr_db = 20.0 * std::log10(std::fabs(m.dc_gain) /
                                        std::fabs(mc.dc_gain));
        }
        r.current = m.power / proc.vdd / 2.0;  // tail branch current
      }
      break;
    }
  }
  return r;
}

OpAmpSimReport simulate_opamp(const OpAmpDesign& design, const Process& proc,
                              bool with_transient) {
  ErrorContext scope("simulate_opamp");
  OpAmpSimReport r;

  // Open-loop AC: gain, UGF, phase margin, power, tail current.
  {
    const Testbench tb = design.testbench(proc, OpAmpTb::OpenLoop);
    Circuit ckt = spice::parse_netlist(tb.netlist);
    const auto sol = spice::dc_operating_point(ckt);
    r.out_dc = spice::node_voltage(ckt, sol, "out");
    r.power = std::fabs(spice::source_current(ckt, sol, "Vdd")) * proc.vdd;
    r.ibias = std::fabs(spice::source_current(ckt, sol, "Vtailx1"));
    const auto ac = spice::ac_analysis(ckt, 1.0, 1e9, 20);
    const Bode bode(ac, ckt.find_node("out"));
    r.gain = bode.dc_gain();
    r.ugf_hz = bode.unity_gain_freq();
    r.phase_margin = bode.phase_margin_deg();
  }

  // Common-mode AC for CMRR (non-fatal: a failed auxiliary measurement
  // leaves the field empty instead of discarding the open-loop results).
  try {
    const Testbench tb = design.testbench(proc, OpAmpTb::CommonMode);
    Circuit ckt = spice::parse_netlist(tb.netlist);
    (void)spice::dc_operating_point(ckt);
    const auto ac = spice::ac_analysis(ckt, 1.0, 1e3, 5);
    const double acm = std::abs(ac.voltage(ckt.find_node("out"), 0));
    if (acm > 0.0 && r.gain > 0.0) {
      r.cmrr_db = 20.0 * std::log10(r.gain / acm);
    }
  } catch (const Error&) {
  }

  // Output impedance (non-fatal).
  try {
    const Testbench tb = design.testbench(proc, OpAmpTb::ZoutProbe);
    Circuit ckt = spice::parse_netlist(tb.netlist);
    (void)spice::dc_operating_point(ckt);
    const auto ac = spice::ac_analysis(ckt, 1.0, 10.0, 5);
    r.zout = std::abs(ac.voltage(ckt.find_node("out"), 0));
  } catch (const Error&) {
  }

  // Unity-gain pulse for the slew rate. Non-fatal: transient
  // non-convergence reports slew = 0.
  if (with_transient) try {
    const Testbench tb = design.testbench(proc, OpAmpTb::UnityStep);
    Circuit ckt = spice::parse_netlist(tb.netlist);
    const UnityStepGrid grid = unity_step_grid(design);
    const auto tr = spice::transient(ckt, grid.t_step, grid.t_stop);
    r.slew = unity_step_slew(tr, ckt.find_node("out"), grid.fall_edge);
  } catch (const Error&) {
    r.slew = 0.0;
  }
  return r;
}

UnityStepGrid unity_step_grid(const OpAmpDesign& design) {
  const double est_slew = std::max(design.perf.slew, 1e3);
  const double pw = std::clamp(8.0 * 0.8 / est_slew, 2e-6, 5e-3);
  return {pw / 200.0, 1e-6 + 2.0 * pw, 1e-6 + pw};
}

double unity_step_slew(const spice::TranResult& tr, NodeId out, double fall_edge) {
  // 20-80% edge slew of the segment [k0, k1).
  auto edge_slew = [&](size_t k0, size_t k1) -> double {
    if (k1 <= k0 + 2) return 0.0;
    const double v0 = tr.voltage(out, k0);
    const double v1 = tr.voltage(out, k1 - 1);
    if (std::fabs(v1 - v0) < 0.1) return 0.0;
    const double lo = v0 + 0.2 * (v1 - v0);
    const double hi = v0 + 0.8 * (v1 - v0);
    double t_lo = -1.0, t_hi = -1.0;
    for (size_t k = k0 + 1; k < k1; ++k) {
      const double va = tr.voltage(out, k - 1), vb = tr.voltage(out, k);
      auto crosses = [&](double level) {
        return (va - level) * (vb - level) <= 0.0 && va != vb;
      };
      if (t_lo < 0.0 && crosses(lo)) {
        t_lo = tr.time_s[k - 1] + (lo - va) / (vb - va) *
                                      (tr.time_s[k] - tr.time_s[k - 1]);
      }
      if (t_lo >= 0.0 && crosses(hi)) {
        t_hi = tr.time_s[k - 1] + (hi - va) / (vb - va) *
                                      (tr.time_s[k] - tr.time_s[k - 1]);
        break;
      }
    }
    if (t_lo < 0.0 || t_hi <= t_lo) return 0.0;
    return 0.6 * std::fabs(v1 - v0) / (t_hi - t_lo);
  };

  // Split at the pulse's falling input edge.
  size_t split = tr.time_s.size() - 1;
  for (size_t k = 0; k < tr.time_s.size(); ++k) {
    if (tr.time_s[k] >= fall_edge) {
      split = k;
      break;
    }
  }
  const double rise = edge_slew(0, split);
  const double fall = edge_slew(split, tr.time_s.size());
  double slew = 0.0;
  if (rise > 0.0 && fall > 0.0) {
    slew = std::min(rise, fall);
  } else {
    slew = std::max(rise, fall);
  }
  return slew == 0.0 ? spice::slew_rate(tr, out) : slew;
}

}  // namespace ape::est
