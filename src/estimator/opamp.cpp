#include "src/estimator/opamp.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"
#include "src/util/units.h"

namespace ape::est {
namespace {

using spice::MosType;

constexpr double kTwoPi = 2.0 * M_PI;
constexpr double kVovLoad2 = 0.25;   // mirror load = 2nd stage overdrive
constexpr double kVovTailO = 0.25;   // tail / bias mirror overdrive
constexpr double kVovBuffer = 0.3;   // output follower overdrive

/// Channel length that delivers a target total gds at a branch current,
/// using the lref Early-voltage extension (see mos_model.h).
double length_for_gds(const Process& p, double i_branch, double gds_total) {
  const double num = (p.nmos.lambda * p.nmos.lref + p.pmos.lambda * p.pmos.lref) *
                     i_branch;
  double l = num / std::max(gds_total, 1e-15);
  return std::clamp(l, 2.0 * p.lmin, 256.0 * p.lmin);
}

/// A mirror output device: same Vgs as \p ref, W/Leff scaled by \p ratio.
/// If the implied width pins at the process minimum the length stretches
/// instead, preserving the current ratio.
TransistorDesign mirror_device(const TransistorEstimator& x, const Process& p,
                               MosType type, const TransistorDesign& ref,
                               double ratio, double vds, double l = -1.0) {
  const auto& card = p.card(type);
  if (l < 0.0) l = ref.l;
  double w = ratio * ref.w * card.leff(l) / card.leff(ref.l);
  if (w < p.wmin) {
    // Stretch L to keep W/Leff: leff = wmin * leff_ref / (ratio * wref).
    const double leff = p.wmin * card.leff(ref.l) / (ratio * ref.w);
    l = std::min(leff + 2.0 * card.ld, 256.0 * p.lmin);
    w = p.wmin;
  }
  if (w > p.wmax) throw SpecError("OpAmp: mirror device exceeds max width");
  return x.evaluate(type, w, l, ref.vgs, vds, 0.0);
}

}  // namespace

SmallSignal small_signal(const TransistorDesign& t) {
  return {t.gm, t.gds, t.gmb, t.cgd, t.cdb};
}

SmallSignal small_signal(const spice::MosEval& e) {
  return {e.gm, e.gds, e.gmb, e.cgd, e.cdb};
}

double second_stage_load(bool buffered, double cload) {
  return buffered ? 2e-12 : cload;
}

OpAmpPerf compose_two_stage(const TwoStagePoint& p) {
  const SmallSignal& m6 = p.m6;
  const SmallSignal& m9 = p.m9;
  // The follower's output conductance: gm + gmb of M9 plus both drains.
  const double g_buf = m9.gm + m9.gmb + m9.gds + p.m10.gds;
  // The guards only bind at the synthesis evaluator's wild geometries.
  const double a1 = p.m1.gm / std::max(p.m1.gds + p.m4.gds, 1e-15);
  const double a2 = m6.gm / std::max(m6.gds + p.m7.gds, 1e-15);
  const double ab = p.buffered ? m9.gm / std::max(g_buf, 1e-15) : 1.0;

  OpAmpPerf perf;
  perf.gain = a1 * a2 * ab;
  const double fp2 = m6.gm / (kTwoPi * (p.cl2 + m6.cdb + p.m7.cdb));
  const double fpb = p.buffered ? g_buf / (kTwoPi * p.cload) : 1e18;
  const double u0 = p.gm_ugf / (kTwoPi * (p.cc + m6.cgd));
  double fu = u0;
  for (int i = 0; i < 4; ++i) {
    fu = u0 / std::sqrt((1.0 + (fu / fp2) * (fu / fp2)) *
                        (1.0 + (fu / fpb) * (fu / fpb)));
  }
  perf.ugf_hz = fu;
  perf.phase_margin = 90.0 - std::atan(fu / fp2) * 180.0 / M_PI;
  perf.dc_power = p.vdd * (p.ibias + p.itail + p.i6 + p.i9);
  perf.slew = std::min(p.itail / p.cc, p.i6 / (p.cl2 + p.cc));
  if (p.buffered) perf.slew = std::min(perf.slew, p.i9 / p.cload);
  perf.zout = p.buffered ? 1.0 / std::max(g_buf, 1e-15)
                         : 1.0 / std::max(m6.gds + p.m7.gds, 1e-15);
  return perf;
}

OpAmpDesign OpAmpEstimator::estimate(const OpAmpSpec& spec) const {
  ErrorContext scope("opamp-estimator");
  // Iterate the gm1 margin so the parasitic-corrected UGF estimate meets
  // the spec (the raw gm1/(2 pi Cc) formula overshoots by the Miller
  // overlap of M6 and the second-pole magnitude droop).
  double k = 1.0;
  OpAmpDesign d = build(spec, k);
  for (int pass = 0; pass < 3; ++pass) {
    if (d.perf.ugf_hz <= 0.0) break;
    if (std::fabs(d.perf.ugf_hz / spec.ugf_hz - 1.0) < 0.02) break;
    k *= std::clamp(spec.ugf_hz / d.perf.ugf_hz, 0.5, 2.0);
    d = build(spec, k);
  }
  return d;
}

OpAmpDesign OpAmpEstimator::build(const OpAmpSpec& spec, double ugf_margin) const {
  if (spec.gain <= 1.0) throw SpecError("OpAmp: gain target must exceed 1");
  if (spec.ugf_hz <= 0.0) throw SpecError("OpAmp: UGF target must be positive");
  if (spec.ibias <= 0.0) throw SpecError("OpAmp: Ibias must be positive");
  if (spec.cload <= 0.0) throw SpecError("OpAmp: load capacitance required");
  const double vdd = proc_.vdd;

  // --- 1. Compensation and first-stage transconductance --------------------
  const double cc = std::clamp(0.25 * spec.cload, 0.2e-12, 50e-12);
  const double gm1 = kTwoPi * spec.ugf_hz * cc * ugf_margin;

  // --- 2. Tail current: mirror ratio m places Vov1 near 0.2 V --------------
  double m_ratio = std::clamp(gm1 * 0.2 / spec.ibias, 0.25, 32.0);
  double itail = m_ratio * spec.ibias;
  const double vov1 = itail / gm1;
  if (vov1 < 0.05 || vov1 > 1.2) {
    throw SpecError("OpAmp: UGF " + units::format_eng(spec.ugf_hz) +
                    "Hz infeasible at Ibias " + units::format_eng(spec.ibias) +
                    "A (implied pair Vov=" + units::format_eng(vov1) + "V)");
  }
  const double i1 = 0.5 * itail;

  // --- 3. Gain budget -------------------------------------------------------
  const double a_buf = spec.buffer ? 0.85 : 1.0;
  const double a_need = spec.gain / a_buf;
  const double a_stage = std::sqrt(a_need);

  // --- 4. First stage -------------------------------------------------------
  const bool wilson = (spec.source == CurrentSourceKind::Wilson);
  const double l1 = length_for_gds(proc_, i1, gm1 / a_stage);

  // Mirror load (PMOS), diode side fixes Vsg; its Vov is shared with the
  // second stage for systematic-offset matching.
  TransistorDesign m3 =
      xtor_.size_for_id_vov(MosType::Pmos, i1, kVovLoad2, -1.0, 0.0, l1);
  m3 = xtor_.evaluate(MosType::Pmos, m3.w, m3.l, m3.vgs, m3.vgs, 0.0);
  const double o1_dc = vdd - m3.vgs;
  TransistorDesign m4 =
      xtor_.evaluate(MosType::Pmos, m3.w, m3.l, m3.vgs, m3.vgs, 0.0);

  // Tail voltage: one Vdsat for the simple mirror, a diode + Vdsat for
  // the Wilson (it stacks two devices).
  double vtail = 0.3;
  TransistorDesign w_in, w_diode, w_casc;  // Wilson devices
  TransistorDesign m8, m5;                 // simple-mirror devices
  if (wilson) {
    w_in = xtor_.size_for_id_vov(MosType::Nmos, spec.ibias, kVovTailO, -1.0,
                                 0.0, 2.0 * proc_.lmin);
    // Diode M2w carries m*Ibias at the same Vov with a m-scaled W/Leff.
    w_diode = mirror_device(xtor_, proc_, MosType::Nmos, w_in, m_ratio,
                            w_in.vgs);
    const double vb = w_diode.vgs;
    vtail = vb + 0.35;
    const double vgs3w = xtor_.vgs_for_id(MosType::Nmos, w_diode.w, w_diode.l,
                                          itail, vtail - vb, -vb);
    w_casc = xtor_.evaluate(MosType::Nmos, w_diode.w, w_diode.l, vgs3w,
                            vtail - vb, -vb);
    // Input device sits at va = vb + vgs3w.
    w_in = xtor_.evaluate(MosType::Nmos, w_in.w, w_in.l, w_in.vgs, vb + vgs3w,
                          0.0);
  } else {
    m8 = xtor_.size_for_id_vov(MosType::Nmos, spec.ibias, kVovTailO, -1.0, 0.0,
                               4.0 * proc_.lmin);
    m8 = xtor_.evaluate(MosType::Nmos, m8.w, m8.l, m8.vgs, m8.vgs, 0.0);
    m5 = mirror_device(xtor_, proc_, MosType::Nmos, m8, m_ratio, vtail);
  }

  // Input pair.
  TransistorDesign m1;
  try {
    m1 = xtor_.size_for_gm_id(MosType::Nmos, gm1, i1, o1_dc - vtail, -vtail, l1);
  } catch (const SpecError& e) {
    throw SpecError(std::string("OpAmp: input pair infeasible: ") + e.what());
  }
  TransistorDesign m2 = m1;

  // --- 5. Second stage -------------------------------------------------------
  const double cl2 = second_stage_load(spec.buffer, spec.cload);
  const double gm6 = 2.5 * gm1 * std::max(cl2, cc) / cc;
  const double i6 = 0.5 * gm6 * kVovLoad2;
  const double l2 = length_for_gds(proc_, i6, gm6 / a_stage);
  TransistorDesign m6 =
      xtor_.size_for_id_vov(MosType::Pmos, i6, kVovLoad2, 0.5 * vdd, 0.0, l2);
  // Second-stage sink mirrors the bias diode; match W/Leff ratio to I6.
  TransistorDesign m7;
  if (wilson) {
    m7 = mirror_device(xtor_, proc_, MosType::Nmos, w_diode,
                       i6 / (m_ratio * spec.ibias), 0.5 * vdd, l2);
  } else {
    m7 = mirror_device(xtor_, proc_, MosType::Nmos, m8, i6 / spec.ibias,
                       0.5 * vdd, l2);
  }

  // --- 6. Output buffer -------------------------------------------------------
  TransistorDesign m9, m10;
  double i9 = 0.0, out_dc = 0.5 * vdd;
  if (spec.buffer) {
    double gm9;
    if (spec.zout > 0.0) {
      gm9 = (1.0 / spec.zout) / 1.12;  // gmb eats ~12% of the conductance
    } else {
      gm9 = 2.0 * (0.5 * i6) / kVovBuffer;
    }
    // The follower's output pole gm9/CL must clear the UGF or it erases
    // the crossing; Zout is an upper bound, so overshoot it when needed.
    gm9 = std::max(gm9, 3.0 * kTwoPi * spec.ugf_hz * spec.cload);
    i9 = 0.5 * gm9 * kVovBuffer;
    if (i9 < spec.ibias) i9 = spec.ibias;  // keep the branch biased sanely
    const double out2_dc = 0.5 * vdd;
    // Follower output rides one Vgs below the second-stage output.
    TransistorDesign probe = xtor_.size_for_id_vov(
        MosType::Nmos, i9, kVovBuffer, 1.0, -(out2_dc - 1.4), 2.0 * proc_.lmin);
    out_dc = out2_dc - probe.vgs;
    try {
      m9 = xtor_.size_for_id_vov(MosType::Nmos, i9, kVovBuffer, vdd - out_dc,
                                 -out_dc, 2.0 * proc_.lmin);
    } catch (const SpecError& e) {
      throw SpecError(std::string("OpAmp: buffer infeasible: ") + e.what());
    }
    out_dc = out2_dc - m9.vgs;
    const TransistorDesign& bias_ref = wilson ? w_diode : m8;
    const double iref_dev = wilson ? m_ratio * spec.ibias : spec.ibias;
    m10 = mirror_device(xtor_, proc_, MosType::Nmos, bias_ref, i9 / iref_dev,
                        out_dc, 2.0 * proc_.lmin);
  }

  // --- 7. Compose performance -------------------------------------------------
  OpAmpDesign d;
  d.spec = spec;
  d.transistors = {m1, m2, m3, m4, m6, m7};
  d.roles = {"m1", "m2", "m3", "m4", "m6", "m7"};
  if (wilson) {
    d.transistors.insert(d.transistors.end(), {w_in, w_diode, w_casc});
    d.roles.insert(d.roles.end(), {"w_in", "w_diode", "w_casc"});
  } else {
    d.transistors.insert(d.transistors.end(), {m5, m8});
    d.roles.insert(d.roles.end(), {"m5", "m8"});
  }
  if (spec.buffer) {
    d.transistors.insert(d.transistors.end(), {m9, m10});
    d.roles.insert(d.roles.end(), {"m9", "m10"});
  }

  d.perf = compose_two_stage(
      {.m1 = small_signal(m1), .m4 = small_signal(m4), .m6 = small_signal(m6),
       .m7 = small_signal(m7), .m9 = small_signal(m9), .m10 = small_signal(m10),
       .buffered = spec.buffer, .gm_ugf = gm1, .cc = cc, .cl2 = cl2,
       .cload = spec.cload, .vdd = vdd, .ibias = spec.ibias, .itail = itail,
       .i6 = i6, .i9 = i9});
  double area = 0.0;
  for (const auto& t : d.transistors) area += t.gate_area();
  d.perf.gate_area = area;
  d.perf.ibias = itail;
  const double a1 = m1.gm / (m1.gds + m4.gds);
  const double tail_gds = wilson
                              ? w_casc.gds * w_diode.gm / (w_casc.gm)  // boosted
                              : m5.gds;
  d.perf.cmrr_db =
      20.0 * std::log10(std::max(a1 * 2.0 * m3.gm / tail_gds, 1e-12));
  // Input-referred white noise: both input devices plus the mirror load
  // referred through gm1 (channel thermal, gamma = 2/3).
  {
    const double k4kt = 4.0 * 1.380649e-23 * 300.0;
    d.perf.input_noise_v2 =
        2.0 * k4kt * (2.0 / 3.0) / m1.gm * (1.0 + m3.gm / m1.gm);
  }
  d.perf.cc = cc;
  d.perf.rz = 1.0 / m6.gm;
  d.perf.input_cm = vtail + m1.vgs;
  return d;
}

void OpAmpSpec::to_json(json::Writer& w) const {
  w.field("gain", gain)
      .field("ugf_hz", ugf_hz)
      .field("ibias", ibias)
      .field("cload", cload)
      .field("zout", zout)
      .field("area_budget", area_budget)
      .field("buffer", buffer)
      .field("source", source == CurrentSourceKind::Wilson ? "wilson" : "mirror");
}

void OpAmpPerf::to_json(json::Writer& w) const {
  w.field("gain", gain)
      .field("ugf_hz", ugf_hz)
      .field("phase_margin", phase_margin)
      .field("dc_power", dc_power)
      .field("gate_area", gate_area)
      .field("ibias", ibias)
      .field("zout", zout)
      .field("cmrr_db", cmrr_db)
      .field("slew", slew)
      .field("input_noise_v2", input_noise_v2)
      .field("cc", cc)
      .field("rz", rz)
      .field("input_cm", input_cm);
}

}  // namespace ape::est
