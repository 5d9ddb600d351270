#include "src/estimator/components.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"
#include "src/util/units.h"

namespace ape::est {
namespace {

using spice::MosType;

constexpr double kTwoPi = 2.0 * M_PI;

/// Default overdrives per role - classic analog sizing habits.
constexpr double kVovMirror = 0.35;
constexpr double kVovCascode = 0.25;
constexpr double kVovTail = 0.2;
constexpr double kVovPair = 0.2;
constexpr double kVovLoad = 0.25;
constexpr double kVovFollower = 0.3;

double sum_area(const std::vector<TransistorDesign>& ts) {
  double a = 0.0;
  for (const auto& t : ts) a += t.gate_area();
  return a;
}

double db(double ratio) { return 20.0 * std::log10(std::max(ratio, 1e-12)); }

}  // namespace

const char* to_string(ComponentKind kind) {
  switch (kind) {
    case ComponentKind::DcVolt: return "DCVolt";
    case ComponentKind::CurrentMirror: return "CurrMirr";
    case ComponentKind::WilsonSource: return "Wilson";
    case ComponentKind::CascodeSource: return "Cascode";
    case ComponentKind::GainNmos: return "GainNMOS";
    case ComponentKind::GainCmos: return "GainCMOS";
    case ComponentKind::GainCmosHalf: return "GainCMOSH";
    case ComponentKind::Follower: return "Follower";
    case ComponentKind::DiffNmos: return "DiffNMOS";
    case ComponentKind::DiffCmos: return "DiffCMOS";
  }
  return "?";
}

TransistorDesign ComponentEstimator::device_at_vgs(MosType type, double id,
                                                   double vgs, double vds,
                                                   double vbs, double l) const {
  const auto& card = proc_.card(type);
  const double w0 = proc_.wmin;
  const double i0 = spice::mos_ids_gm(card, vgs, vds, vbs, w0, l).ids;
  if (i0 <= 0.0) {
    throw SpecError(std::string("device_at_vgs: device off at vgs=") +
                    units::format_eng(vgs) + "V");
  }
  double w = w0 * id / i0;
  if (w < proc_.wmin) {
    // Trade length for width (Ids ~ W/L).
    l = std::min(l * proc_.wmin / w, 256.0 * proc_.lmin);
    w = proc_.wmin;
  }
  if (w > proc_.wmax) throw SpecError("device_at_vgs: W beyond process limit");
  return xtor_.evaluate(type, w, l, vgs, vds, vbs);
}

ComponentDesign ComponentEstimator::estimate(const ComponentSpec& spec) const {
  switch (spec.kind) {
    case ComponentKind::DcVolt: return dc_volt(spec);
    case ComponentKind::CurrentMirror: return current_mirror(spec);
    case ComponentKind::WilsonSource: return wilson(spec);
    case ComponentKind::CascodeSource: return cascode(spec);
    case ComponentKind::GainNmos:
    case ComponentKind::GainCmos:
    case ComponentKind::GainCmosHalf: return gain_stage(spec);
    case ComponentKind::Follower: return follower(spec);
    case ComponentKind::DiffNmos:
    case ComponentKind::DiffCmos: return diff_pair(spec);
  }
  throw LookupError("unknown component kind");
}

// --- DCVolt -------------------------------------------------------------

ComponentDesign ComponentEstimator::dc_volt(const ComponentSpec& s) const {
  const double vdd = proc_.vdd;
  if (s.vref <= 0.2 || s.vref >= vdd - 0.2) {
    throw SpecError("DcVolt: vref must sit inside the supply");
  }
  // Complementary diode divider: PMOS diode from VDD to out, NMOS diode
  // from out to ground; both conduct ibias with Vgs fixed by vref.
  const double l = 2.0 * proc_.lmin;
  TransistorDesign nd = device_at_vgs(MosType::Nmos, s.ibias, s.vref, s.vref, 0.0, l);
  TransistorDesign pd =
      device_at_vgs(MosType::Pmos, s.ibias, vdd - s.vref, vdd - s.vref, 0.0, l);

  ComponentDesign d;
  d.spec = s;
  d.transistors = {pd, nd};
  d.roles = {"pdiode", "ndiode"};
  d.perf.gate_area = sum_area(d.transistors);
  d.perf.dc_power = vdd * s.ibias;
  d.perf.gain = s.vref;  // Table 2 reports the produced voltage here
  d.perf.current = s.ibias;
  d.perf.zout = 1.0 / (nd.gm + pd.gm + nd.gds + pd.gds);
  return d;
}

// --- Current mirrors ------------------------------------------------------

ComponentDesign ComponentEstimator::current_mirror(const ComponentSpec& s) const {
  const double l = 2.0 * proc_.lmin;
  // Reference (diode-connected) device: Vds = Vgs.
  TransistorDesign ref = xtor_.size_for_id_vov(MosType::Nmos, s.ibias,
                                               kVovMirror, /*vds=*/-1.0, 0.0, l);
  ref = xtor_.evaluate(MosType::Nmos, ref.w, ref.l, ref.vgs, ref.vgs, 0.0);
  // Output device: same geometry, Vds at mid-rail.
  TransistorDesign out = xtor_.evaluate(MosType::Nmos, ref.w, ref.l, ref.vgs,
                                        0.5 * proc_.vdd, 0.0);
  ComponentDesign d;
  d.spec = s;
  d.transistors = {ref, out};
  d.roles = {"ref", "out"};
  d.perf.gate_area = sum_area(d.transistors);
  d.perf.dc_power = proc_.vdd * s.ibias;  // reference branch
  d.perf.current = out.id;  // includes the lambda-induced copy error
  d.perf.zout = 1.0 / out.gds;
  return d;
}

ComponentDesign ComponentEstimator::wilson(const ComponentSpec& s) const {
  const double l = 2.0 * proc_.lmin;
  // Diode device M2 sets node b; cascode M3 rides on top of it.
  TransistorDesign m2 = xtor_.size_for_id_vov(MosType::Nmos, s.ibias,
                                              kVovCascode, -1.0, 0.0, l);
  m2 = xtor_.evaluate(MosType::Nmos, m2.w, m2.l, m2.vgs, m2.vgs, 0.0);
  const double vb = m2.vgs;
  // M3: source at vb, body effect applies; find its Vgs for Ibias.
  const double vout = 0.5 * proc_.vdd;
  const double vgs3 =
      xtor_.vgs_for_id(MosType::Nmos, m2.w, l, s.ibias, vout - vb, -vb);
  TransistorDesign m3 =
      xtor_.evaluate(MosType::Nmos, m2.w, l, vgs3, vout - vb, -vb);
  const double va = vb + vgs3;
  // M1: input device, gate at b, drain at a.
  TransistorDesign m1 = xtor_.evaluate(MosType::Nmos, m2.w, l, m2.vgs, va, 0.0);

  ComponentDesign d;
  d.spec = s;
  d.transistors = {m1, m2, m3};
  d.roles = {"m1_in", "m2_diode", "m3_casc"};
  d.perf.gate_area = sum_area(d.transistors);
  d.perf.dc_power = proc_.vdd * s.ibias;
  d.perf.current = m3.id;
  // Wilson output impedance ~ gm3 ro3 ro1 / 2 (feedback-boosted).
  d.perf.zout = 0.5 * m3.gm / (m3.gds * m1.gds);
  return d;
}

ComponentDesign ComponentEstimator::cascode(const ComponentSpec& s) const {
  const double l = 2.0 * proc_.lmin;
  TransistorDesign mref = xtor_.size_for_id_vov(MosType::Nmos, s.ibias,
                                                kVovCascode, -1.0, 0.0, l);
  mref = xtor_.evaluate(MosType::Nmos, mref.w, mref.l, mref.vgs, mref.vgs, 0.0);
  const double v1 = mref.vgs;
  // Stacked reference diode: source sits at v1.
  const double vgs_c =
      xtor_.vgs_for_id(MosType::Nmos, mref.w, l, s.ibias, v1, -v1);
  TransistorDesign mrefc =
      xtor_.evaluate(MosType::Nmos, mref.w, l, vgs_c, vgs_c, -v1);
  // Output pair mirrors both gates.
  TransistorDesign mout = xtor_.evaluate(MosType::Nmos, mref.w, l, mref.vgs, v1, 0.0);
  TransistorDesign moutc = xtor_.evaluate(MosType::Nmos, mref.w, l, vgs_c,
                                          0.5 * proc_.vdd - v1, -v1);
  ComponentDesign d;
  d.spec = s;
  d.transistors = {mref, mrefc, mout, moutc};
  d.roles = {"ref", "refc", "out", "outc"};
  d.perf.gate_area = sum_area(d.transistors);
  d.perf.dc_power = proc_.vdd * s.ibias;
  d.perf.current = moutc.id;
  d.perf.zout = moutc.gm / (moutc.gds * mout.gds);
  return d;
}

// --- Single-ended gain stages ----------------------------------------------

ComponentDesign ComponentEstimator::gain_stage(const ComponentSpec& s) const {
  const double vdd = proc_.vdd;
  const double l = 2.0 * proc_.lmin;
  const bool nmos_load = (s.kind == ComponentKind::GainNmos);
  const double i = (s.kind == ComponentKind::GainCmosHalf) ? 0.4 * s.ibias
                                                           : s.ibias;
  if (s.gain <= 0.0) throw SpecError("gain_stage: gain magnitude must be > 0");

  TransistorDesign driver, load;
  double vout_dc = 0.5 * vdd;

  if (nmos_load) {
    // NMOS diode load from VDD (gate = drain = VDD, source = output).
    load = device_at_vgs(MosType::Nmos, i, vdd - vout_dc, vdd - vout_dc,
                         -vout_dc, l);
    double gds_d = 0.0;
    for (int it = 0; it < 4; ++it) {
      const double gload = load.gm + load.gmb + load.gds + gds_d;
      const double gm_d = s.gain * gload;
      try {
        driver = xtor_.size_for_gm_id(MosType::Nmos, gm_d, i, vout_dc, 0.0, l);
      } catch (const SpecError& e) {
        throw SpecError(std::string("GainNMOS: gain ") +
                        units::format_eng(s.gain) + " infeasible: " + e.what());
      }
      gds_d = driver.gds;
    }
  } else {
    // PMOS diode load: gain ~ vov_p / vov_d; spread the overdrives so the
    // ratio is reachable inside the supply.
    const double vov_p_max = 0.5 * vdd - std::fabs(proc_.pmos.vto) - 0.2;
    double vov_d = std::clamp(vov_p_max / (1.3 * s.gain), 0.06, 0.3);
    driver = xtor_.size_for_id_vov(MosType::Nmos, i, vov_d, vout_dc, 0.0, l);
    double gds_extra = driver.gds;
    double vov_p = 0.0;
    for (int it = 0; it < 4; ++it) {
      const double gm_p = driver.gm / s.gain - gds_extra;
      if (gm_p <= 0.0) {
        throw SpecError("GainCMOS: gain " + units::format_eng(s.gain) +
                        " infeasible with this bias");
      }
      vov_p = 2.0 * i / gm_p;
      if (vov_p > vov_p_max) {
        throw SpecError("GainCMOS: gain " + units::format_eng(s.gain) +
                        " requires load overdrive beyond the supply");
      }
      vov_p = std::max(vov_p, 0.06);
      load = xtor_.size_for_id_vov(MosType::Pmos, i, vov_p,
                                   /*vds=*/std::fabs(proc_.pmos.vto) + vov_p,
                                   0.0, l);
      gds_extra = driver.gds + load.gds;
    }
    vout_dc = vdd - load.vgs;
    driver = xtor_.evaluate(MosType::Nmos, driver.w, driver.l, driver.vgs,
                            vout_dc, 0.0);
  }

  ComponentDesign d;
  d.spec = s;
  d.transistors = {driver, load};
  d.roles = {"driver", "load"};
  d.input_dc = driver.vgs;

  const double gload = nmos_load
                           ? load.gm + load.gmb + load.gds + driver.gds
                           : load.gm + load.gds + driver.gds;
  const double cout = s.cload + driver.cdb + load.csb + load.cdb +
                      (nmos_load ? load.cgs : load.cgs + load.cgd);
  d.perf.gain = -driver.gm / gload;
  d.perf.zout = 1.0 / gload;
  d.perf.ugf_hz = driver.gm / (kTwoPi * cout);
  d.perf.dc_power = vdd * i;
  d.perf.gate_area = sum_area(d.transistors);
  d.perf.slew = i / cout;
  d.perf.cin = driver.cgs + (1.0 + std::fabs(d.perf.gain)) * driver.cgd;
  return d;
}

// --- Source follower --------------------------------------------------------

ComponentDesign ComponentEstimator::follower(const ComponentSpec& s) const {
  const double vdd = proc_.vdd;
  const double l = 2.0 * proc_.lmin;
  const double vout = 0.5 * vdd;

  TransistorDesign sf = xtor_.size_for_id_vov(MosType::Nmos, s.ibias,
                                              kVovFollower, vdd - vout, -vout, l);
  // Sink mirror: 1:5 ratio keeps the reference branch cheap.
  const double iref = s.ibias / 5.0;
  TransistorDesign sink_ref =
      xtor_.size_for_id_vov(MosType::Nmos, iref, kVovMirror, -1.0, 0.0, l);
  sink_ref = xtor_.evaluate(MosType::Nmos, sink_ref.w, sink_ref.l, sink_ref.vgs,
                            sink_ref.vgs, 0.0);
  TransistorDesign sink = xtor_.evaluate(MosType::Nmos, 5.0 * sink_ref.w,
                                         sink_ref.l, sink_ref.vgs, vout, 0.0);

  ComponentDesign d;
  d.spec = s;
  d.transistors = {sf, sink, sink_ref};
  d.roles = {"sf", "sink", "sink_ref"};
  d.input_dc = vout + sf.vgs;
  if (d.input_dc > vdd) {
    throw SpecError("Follower: input bias above the supply; reduce Vov");
  }
  const double gtot = sf.gm + sf.gmb + sf.gds + sink.gds;
  const double cout = s.cload + sf.csb + sink.cdb;
  d.perf.gain = sf.gm / gtot;
  d.perf.zout = 1.0 / gtot;
  d.perf.ugf_hz = gtot / (kTwoPi * cout);  // follower bandwidth
  d.perf.dc_power = vdd * (s.ibias + iref);
  d.perf.gate_area = sum_area(d.transistors);
  d.perf.current = s.ibias;
  d.perf.slew = s.ibias / cout;  // sink-limited falling edge
  d.perf.cin = sf.cgd + (1.0 - d.perf.gain) * sf.cgs;
  return d;
}

// --- Differential pairs -----------------------------------------------------

ComponentDesign ComponentEstimator::diff_pair(const ComponentSpec& s) const {
  const double vdd = proc_.vdd;
  const bool cmos_load = (s.kind == ComponentKind::DiffCmos);
  const double itail = s.ibias;
  const double ibr = 0.5 * itail;
  const double vtail = 0.3;
  if (s.gain <= 0.0) throw SpecError("diff_pair: gain target must be > 0");

  TransistorDesign pair, load_a, load_b, tail, tail_ref;
  double vout_dc = 0.0;

  if (cmos_load) {
    // Mirror-loaded pair (paper eqs. 5-7): Adm = gm_i / (gds_i + gds_l).
    // Pick the channel length that supplies the required output resistance:
    // with the lref extension, gds ~ lambda*lref/Leff * Id.
    const double gm_i = 2.0 * ibr / kVovPair;
    const double gds_needed = gm_i / s.gain;
    const double lam_n = proc_.nmos.lambda * (proc_.nmos.lref > 0 ? proc_.nmos.lref : proc_.nmos.leff(2 * proc_.lmin));
    const double lam_p = proc_.pmos.lambda * (proc_.pmos.lref > 0 ? proc_.pmos.lref : proc_.pmos.leff(2 * proc_.lmin));
    double leff = (lam_n + lam_p) * ibr / gds_needed;
    double lch = std::clamp(leff + proc_.nmos.ld + proc_.pmos.ld,
                            2.0 * proc_.lmin, 64.0 * proc_.lmin);
    if (proc_.nmos.lref <= 0.0) lch = 2.0 * proc_.lmin;  // plain level-1 card

    // Load mirror (PMOS): diode side fixes Vsg.
    load_a = xtor_.size_for_id_vov(MosType::Pmos, ibr, kVovLoad, -1.0, 0.0, lch);
    load_a = xtor_.evaluate(MosType::Pmos, load_a.w, load_a.l, load_a.vgs,
                            load_a.vgs, 0.0);
    vout_dc = vdd - load_a.vgs;
    load_b = xtor_.evaluate(MosType::Pmos, load_a.w, load_a.l, load_a.vgs,
                            vdd - vout_dc, 0.0);
    pair = xtor_.size_for_id_vov(MosType::Nmos, ibr, kVovPair,
                                 vout_dc - vtail, -vtail, lch);
  } else {
    // NMOS diode loads: Adm = gm_i / (gm_l + gmb_l + gds_i + gds_l).
    const double l = 2.0 * proc_.lmin;
    vout_dc = vdd - 1.9;  // generous load Vgs: high load Vov buys gain room
    load_a = device_at_vgs(MosType::Nmos, ibr, vdd - vout_dc, vdd - vout_dc,
                           -vout_dc, l);
    load_b = load_a;
    double gds_i = 0.0;
    for (int it = 0; it < 4; ++it) {
      const double gload = load_a.gm + load_a.gmb + load_a.gds + gds_i;
      const double gm_i = s.gain * gload;
      try {
        pair = xtor_.size_for_gm_id(MosType::Nmos, gm_i, ibr,
                                    vout_dc - vtail, -vtail, l);
      } catch (const SpecError& e) {
        throw SpecError(std::string("DiffNMOS: gain ") +
                        units::format_eng(s.gain) + " infeasible: " + e.what());
      }
      gds_i = pair.gds;
    }
  }

  // Tail mirror (1:1).
  const double ltail = 4.0 * proc_.lmin;
  tail_ref =
      xtor_.size_for_id_vov(MosType::Nmos, itail, kVovTail, -1.0, 0.0, ltail);
  tail_ref = xtor_.evaluate(MosType::Nmos, tail_ref.w, tail_ref.l,
                            tail_ref.vgs, tail_ref.vgs, 0.0);
  tail = xtor_.evaluate(MosType::Nmos, tail_ref.w, tail_ref.l, tail_ref.vgs,
                        vtail, 0.0);

  ComponentDesign d;
  d.spec = s;
  d.transistors = {pair, pair, load_a, load_b, tail, tail_ref};
  d.roles = {"pair_p", "pair_n", "load_a", "load_b", "tail", "tail_ref"};
  d.input_dc = vtail + pair.vgs;

  const double cout = s.cload + pair.cdb + load_b.cdb +
                      (cmos_load ? load_b.cgd : load_b.cgs);
  if (cmos_load) {
    d.perf.gain = pair.gm / (pair.gds + load_b.gds);          // eq. (5)
    // eq. (7): CMRR = 2 gm_i gm_l / (g0 gd_i).
    d.perf.cmrr_db =
        db(2.0 * pair.gm * load_a.gm / (tail.gds * pair.gds));
  } else {
    d.perf.gain = -pair.gm / (load_a.gm + load_a.gmb + load_a.gds + pair.gds);
    d.perf.cmrr_db = db(2.0 * pair.gm * load_a.gm / (tail.gds * pair.gds));
  }
  d.perf.ugf_hz = pair.gm / (kTwoPi * cout);
  d.perf.dc_power = vdd * (itail + itail);  // tail + its reference branch
  d.perf.gate_area = sum_area(d.transistors);
  d.perf.current = itail;
  d.perf.zout = cmos_load ? 1.0 / (pair.gds + load_b.gds)
                          : 1.0 / (load_a.gm + load_a.gmb);
  d.perf.slew = itail / cout;
  d.perf.cin = pair.cgs + 2.0 * pair.cgd;
  return d;
}

}  // namespace ape::est
