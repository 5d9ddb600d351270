#include "src/estimator/transistor.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"
#include "src/util/units.h"

namespace ape::est {
namespace {

using spice::MosEval;
using spice::MosModelCard;
using spice::MosType;

constexpr double kMinVov = 0.05;  ///< below this the device is subthreshold
constexpr int kRefineIters = 12;

/// Longest drawn length we will trade for width feasibility.
double lmax_for(const Process& p) { return 256.0 * p.lmin; }

}  // namespace

double TransistorEstimator::vgs_for_id(MosType type, double w, double l,
                                       double id, double vds, double vbs) const {
  const MosModelCard& card = proc_.card(type);
  if (id <= 0.0) throw SpecError("vgs_for_id: non-positive current");
  // ids is monotonically increasing in vgs. Safeguarded Newton on
  // f(vgs) = ids(vgs) - id using the model's central-difference gm: ~6-10
  // model evaluations instead of the 80 a full-precision bisection needs
  // (this is the estimator's hottest loop — every sizing refinement lands
  // here). mos_ids_gm skips the gds/gmb probes and capacitances nothing
  // here reads. The [lo, hi] bracket guarantees progress where gm
  // vanishes (cutoff).
  double lo = 0.0, hi = 3.0 * proc_.vdd + 5.0;
  const double i_hi = spice::mos_ids_gm(card, hi, vds, vbs, w, l).ids;
  if (i_hi < id) {
    throw SpecError("vgs_for_id: " + units::format_eng(id) +
                    "A unreachable with W=" + units::format_eng(w) +
                    " L=" + units::format_eng(l));
  }
  // Square-law seed: vgs ~ |Vto| + sqrt(2 Id Leff / (KP W)).
  const double kp = card.kp > 0.0 ? card.kp : card.u0 * 1e-4 * card.cox();
  double vgs = std::fabs(card.vto) + std::sqrt(2.0 * id * card.leff(l) / (kp * w));
  if (!std::isfinite(vgs) || vgs <= lo || vgs >= hi) vgs = 0.5 * (lo + hi);
  for (int i = 0; i < 100; ++i) {
    const spice::MosIdGm e = spice::mos_ids_gm(card, vgs, vds, vbs, w, l);
    const double f = e.ids - id;
    if (std::fabs(f) <= 1e-12 * id) break;
    if (f < 0.0) {
      lo = vgs;
    } else {
      hi = vgs;
    }
    if (hi - lo <= 1e-14 * (1.0 + hi)) break;
    double next = e.gm > 0.0 ? vgs - f / e.gm : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);  // Newton left the bracket
    if (std::fabs(next - vgs) <= 1e-15 * (1.0 + std::fabs(vgs))) {
      vgs = next;
      break;
    }
    vgs = next;
  }
  return vgs;
}

TransistorDesign design_from_eval(MosType type, double w, double l,
                                  const MosEval& e, double vgs, double vds,
                                  double vbs) {
  TransistorDesign d;
  d.type = type;
  d.w = w;
  d.l = l;
  d.id = e.ids;
  d.vgs = vgs;
  d.vds = vds;
  d.vbs = vbs;
  d.vth = e.vth;
  d.vdsat = e.vdsat;
  d.gm = e.gm;
  d.gds = e.gds;
  d.gmb = e.gmb;
  d.cgs = e.cgs;
  d.cgd = e.cgd;
  d.cgb = e.cgb;
  d.cdb = e.cdb;
  d.csb = e.csb;
  return d;
}

TransistorDesign TransistorEstimator::finish(MosType type, double w, double l,
                                             double vgs, double vds,
                                             double vbs) const {
  const MosEval e = spice::mos_eval(proc_.card(type), vgs, vds, vbs, w, l,
                                    3.0 * l * w, 3.0 * l * w,
                                    2.0 * (3.0 * l + w), 2.0 * (3.0 * l + w));
  return design_from_eval(type, w, l, e, vgs, vds, vbs);
}

TransistorDesign TransistorEstimator::evaluate(MosType type, double w, double l,
                                               double vgs, double vds,
                                               double vbs) const {
  if (w < proc_.wmin || l < proc_.lmin) {
    throw SpecError("evaluate: geometry below process minimum");
  }
  return finish(type, w, l, vgs, vds, vbs);
}

TransistorDesign TransistorEstimator::size_for_gm_id(MosType type, double gm,
                                                     double id, double vds,
                                                     double vbs, double l) const {
  if (gm <= 0.0 || id <= 0.0) {
    throw SpecError("size_for_gm_id: gm and Id must be positive");
  }
  const MosModelCard& card = proc_.card(type);
  if (vds < 0.0) vds = 0.5 * (proc_.vdd - proc_.vss);
  if (l < 0.0) l = 2.0 * proc_.lmin;

  // Feasibility: Vov = 2 Id / gm must keep the device in strong inversion
  // and within the supply.
  const double vov = 2.0 * id / gm;
  if (vov < kMinVov) {
    throw SpecError("size_for_gm_id: implied Vov=" + units::format_eng(vov) +
                    "V is subthreshold (gm too large for Id)");
  }
  if (std::fabs(card.vto) + vov > proc_.vdd - proc_.vss) {
    throw SpecError("size_for_gm_id: implied Vgs exceeds the supply");
  }

  // Closed-form level-1 seed (paper eq. 2): W/L = gm^2 / (2 KP Id).
  const double kp = card.kp > 0.0 ? card.kp : card.u0 * 1e-4 * card.cox();
  double w = (gm * gm / (2.0 * kp * id)) * card.leff(l);

  // Width feasibility: trade length for width if the seed is too narrow.
  if (w < proc_.wmin) {
    const double scale = proc_.wmin / w;
    l = std::min(l * scale, lmax_for(proc_));
    w = proc_.wmin;
  }
  if (w > proc_.wmax) {
    throw SpecError("size_for_gm_id: required W=" + units::format_eng(w) +
                    " exceeds process maximum");
  }

  // Numeric refinement against the actual model card (handles LEVEL 2/3
  // mobility degradation and body effect): at fixed Id, gm ~ sqrt(W).
  double vgs = 0.0;
  for (int it = 0; it < kRefineIters; ++it) {
    vgs = vgs_for_id(type, w, l, id, vds, vbs);
    const double gm_meas = spice::mos_ids_gm(card, vgs, vds, vbs, w, l).gm;
    if (std::fabs(gm_meas - gm) <= 1e-3 * gm) break;
    double w_next = w * (gm / gm_meas) * (gm / gm_meas);
    w_next = std::clamp(w_next, proc_.wmin, proc_.wmax);
    if (w_next == w) {
      // Pinned at the width floor with gm overshooting: stretch L instead
      // (gm ~ sqrt(W/L) at fixed Id).
      if (w == proc_.wmin && gm_meas > gm) {
        const double l_next =
            std::min(l * (gm_meas / gm) * (gm_meas / gm), lmax_for(proc_));
        if (l_next == l) break;
        l = l_next;
        continue;
      }
      break;
    }
    w = w_next;
  }
  return finish(type, w, l, vgs, vds, vbs);
}

TransistorDesign TransistorEstimator::size_for_id_vov(MosType type, double id,
                                                      double vov, double vds,
                                                      double vbs, double l) const {
  if (id <= 0.0 || vov < kMinVov) {
    throw SpecError("size_for_id_vov: need Id > 0 and Vov >= " +
                    units::format_eng(kMinVov) + "V");
  }
  const MosModelCard& card = proc_.card(type);
  if (vds < 0.0) vds = 0.5 * (proc_.vdd - proc_.vss);
  if (l < 0.0) l = 2.0 * proc_.lmin;

  const double kp = card.kp > 0.0 ? card.kp : card.u0 * 1e-4 * card.cox();
  double w = (2.0 * id / (kp * vov * vov)) * card.leff(l);
  if (w < proc_.wmin) {
    const double scale = proc_.wmin / w;
    l = std::min(l * scale, lmax_for(proc_));
    w = proc_.wmin;
  }
  if (w > proc_.wmax) {
    throw SpecError("size_for_id_vov: required W exceeds process maximum");
  }

  double vgs = 0.0;
  for (int it = 0; it < kRefineIters; ++it) {
    vgs = vgs_for_id(type, w, l, id, vds, vbs);
    const double vov_meas =
        vgs - spice::mos_ids_gm(card, vgs, vds, vbs, w, l).vth;
    if (vov_meas <= 0.0) break;
    if (std::fabs(vov_meas - vov) <= 1e-3 * vov) break;
    double w_next = w * (vov_meas / vov) * (vov_meas / vov);
    w_next = std::clamp(w_next, proc_.wmin, proc_.wmax);
    if (w_next == w) break;
    w = w_next;
  }
  return finish(type, w, l, vgs, vds, vbs);
}

}  // namespace ape::est
