#include "src/spice/mos_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/error.h"

namespace ape::spice {
namespace {

constexpr double kEps0 = 8.854187817e-12;   // vacuum permittivity [F/m]
constexpr double kEpsOx = 3.9 * kEps0;      // SiO2
constexpr double kEpsSi = 11.7 * kEps0;     // silicon
constexpr double kDiffStep = 1e-6;          // central-difference step [V]

/// Body-effect threshold voltage at source-bulk reverse bias vsb (>= -phi),
/// in the NMOS-normalized frame: a PMOS card's (negative) VTO flips sign so
/// that normalized evaluation sees a positive enhancement threshold.
/// (Depletion NMOS with VTO < 0 keeps its sign.)
double threshold(const MosModelCard& m, double vsb) {
  const double phi = std::max(m.phi, 0.1);
  const double arg = std::max(phi + vsb, 1e-6);
  const double vto = m.type == MosType::Pmos ? -m.vto : m.vto;
  return vto + m.gamma * (std::sqrt(arg) - std::sqrt(phi));
}

/// Effective transconductance parameter at this bias (levels 2/3 reduce the
/// mobility with vertical field and velocity saturation; level 1 is constant).
double effective_kp(const MosModelCard& m, double vov, double vds, double leff) {
  double kp = m.kp;
  if (kp <= 0.0) kp = m.u0 * 1e-4 * m.cox();  // u0 is cm^2/Vs
  if (m.level == 2 && m.uexp > 0.0 && vov > 0.0) {
    // SPICE2 empirical vertical-field mobility degradation.
    const double ufact =
        std::pow(m.ucrit * 1e2 * kEpsSi / (m.cox() * vov), m.uexp);
    kp *= std::min(1.0, ufact);
  }
  if (m.level == 3) {
    if (m.theta > 0.0 && vov > 0.0) kp /= (1.0 + m.theta * vov);
    if (m.vmax > 0.0 && vds > 0.0) {
      const double u_eff = (kp / m.cox()) ;  // ueff*1 (m^2/Vs equivalent)
      kp /= (1.0 + u_eff * vds / (m.vmax * leff));
    }
  }
  return kp;
}

/// DIBL threshold shift (level 3 only).
double dibl_shift(const MosModelCard& m, double vds, double leff) {
  if (m.level != 3 || m.eta <= 0.0) return 0.0;
  const double sigma = m.eta * 8.15e-22 / (m.cox() * leff * leff * leff);
  return sigma * vds;
}

struct CoreEval {
  double ids, vth, vdsat;
  MosRegion region;
};

/// Simplified BSIM1 (LEVEL 4) forward current. NMOS-normalized frame:
/// a PMOS card's VFB flips sign like VTO does for the other levels.
CoreEval ids_forward_bsim(const MosModelCard& m, double vgs, double vds,
                          double vbs, double w, double l) {
  const double leff = std::max(m.leff(l), 1e-8);
  const double phi = std::max(m.phi, 0.1);
  const double sb = std::max(phi - vbs, 1e-6);  // PHI + Vsb
  const double vfb = m.type == MosType::Pmos ? -m.vfb : m.vfb;
  double vth = vfb + phi + m.k1 * std::sqrt(sb) - m.k2 * sb - m.eta * vds;

  const double vov = vgs - vth;
  CoreEval out{0.0, vth, std::max(vov, 0.0), MosRegion::Cutoff};
  if (vov <= 0.0) return out;

  const double a = 1.0 + m.k1 / (2.0 * std::sqrt(sb));
  double beta = m.muz * 1e-4 * m.cox() * w / leff;
  if (m.u0v > 0.0) beta /= (1.0 + m.u0v * vov);

  double vdsat = vov / a;
  if (m.u1 > 0.0) {
    const double vc = leff / m.u1;  // velocity-saturation voltage
    vdsat = vdsat * vc / (vdsat + vc);
  }
  out.vdsat = vdsat;

  double lambda = m.lambda;
  if (m.lref > 0.0) lambda *= m.lref / leff;
  const double clm = 1.0 + lambda * vds;
  if (vds < vdsat) {
    out.region = MosRegion::Triode;
    out.ids = beta * (vov * vds - 0.5 * a * vds * vds) * clm;
  } else {
    out.region = MosRegion::Saturation;
    out.ids = beta * (vov * vdsat - 0.5 * a * vdsat * vdsat) * clm;
  }
  return out;
}

/// Forward-mode (vds >= 0) drain current, NMOS-normalized.
CoreEval ids_forward(const MosModelCard& m, double vgs, double vds, double vbs,
                     double w, double l) {
  if (m.level == 4) return ids_forward_bsim(m, vgs, vds, vbs, w, l);
  const double leff = std::max(m.leff(l), 1e-8);
  const double vsb = -vbs;
  double vth = threshold(m, std::max(vsb, -m.phi + 1e-6));
  vth -= dibl_shift(m, vds, leff);

  const double vov = vgs - vth;
  CoreEval out{0.0, vth, std::max(vov, 0.0), MosRegion::Cutoff};
  if (vov <= 0.0) {
    // Subthreshold is modeled as off; a tiny conductance is added at the
    // stamping layer (gmin) for Newton robustness.
    return out;
  }
  const double kp = effective_kp(m, vov, vds, leff);
  const double beta = kp * w / leff;

  double vdsat = vov;
  if (m.vmax > 0.0) {
    // Velocity-saturation limited vdsat, smoothly interpolated.
    const double u_eff = kp / m.cox();
    const double vc = m.vmax * leff / std::max(u_eff, 1e-12);
    vdsat = vov * vc / (vov + vc);
  }
  out.vdsat = vdsat;

  double lambda = m.lambda;
  if (m.lref > 0.0) lambda *= m.lref / leff;  // Early voltage ~ Leff
  const double clm = 1.0 + lambda * vds;
  if (vds < vdsat) {
    out.region = MosRegion::Triode;
    out.ids = beta * (vov * vds - 0.5 * vds * vds) * clm;
  } else {
    out.region = MosRegion::Saturation;
    // Keep the current continuous at vds = vdsat.
    out.ids = beta * (vov * vdsat - 0.5 * vdsat * vdsat) * clm;
  }
  return out;
}

/// Drain current for any vds sign (source/drain swap symmetry).
CoreEval ids_any(const MosModelCard& m, double vgs, double vds, double vbs,
                 double w, double l) {
  if (vds >= 0.0) return ids_forward(m, vgs, vds, vbs, w, l);
  CoreEval e = ids_forward(m, vgs - vds, -vds, vbs - vds, w, l);
  e.ids = -e.ids;
  return e;
}

/// The body of mos_ids_gm, shared with mos_eval (inlined into both, so
/// mos_eval pays no call for it). gm here, and gds/gmb in mos_eval, by
/// central finite differences of the (continuous) current function. This
/// keeps all model levels and both vds signs on one consistent code path,
/// which matters for Newton convergence.
inline MosIdGm ids_gm(const MosModelCard& m, double vgs, double vds,
                      double vbs, double w, double l) {
  const CoreEval core = ids_any(m, vgs, vds, vbs, w, l);
  const double gm = (ids_any(m, vgs + kDiffStep, vds, vbs, w, l).ids -
                     ids_any(m, vgs - kDiffStep, vds, vbs, w, l).ids) /
                    (2.0 * kDiffStep);
  return {core.ids, gm, core.vth, core.vdsat, core.region};
}

/// Reverse-biased junction capacitance (linear extension under forward bias).
double junction_cap(double c0_area, double mj, double c0_perim, double mjsw,
                    double pb, double vr) {
  // vr = reverse bias (>= 0 in normal operation).
  auto term = [&](double c0, double grading) {
    if (c0 <= 0.0) return 0.0;
    if (vr >= 0.0) return c0 / std::pow(1.0 + vr / pb, grading);
    // Forward bias: linearize at v = 0 to avoid the singularity at -pb.
    return c0 * (1.0 - grading * vr / pb);
  };
  return term(c0_area, mj) + term(c0_perim, mjsw);
}

}  // namespace

double MosModelCard::cox() const { return kEpsOx / std::max(tox, 1e-10); }

std::string to_card_string(const MosModelCard& m) {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      ".model %s %s (level=%d vto=%.9g kp=%.9g gamma=%.9g phi=%.9g "
      "lambda=%.9g tox=%.9g ld=%.9g cgso=%.9g cgdo=%.9g cgbo=%.9g cj=%.9g "
      "mj=%.9g cjsw=%.9g mjsw=%.9g pb=%.9g theta=%.9g eta=%.9g vmax=%.9g "
      "uexp=%.9g ucrit=%.9g lref=%.9g vfb=%.9g k1=%.9g k2=%.9g muz=%.9g "
      "u0v=%.9g u1=%.9g)",
      m.name.c_str(), m.type == MosType::Nmos ? "nmos" : "pmos", m.level,
      m.vto, m.kp, m.gamma, m.phi, m.lambda, m.tox, m.ld, m.cgso, m.cgdo,
      m.cgbo, m.cj, m.mj, m.cjsw, m.mjsw, m.pb, m.theta, m.eta, m.vmax,
      m.uexp, m.ucrit, m.lref, m.vfb, m.k1, m.k2, m.muz, m.u0v, m.u1);
  return buf;
}

MosIdGm mos_ids_gm(const MosModelCard& m, double vgs, double vds, double vbs,
                   double w, double l) {
  if (w <= 0.0 || l <= 0.0) throw NumericError("mos_ids_gm: non-positive W or L");
  return ids_gm(m, vgs, vds, vbs, w, l);
}

MosEval mos_eval(const MosModelCard& m, double vgs, double vds, double vbs,
                 double w, double l, double ad, double as, double pd,
                 double ps) {
  if (w <= 0.0 || l <= 0.0) throw NumericError("mos_eval: non-positive W or L");
  const MosIdGm dc = ids_gm(m, vgs, vds, vbs, w, l);
  MosEval r;
  r.ids = dc.ids;
  r.gm = dc.gm;
  r.vth = dc.vth;
  r.vdsat = dc.vdsat;
  r.region = dc.region;
  r.gds = (ids_any(m, vgs, vds + kDiffStep, vbs, w, l).ids -
           ids_any(m, vgs, vds - kDiffStep, vbs, w, l).ids) /
          (2.0 * kDiffStep);
  r.gmb = (ids_any(m, vgs, vds, vbs + kDiffStep, w, l).ids -
           ids_any(m, vgs, vds, vbs - kDiffStep, w, l).ids) /
          (2.0 * kDiffStep);

  // Meyer gate capacitances, piecewise by region (forward orientation).
  const double leff = std::max(m.leff(l), 1e-8);
  const double cox_tot = m.cox() * w * leff;
  const double c_ov_s = m.cgso * w;
  const double c_ov_d = m.cgdo * w;
  const double c_ov_b = m.cgbo * l;
  switch (r.region) {
    case MosRegion::Cutoff:
      r.cgb = cox_tot + c_ov_b;
      r.cgs = c_ov_s;
      r.cgd = c_ov_d;
      break;
    case MosRegion::Triode:
      r.cgs = 0.5 * cox_tot + c_ov_s;
      r.cgd = 0.5 * cox_tot + c_ov_d;
      r.cgb = c_ov_b;
      break;
    case MosRegion::Saturation:
      r.cgs = (2.0 / 3.0) * cox_tot + c_ov_s;
      r.cgd = c_ov_d;
      r.cgb = c_ov_b;
      break;
  }

  // Junction capacitances: reverse bias of drain-bulk is vdb = vds - vbs,
  // of source-bulk is vsb = -vbs (NMOS-normalized voltages).
  r.cdb = junction_cap(m.cj * ad, m.mj, m.cjsw * pd, m.mjsw, m.pb, vds - vbs);
  r.csb = junction_cap(m.cj * as, m.mj, m.cjsw * ps, m.mjsw, m.pb, -vbs);
  return r;
}

MosEval mos_eval_signed(const MosModelCard& m, double vgs, double vds,
                        double vbs, double w, double l, double ad, double as,
                        double pd, double ps) {
  if (m.type == MosType::Nmos) {
    return mos_eval(m, vgs, vds, vbs, w, l, ad, as, pd, ps);
  }
  MosEval r = mos_eval(m, -vgs, -vds, -vbs, w, l, ad, as, pd, ps);
  r.ids = -r.ids;  // current into the drain terminal is negative when conducting
  r.vth = -r.vth;
  return r;
}

}  // namespace ape::spice
