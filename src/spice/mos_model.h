#pragma once
/// \file mos_model.h
/// SPICE MOSFET model cards (Level 1 / 2 / 3) and their DC / small-signal /
/// charge evaluation.
///
/// This single evaluation path is shared by the circuit simulator (for
/// "SPICE sim" columns) and by the APE estimator (for sizing), mirroring
/// the paper's statement that "the sizing process is tied to the
/// fabrication process parameters and the sizing accuracy is directly
/// dependent on the transistor model used".

#include <string>

namespace ape::spice {

enum class MosType { Nmos, Pmos };

/// A parsed .model card. Parameter names follow Berkeley SPICE 2G6/3f5.
/// Defaults are the SPICE defaults; a process file normally overrides most.
struct MosModelCard {
  std::string name = "nmos";
  MosType type = MosType::Nmos;
  int level = 1;      ///< 1 = Shichman-Hodges, 2 = analytic, 3 = empirical,
                      ///< 4 = simplified BSIM1 (vfb/k1/k2/u0v/u1)

  // DC parameters.
  double vto = 1.0;       ///< zero-bias threshold voltage [V] (sign: NMOS +)
  double kp = 2.0e-5;     ///< transconductance parameter u0*Cox [A/V^2]
  double gamma = 0.0;     ///< body-effect coefficient [V^0.5]
  double phi = 0.6;       ///< surface inversion potential 2*phi_F [V]
  double lambda = 0.0;    ///< channel-length modulation [1/V]
  double u0 = 600.0;      ///< surface mobility [cm^2/Vs]
  double tox = 1.0e-7;    ///< oxide thickness [m]
  double nsub = 0.0;      ///< substrate doping [1/cm^3]
  double ld = 0.0;        ///< lateral diffusion [m]

  // Level 2/3 extensions.
  double ucrit = 1.0e4;   ///< L2: critical field for mobility degradation [V/cm]
  double uexp = 0.0;      ///< L2: mobility degradation exponent
  double vmax = 0.0;      ///< L2/L3: max carrier velocity [m/s] (0 = off)
  double theta = 0.0;     ///< L3: mobility modulation [1/V]
  double eta = 0.0;       ///< L3: static feedback (DIBL) coefficient
  double kappa = 0.2;     ///< L3: saturation field factor
  double xj = 0.0;        ///< metallurgical junction depth [m]

  // Level 4 (simplified BSIM1) parameters. The threshold is
  //   Vth = VFB + PHI + K1 sqrt(PHI + Vsb) - K2 (PHI + Vsb) - ETA Vds,
  // the body factor a = 1 + K1 / (2 sqrt(PHI + Vsb)) shapes the triode
  // term, MUZ is the zero-field mobility, U0V the vertical-field
  // degradation and U1 the velocity-saturation coefficient.
  double vfb = -0.3;      ///< L4: flat-band voltage [V] (sign: NMOS frame)
  double k1 = 0.5;        ///< L4: first-order body effect [V^0.5]
  double k2 = 0.0;        ///< L4: second-order body effect
  double muz = 600.0;     ///< L4: zero-field mobility [cm^2/Vs]
  double u0v = 0.0;       ///< L4: vertical-field mobility degradation [1/V]
  double u1 = 0.0;        ///< L4: velocity saturation [m/V] (0 = off)

  // Capacitance parameters.
  double cgso = 0.0;      ///< gate-source overlap cap per width [F/m]
  double cgdo = 0.0;      ///< gate-drain overlap cap per width [F/m]
  double cgbo = 0.0;      ///< gate-bulk overlap cap per length [F/m]
  double cj = 0.0;        ///< zero-bias bottom junction cap [F/m^2]
  double mj = 0.5;        ///< bottom junction grading coefficient
  double cjsw = 0.0;      ///< zero-bias sidewall junction cap [F/m]
  double mjsw = 0.33;     ///< sidewall grading coefficient
  double pb = 0.8;        ///< junction potential [V]
  double js = 1.0e-8;     ///< junction saturation current density [A/m^2]

  // Noise parameters (SPICE2 flicker model: S_id = KF Id^AF / (Cox Leff^2 f)).
  double kf = 0.0;        ///< flicker noise coefficient
  double af = 1.0;        ///< flicker noise exponent

  // Parasitic resistances (unused by the analyses but parsed).
  double rsh = 0.0;       ///< source/drain sheet resistance [ohm/sq]

  /// Non-standard extension: Early-voltage reference length. When > 0 the
  /// effective channel-length modulation becomes lambda * lref / Leff, so
  /// longer devices get proportionally higher output resistance - the
  /// behaviour LEVEL 2/3 obtain from NSUB/NEFF, made available to LEVEL 1
  /// so the estimator's length-vs-gain tradeoff is physical. 0 = plain
  /// SPICE LEVEL 1 semantics (constant lambda).
  double lref = 0.0;

  /// Gate-oxide capacitance per unit area [F/m^2].
  double cox() const;

  /// Effective channel length for a drawn length \p l [m].
  double leff(double l) const { return l - 2.0 * ld; }
};

/// MOSFET operating regions.
enum class MosRegion { Cutoff, Triode, Saturation };

/// Result of a DC + small-signal model evaluation at one bias point.
/// All values use the device's own sign convention (NMOS-normalized):
/// the evaluator maps PMOS terminals internally, and `ids` is the current
/// flowing drain->source for NMOS, source->drain magnitude for PMOS.
struct MosEval {
  double ids = 0.0;   ///< drain current [A] (NMOS-normalized, >= 0 in forward)
  double gm = 0.0;    ///< dIds/dVgs [S]
  double gds = 0.0;   ///< dIds/dVds [S]
  double gmb = 0.0;   ///< dIds/dVbs [S]
  double vth = 0.0;   ///< threshold voltage at this Vbs [V]
  double vdsat = 0.0; ///< saturation voltage [V]
  MosRegion region = MosRegion::Cutoff;

  // Meyer small-signal gate capacitances (intrinsic + overlap) [F].
  double cgs = 0.0;
  double cgd = 0.0;
  double cgb = 0.0;
  // Junction capacitances at this bias [F].
  double cdb = 0.0;
  double csb = 0.0;
};

/// The light evaluation a sizing inversion needs: the DC point from one
/// drain-current evaluation plus gm, with no gds/gmb probes and no
/// capacitances (3 current evaluations instead of mos_eval's 7). Same
/// NMOS-normalized convention as MosEval; mos_eval computes these fields
/// with the same code, so each is bitwise equal to mos_eval's.
struct MosIdGm {
  double ids = 0.0;   ///< drain current [A]
  double gm = 0.0;    ///< dIds/dVgs [S]
  double vth = 0.0;   ///< threshold voltage at this Vbs [V]
  double vdsat = 0.0; ///< saturation voltage [V]
  MosRegion region = MosRegion::Cutoff;
};

/// Evaluate ids, gm and vth at NMOS-normalized terminal voltages (see
/// MosIdGm). Throws NumericError on a non-positive W or L.
MosIdGm mos_ids_gm(const MosModelCard& m, double vgs, double vds, double vbs,
                   double w, double l);

/// The bias-dependent capacitances of one evaluation: the charge part of
/// MosEval (same fields, same units).
struct MosCaps {
  double cgs = 0.0;
  double cgd = 0.0;
  double cgb = 0.0;
  double cdb = 0.0;
  double csb = 0.0;
};

/// The DC part of mos_eval: ids, gm, gds, gmb, vth, vdsat and region
/// (7 current evaluations), with the capacitance fields left zero. What a
/// Newton stamp reads; each field is bitwise equal to mos_eval's. Throws
/// NumericError on a non-positive W or L.
MosEval mos_eval_dc(const MosModelCard& m, double vgs, double vds, double vbs,
                    double w, double l);

/// The charge part of mos_eval: one drain-current evaluation for the
/// region, then the Meyer gate and junction capacitances, each bitwise
/// equal to mos_eval's. Throws NumericError on a non-positive W or L.
MosCaps mos_caps(const MosModelCard& m, double vgs, double vds, double vbs,
                 double w, double l, double ad, double as, double pd,
                 double ps);

/// Evaluate the model at NMOS-normalized terminal voltages: the DC part
/// and the charge part above in one call. For PMOS devices, negate (vgs,
/// vds, vbs) before calling and interpret the current as source->drain;
/// `mos_eval_signed` does this for you.
///
/// \param w,l drawn width / length [m]; \param ad,as,pd,ps drain/source
/// junction areas [m^2] and perimeters [m] for the junction caps.
MosEval mos_eval(const MosModelCard& m, double vgs, double vds, double vbs,
                 double w, double l, double ad = 0.0, double as = 0.0,
                 double pd = 0.0, double ps = 0.0);

/// Sign-aware wrapper: takes true terminal voltages for either device type
/// and returns an evaluation whose `ids` is the current into the drain
/// terminal (negative for a conducting PMOS), with conductances >= 0.
MosEval mos_eval_signed(const MosModelCard& m, double vgs, double vds,
                        double vbs, double w, double l, double ad = 0.0,
                        double as = 0.0, double pd = 0.0, double ps = 0.0);

/// Render the card as a SPICE ".model" line (parse_model_card inverse).
std::string to_card_string(const MosModelCard& m);

}  // namespace ape::spice
