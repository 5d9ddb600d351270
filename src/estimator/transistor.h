#pragma once
/// \file transistor.h
/// Level 1 of the APE hierarchy: CMOS transistor sizing and small-signal
/// estimation (paper section 4, "CMOS Transistor Models", eqs. 1-4).
///
/// A transistor is sized from an electrical requirement - (gm, Id) or
/// (Id, Vov) - at a given bias, and saved as an immutable object carrying
/// both the size and all derived performance parameters, exactly the
/// "sized transistor saved as an object" of the paper.

#include "src/estimator/process.h"
#include "src/spice/mos_model.h"

namespace ape::est {

/// A sized transistor with its bias point and small-signal parameters.
struct TransistorDesign {
  spice::MosType type = spice::MosType::Nmos;
  double w = 0.0;     ///< drawn width [m]
  double l = 0.0;     ///< drawn length [m]
  // Bias point (NMOS-normalized: all positive in forward saturation).
  double id = 0.0;    ///< drain current [A]
  double vgs = 0.0;
  double vds = 0.0;
  double vbs = 0.0;
  double vth = 0.0;
  double vdsat = 0.0;
  // Small-signal parameters.
  double gm = 0.0;
  double gds = 0.0;
  double gmb = 0.0;
  // Capacitances at the bias point [F].
  double cgs = 0.0;
  double cgd = 0.0;
  double cgb = 0.0;
  double cdb = 0.0;
  double csb = 0.0;

  /// Gate area [m^2]; the paper reports areas in um^2 (multiply by 1e12).
  double gate_area() const { return w * l; }
  /// Total gate capacitance [F].
  double cg_total() const { return cgs + cgd + cgb; }
  /// Self-gain gm/gds.
  double self_gain() const { return gds > 0.0 ? gm / gds : 0.0; }
};

/// The TransistorDesign of geometry (w, l) at bias (vgs, vds, vbs), with
/// the current, small-signal parameters and capacitances of \p e, the
/// model evaluated at that bias.
TransistorDesign design_from_eval(spice::MosType type, double w, double l,
                                  const spice::MosEval& e, double vgs,
                                  double vds, double vbs);

/// Sizes transistors against a Process. All entry points return a fully
/// populated TransistorDesign or throw ape::SpecError when the request is
/// infeasible in this process (e.g. W below minimum or Vov <= 0).
class TransistorEstimator {
public:
  explicit TransistorEstimator(const Process& proc) : proc_(proc) {}

  /// Size for a target (gm, Id) pair - the paper's flagship example:
  /// "if a transistor is specified by a given transconductance gm and a
  /// drain current, APE estimates the transistor size, the output drain
  /// conductance and the parasite capacitances."
  ///
  /// Level-1 closed form (paper eq. 2): W/L = gm^2 / (2 KP Id), then a
  /// numeric refinement against the full model card so LEVEL 2/3 cards
  /// size correctly too.
  ///
  /// \param vds,vbs bias assumption (NMOS-normalized, defaults mid-rail).
  TransistorDesign size_for_gm_id(spice::MosType type, double gm, double id,
                                  double vds = -1.0, double vbs = 0.0,
                                  double l = -1.0) const;

  /// Size for a target (Id, Vov) pair (used when a component dictates the
  /// overdrive, e.g. matched mirrors).
  TransistorDesign size_for_id_vov(spice::MosType type, double id, double vov,
                                   double vds = -1.0, double vbs = 0.0,
                                   double l = -1.0) const;

  /// Evaluate a known geometry at a bias (no sizing): the "forward" mode.
  TransistorDesign evaluate(spice::MosType type, double w, double l, double vgs,
                            double vds, double vbs = 0.0) const;

  /// Gate-source voltage that conducts \p id with geometry (w, l) at the
  /// given (vds, vbs); solved by a bracketed (safeguarded) Newton on the
  /// model card's drain current.
  double vgs_for_id(spice::MosType type, double w, double l, double id,
                    double vds, double vbs = 0.0) const;

  const Process& process() const { return proc_; }

private:
  TransistorDesign finish(spice::MosType type, double w, double l, double vgs,
                          double vds, double vbs) const;

  const Process& proc_;
};

}  // namespace ape::est
