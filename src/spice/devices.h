#pragma once
/// \file devices.h
/// Concrete circuit elements: R, C, L, independent sources (DC/AC/PULSE/
/// SIN/PWL), the four controlled sources, diode, and the MOSFET.

#include <memory>
#include <utility>
#include <vector>

#include "src/spice/device.h"
#include "src/spice/mos_model.h"

namespace ape::spice {

/// Companion-model state for one capacitance between two nodes.
/// Trapezoidal integration with a backward-Euler first step.
struct CapCompanion {
  double v_prev = 0.0;  ///< voltage across at last accepted step
  double i_prev = 0.0;  ///< current through at last accepted step

  void stamp(MnaReal& mna, NodeId p, NodeId n, double c, const Solution& x,
             const TranContext& tc) const;
  void accept(NodeId p, NodeId n, double c, const Solution& x,
              const TranContext& tc);
};

// ---------------------------------------------------------------------------

class Resistor : public Device {
public:
  Resistor(std::string name, NodeId p, NodeId n, double ohms);

  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  void noise_sources(std::vector<NoiseSource>& out) const override;

  double resistance() const { return ohms_; }
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  double ohms_;
};

class Capacitor : public Device {
public:
  Capacitor(std::string name, NodeId p, NodeId n, double farads);

  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  void stamp_tran(MnaReal& mna, const Solution& x, const TranContext& tc) const override;
  void save_op(const Solution& x) override;
  void accept_tran_step(const Solution& x, const TranContext& tc) override;

  double capacitance() const { return farads_; }
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  double farads_;
  CapCompanion state_;
};

class Inductor : public Device {
public:
  Inductor(std::string name, NodeId p, NodeId n, double henries);

  void claim_branches(size_t& next_branch) override;
  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  void stamp_tran(MnaReal& mna, const Solution& x, const TranContext& tc) const override;
  void save_op(const Solution& x) override;
  void accept_tran_step(const Solution& x, const TranContext& tc) override;

  double inductance() const { return henries_; }
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  double henries_;
  NodeId branch_ = kGround;
  double i_prev_ = 0.0;
  double v_prev_ = 0.0;
};

// ---------------------------------------------------------------------------

/// Time-domain waveform of an independent source.
struct Waveform {
  enum class Kind { Dc, Pulse, Sin, Pwl };
  Kind kind = Kind::Dc;
  double dc = 0.0;

  // AC small-signal stimulus.
  double ac_mag = 0.0;
  double ac_phase_deg = 0.0;

  // PULSE(v1 v2 td tr tf pw per)
  double v1 = 0.0, v2 = 0.0, td = 0.0, tr = 1e-9, tf = 1e-9, pw = 1e-3,
         per = 2e-3;
  // SIN(vo va freq td theta)
  double sin_vo = 0.0, sin_va = 0.0, sin_freq = 1e3, sin_td = 0.0,
         sin_theta = 0.0;
  // PWL(t1 v1 t2 v2 ...)
  std::vector<std::pair<double, double>> pwl;

  /// Instantaneous value at time \p t (DC value for t <= 0 conventions).
  double value(double t) const;
};

class VSource : public Device {
public:
  VSource(std::string name, NodeId p, NodeId n, Waveform wave);

  void claim_branches(size_t& next_branch) override;
  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  void stamp_tran(MnaReal& mna, const Solution& x, const TranContext& tc) const override;

  /// MNA index of the branch current (valid after Circuit::finalize()).
  NodeId branch() const { return branch_; }
  const Waveform& wave() const { return wave_; }
  Waveform& wave() { return wave_; }
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  Waveform wave_;
  NodeId branch_ = kGround;
};

class ISource : public Device {
public:
  ISource(std::string name, NodeId p, NodeId n, Waveform wave);

  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  void stamp_tran(MnaReal& mna, const Solution& x, const TranContext& tc) const override;

  const Waveform& wave() const { return wave_; }
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  Waveform wave_;
};

// ---------------------------------------------------------------------------

/// VCVS: v(p,n) = gain * v(cp, cn). SPICE 'E' element.
class Vcvs : public Device {
public:
  Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gain);

  void claim_branches(size_t& next_branch) override;
  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  DeviceStructure structure() const override;

private:
  NodeId p_, n_, cp_, cn_;
  double gain_;
  NodeId branch_ = kGround;
};

/// VCCS: i(p->n) = gm * v(cp, cn). SPICE 'G' element.
class Vccs : public Device {
public:
  Vccs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gm);

  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  DeviceStructure structure() const override;

private:
  NodeId p_, n_, cp_, cn_;
  double gm_;
};

/// CCCS: i(p->n) = gain * i(branch of controlling VSource). SPICE 'F'.
class Cccs : public Device {
public:
  Cccs(std::string name, NodeId p, NodeId n, const VSource* ctrl, double gain);

  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  const VSource* ctrl_;
  double gain_;
};

/// CCVS: v(p,n) = r * i(branch of controlling VSource). SPICE 'H'.
class Ccvs : public Device {
public:
  Ccvs(std::string name, NodeId p, NodeId n, const VSource* ctrl, double r);

  void claim_branches(size_t& next_branch) override;
  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  const VSource* ctrl_;
  double r_;
  NodeId branch_ = kGround;
};

// ---------------------------------------------------------------------------

/// Junction diode, exponential model with internal voltage limiting.
class Diode : public Device {
public:
  Diode(std::string name, NodeId p, NodeId n, double is = 1e-14, double n_emission = 1.0);

  bool is_nonlinear() const override { return true; }
  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void save_op(const Solution& x) override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  DeviceStructure structure() const override;

private:
  NodeId p_, n_;
  double is_, nf_;
  double gd_op_ = 0.0;
};

// ---------------------------------------------------------------------------

/// Four-terminal MOSFET bound to a .model card.
class Mosfet : public Device {
public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
         const MosModelCard* model, double w, double l, double ad = 0.0,
         double as = 0.0, double pd = 0.0, double ps = 0.0);

  bool is_nonlinear() const override { return true; }
  void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const override;
  void save_op(const Solution& x) override;
  void stamp_ac(MnaComplex& mna, double omega) const override;
  void stamp_tran(MnaReal& mna, const Solution& x, const TranContext& tc) const override;
  void accept_tran_step(const Solution& x, const TranContext& tc) override;
  void noise_sources(std::vector<NoiseSource>& out) const override;

  /// Cached operating-point evaluation from the last save_op(); a
  /// transient leaves it alone.
  const MosEval& op() const { return op_; }
  double width() const { return w_; }
  double length() const { return l_; }
  const MosModelCard& model() const { return *model_; }

  /// Change the geometry in place (used by the synthesis engine).
  void resize(double w, double l);

  DeviceStructure structure() const override;

private:
  /// NMOS-normalized terminal voltages at candidate x.
  struct Bias {
    double vgs, vds, vbs;
  };
  Bias bias_at(const Solution& x) const;

  NodeId d_, g_, s_, b_;
  const MosModelCard* model_;
  double w_, l_, ad_, as_, pd_, ps_;
  MosEval op_;
  // Transient state: the five Meyer/junction capacitances at the last
  // accepted point (save_op's at the start) and their companions.
  MosCaps caps_;
  CapCompanion cgs_st_, cgd_st_, cgb_st_, cdb_st_, csb_st_;
};

}  // namespace ape::spice
