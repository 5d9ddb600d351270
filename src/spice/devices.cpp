#include "src/spice/devices.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"

namespace ape::spice {

namespace {
/// Minimum conductance added across nonlinear junctions for Newton
/// robustness (the analyses additionally apply gmin stepping).
constexpr double kGmin = 1e-12;
constexpr double kVt = 0.02585;   // thermal voltage at 300K [V]
constexpr double k4kT = 4.0 * 1.380649e-23 * 300.0;  // 4kT at 300K [J]
/// Absolute floor of the MOSFET bypass's current test [A].
constexpr double kBypassAbstol = 1e-12;

/// The bypass window's voltage test: every move at most \p tol.
bool within(double dv1, double dv2, double dv3, double tol) {
  return std::fabs(dv1) <= tol && std::fabs(dv2) <= tol && std::fabs(dv3) <= tol;
}
}  // namespace

// --- CapCompanion -----------------------------------------------------------

void CapCompanion::stamp(MnaReal& mna, NodeId p, NodeId n, double c,
                         const TranContext& tc) const {
  if (c <= 0.0 || tc.dt <= 0.0) return;
  // Trapezoidal: i = (2C/dt)(v - v_prev) - i_prev; BE on the first step.
  const double geq = (tc.first_step ? 1.0 : 2.0) * c / tc.dt;
  const double ieq = geq * v_prev + (tc.first_step ? 0.0 : i_prev);
  mna.add(p, p, geq);
  mna.add(n, n, geq);
  mna.add(p, n, -geq);
  mna.add(n, p, -geq);
  mna.add_rhs(p, ieq);
  mna.add_rhs(n, -ieq);
}

void CapCompanion::accept(NodeId p, NodeId n, double c, const Solution& x,
                          const TranContext& tc) {
  const double v = x.at(p) - x.at(n);
  if (c <= 0.0 || tc.dt <= 0.0) {
    v_prev = v;
    i_prev = 0.0;
    return;
  }
  const double geq = (tc.first_step ? 1.0 : 2.0) * c / tc.dt;
  const double ieq = geq * v_prev + (tc.first_step ? 0.0 : i_prev);
  i_prev = geq * v - ieq;
  v_prev = v;
}

// --- Resistor ----------------------------------------------------------------

Resistor::Resistor(std::string name, NodeId p, NodeId n, double ohms)
    : Device(std::move(name)), p_(p), n_(n), ohms_(ohms) {
  if (ohms_ <= 0.0) throw SpecError("resistor " + this->name() + ": R <= 0");
}

void Resistor::stamp_dc(MnaReal& mna, const Solution&, double) const {
  const double g = 1.0 / ohms_;
  mna.add(p_, p_, g);
  mna.add(n_, n_, g);
  mna.add(p_, n_, -g);
  mna.add(n_, p_, -g);
}

void Resistor::stamp_ac(MnaComplex& mna, double) const {
  const std::complex<double> g{1.0 / ohms_, 0.0};
  mna.add(p_, p_, g);
  mna.add(n_, n_, g);
  mna.add(p_, n_, -g);
  mna.add(n_, p_, -g);
}

void Resistor::noise_sources(std::vector<NoiseSource>& out) const {
  out.push_back({p_, n_, k4kT / ohms_, 0.0});
}

DeviceStructure Resistor::structure() const {
  return {{{p_, n_, EdgeKind::Conductive}}, {}};
}

// --- Capacitor ---------------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId p, NodeId n, double farads)
    : Device(std::move(name)), p_(p), n_(n), farads_(farads) {
  if (farads_ <= 0.0) throw SpecError("capacitor " + this->name() + ": C <= 0");
}

void Capacitor::stamp_dc(MnaReal& mna, const Solution&, double) const {
  // Open at DC; a tiny conductance keeps floating nodes solvable.
  mna.add(p_, p_, kGmin);
  mna.add(n_, n_, kGmin);
  mna.add(p_, n_, -kGmin);
  mna.add(n_, p_, -kGmin);
}

void Capacitor::stamp_ac(MnaComplex& mna, double omega) const {
  const std::complex<double> y{0.0, omega * farads_};
  mna.add(p_, p_, y);
  mna.add(n_, n_, y);
  mna.add(p_, n_, -y);
  mna.add(n_, p_, -y);
}

void Capacitor::stamp_tran(MnaReal& mna, const Solution&, const TranContext& tc) const {
  state_.stamp(mna, p_, n_, farads_, tc);
}

void Capacitor::save_op(const Solution& x) {
  state_.v_prev = x.at(p_) - x.at(n_);
  state_.i_prev = 0.0;
}

void Capacitor::accept_tran_step(const Solution& x, const TranContext& tc) {
  state_.accept(p_, n_, farads_, x, tc);
}

DeviceStructure Capacitor::structure() const {
  return {{{p_, n_, EdgeKind::Capacitive}}, {}};
}

// --- Inductor ----------------------------------------------------------------

Inductor::Inductor(std::string name, NodeId p, NodeId n, double henries)
    : Device(std::move(name)), p_(p), n_(n), henries_(henries) {
  if (henries_ <= 0.0) throw SpecError("inductor " + this->name() + ": L <= 0");
}

void Inductor::claim_branches(size_t& next_branch) {
  branch_ = static_cast<NodeId>(next_branch++);
}

void Inductor::stamp_dc(MnaReal& mna, const Solution&, double) const {
  // Short at DC: v(p) - v(n) = 0 with branch current i.
  mna.add(p_, branch_, 1.0);
  mna.add(n_, branch_, -1.0);
  mna.add(branch_, p_, 1.0);
  mna.add(branch_, n_, -1.0);
}

void Inductor::stamp_ac(MnaComplex& mna, double omega) const {
  mna.add(p_, branch_, {1.0, 0.0});
  mna.add(n_, branch_, {-1.0, 0.0});
  mna.add(branch_, p_, {1.0, 0.0});
  mna.add(branch_, n_, {-1.0, 0.0});
  mna.add(branch_, branch_, {0.0, -omega * henries_});
}

void Inductor::stamp_tran(MnaReal& mna, const Solution&, const TranContext& tc) const {
  // Trapezoidal companion: v = (2L/dt)(i - i_prev) - v_prev.
  const double req = (tc.first_step ? 1.0 : 2.0) * henries_ / tc.dt;
  const double veq = req * i_prev_ + (tc.first_step ? 0.0 : v_prev_);
  mna.add(p_, branch_, 1.0);
  mna.add(n_, branch_, -1.0);
  mna.add(branch_, p_, 1.0);
  mna.add(branch_, n_, -1.0);
  mna.add(branch_, branch_, -req);
  mna.add_rhs(branch_, -veq);
}

void Inductor::save_op(const Solution& x) {
  i_prev_ = x.at(branch_);
  v_prev_ = 0.0;
}

void Inductor::accept_tran_step(const Solution& x, const TranContext& tc) {
  const double req = (tc.first_step ? 1.0 : 2.0) * henries_ / tc.dt;
  const double veq = req * i_prev_ + (tc.first_step ? 0.0 : v_prev_);
  i_prev_ = x.at(branch_);
  v_prev_ = req * i_prev_ - veq;
}

DeviceStructure Inductor::structure() const {
  // A DC short: v(p) = v(n) through a branch equation, like a 0 V source.
  return {{{p_, n_, EdgeKind::VoltageDefined}}, {}};
}

// --- Waveform ----------------------------------------------------------------

double Waveform::value(double t) const {
  switch (kind) {
    case Kind::Dc:
      return dc;
    case Kind::Pulse: {
      if (t < td) return v1;
      const double tc = per > 0.0 ? std::fmod(t - td, per) : (t - td);
      if (tc < tr) return v1 + (v2 - v1) * tc / std::max(tr, 1e-15);
      if (tc < tr + pw) return v2;
      if (tc < tr + pw + tf) {
        return v2 + (v1 - v2) * (tc - tr - pw) / std::max(tf, 1e-15);
      }
      return v1;
    }
    case Kind::Sin: {
      if (t < sin_td) return sin_vo;
      const double tp = t - sin_td;
      return sin_vo + sin_va * std::exp(-sin_theta * tp) *
                          std::sin(2.0 * M_PI * sin_freq * tp);
    }
    case Kind::Pwl: {
      if (pwl.empty()) return dc;
      if (t <= pwl.front().first) return pwl.front().second;
      for (size_t i = 1; i < pwl.size(); ++i) {
        if (t <= pwl[i].first) {
          const auto& [t0, y0] = pwl[i - 1];
          const auto& [t1, y1] = pwl[i];
          return y0 + (y1 - y0) * (t - t0) / std::max(t1 - t0, 1e-15);
        }
      }
      return pwl.back().second;
    }
  }
  return dc;
}

// --- VSource -----------------------------------------------------------------

VSource::VSource(std::string name, NodeId p, NodeId n, Waveform wave)
    : Device(std::move(name)), p_(p), n_(n), wave_(std::move(wave)) {}

void VSource::claim_branches(size_t& next_branch) {
  branch_ = static_cast<NodeId>(next_branch++);
}

void VSource::stamp_dc(MnaReal& mna, const Solution&, double src_scale) const {
  mna.add(p_, branch_, 1.0);
  mna.add(n_, branch_, -1.0);
  mna.add(branch_, p_, 1.0);
  mna.add(branch_, n_, -1.0);
  mna.add_rhs(branch_, wave_.value(0.0) * src_scale);
}

void VSource::stamp_ac(MnaComplex& mna, double) const {
  mna.add(p_, branch_, {1.0, 0.0});
  mna.add(n_, branch_, {-1.0, 0.0});
  mna.add(branch_, p_, {1.0, 0.0});
  mna.add(branch_, n_, {-1.0, 0.0});
  const double ph = wave_.ac_phase_deg * M_PI / 180.0;
  mna.add_rhs(branch_, std::complex<double>{wave_.ac_mag * std::cos(ph),
                                            wave_.ac_mag * std::sin(ph)});
}

void VSource::stamp_tran(MnaReal& mna, const Solution&, const TranContext& tc) const {
  mna.add(p_, branch_, 1.0);
  mna.add(n_, branch_, -1.0);
  mna.add(branch_, p_, 1.0);
  mna.add(branch_, n_, -1.0);
  mna.add_rhs(branch_, wave_.value(tc.time));
}

DeviceStructure VSource::structure() const {
  return {{{p_, n_, EdgeKind::VoltageDefined}}, {}};
}

// --- ISource -----------------------------------------------------------------

ISource::ISource(std::string name, NodeId p, NodeId n, Waveform wave)
    : Device(std::move(name)), p_(p), n_(n), wave_(std::move(wave)) {}

void ISource::stamp_dc(MnaReal& mna, const Solution&, double src_scale) const {
  // Current flows p -> n inside the source (SPICE convention).
  const double i = wave_.value(0.0) * src_scale;
  mna.add_rhs(p_, -i);
  mna.add_rhs(n_, i);
}

void ISource::stamp_ac(MnaComplex& mna, double) const {
  const double ph = wave_.ac_phase_deg * M_PI / 180.0;
  const std::complex<double> i{wave_.ac_mag * std::cos(ph),
                               wave_.ac_mag * std::sin(ph)};
  mna.add_rhs(p_, -i);
  mna.add_rhs(n_, i);
}

void ISource::stamp_tran(MnaReal& mna, const Solution&, const TranContext& tc) const {
  const double i = wave_.value(tc.time);
  mna.add_rhs(p_, -i);
  mna.add_rhs(n_, i);
}

DeviceStructure ISource::structure() const {
  return {{{p_, n_, EdgeKind::CurrentSource}}, {}};
}

// --- Controlled sources ------------------------------------------------------

Vcvs::Vcvs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gain)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gain_(gain) {}

void Vcvs::claim_branches(size_t& next_branch) {
  branch_ = static_cast<NodeId>(next_branch++);
}

void Vcvs::stamp_dc(MnaReal& mna, const Solution&, double) const {
  mna.add(p_, branch_, 1.0);
  mna.add(n_, branch_, -1.0);
  mna.add(branch_, p_, 1.0);
  mna.add(branch_, n_, -1.0);
  mna.add(branch_, cp_, -gain_);
  mna.add(branch_, cn_, gain_);
}

void Vcvs::stamp_ac(MnaComplex& mna, double) const {
  mna.add(p_, branch_, {1.0, 0.0});
  mna.add(n_, branch_, {-1.0, 0.0});
  mna.add(branch_, p_, {1.0, 0.0});
  mna.add(branch_, n_, {-1.0, 0.0});
  mna.add(branch_, cp_, {-gain_, 0.0});
  mna.add(branch_, cn_, {gain_, 0.0});
}

DeviceStructure Vcvs::structure() const {
  return {{{p_, n_, EdgeKind::VoltageDefined}}, {cp_, cn_}};
}

Vccs::Vccs(std::string name, NodeId p, NodeId n, NodeId cp, NodeId cn, double gm)
    : Device(std::move(name)), p_(p), n_(n), cp_(cp), cn_(cn), gm_(gm) {}

void Vccs::stamp_dc(MnaReal& mna, const Solution&, double) const {
  mna.add(p_, cp_, gm_);
  mna.add(p_, cn_, -gm_);
  mna.add(n_, cp_, -gm_);
  mna.add(n_, cn_, gm_);
}

void Vccs::stamp_ac(MnaComplex& mna, double) const {
  mna.add(p_, cp_, {gm_, 0.0});
  mna.add(p_, cn_, {-gm_, 0.0});
  mna.add(n_, cp_, {-gm_, 0.0});
  mna.add(n_, cn_, {gm_, 0.0});
}

DeviceStructure Vccs::structure() const {
  return {{{p_, n_, EdgeKind::CurrentSource}}, {cp_, cn_}};
}

Cccs::Cccs(std::string name, NodeId p, NodeId n, const VSource* ctrl, double gain)
    : Device(std::move(name)), p_(p), n_(n), ctrl_(ctrl), gain_(gain) {
  if (ctrl_ == nullptr) throw SpecError("CCCS " + this->name() + ": no control source");
}

void Cccs::stamp_dc(MnaReal& mna, const Solution&, double) const {
  mna.add(p_, ctrl_->branch(), gain_);
  mna.add(n_, ctrl_->branch(), -gain_);
}

void Cccs::stamp_ac(MnaComplex& mna, double) const {
  mna.add(p_, ctrl_->branch(), {gain_, 0.0});
  mna.add(n_, ctrl_->branch(), {-gain_, 0.0});
}

DeviceStructure Cccs::structure() const {
  return {{{p_, n_, EdgeKind::CurrentSource}}, {}};
}

Ccvs::Ccvs(std::string name, NodeId p, NodeId n, const VSource* ctrl, double r)
    : Device(std::move(name)), p_(p), n_(n), ctrl_(ctrl), r_(r) {
  if (ctrl_ == nullptr) throw SpecError("CCVS " + this->name() + ": no control source");
}

void Ccvs::claim_branches(size_t& next_branch) {
  branch_ = static_cast<NodeId>(next_branch++);
}

void Ccvs::stamp_dc(MnaReal& mna, const Solution&, double) const {
  mna.add(p_, branch_, 1.0);
  mna.add(n_, branch_, -1.0);
  mna.add(branch_, p_, 1.0);
  mna.add(branch_, n_, -1.0);
  mna.add(branch_, ctrl_->branch(), -r_);
}

void Ccvs::stamp_ac(MnaComplex& mna, double) const {
  mna.add(p_, branch_, {1.0, 0.0});
  mna.add(n_, branch_, {-1.0, 0.0});
  mna.add(branch_, p_, {1.0, 0.0});
  mna.add(branch_, n_, {-1.0, 0.0});
  mna.add(branch_, ctrl_->branch(), {-r_, 0.0});
}

DeviceStructure Ccvs::structure() const {
  return {{{p_, n_, EdgeKind::VoltageDefined}}, {}};
}

// --- Diode -------------------------------------------------------------------

Diode::Diode(std::string name, NodeId p, NodeId n, double is, double n_emission)
    : Device(std::move(name)), p_(p), n_(n), is_(is), nf_(n_emission) {}

void Diode::stamp_dc(MnaReal& mna, const Solution& x, double) const {
  const double nvt = nf_ * kVt;
  // Exponent limiting keeps Newton iterates finite.
  const double vd = std::min(x.at(p_) - x.at(n_), 40.0 * nvt);
  const double ex = std::exp(vd / nvt);
  const double id = is_ * (ex - 1.0);
  const double gd = std::max(is_ * ex / nvt, kGmin);
  const double ieq = id - gd * vd;
  mna.add(p_, p_, gd);
  mna.add(n_, n_, gd);
  mna.add(p_, n_, -gd);
  mna.add(n_, p_, -gd);
  mna.add_rhs(p_, -ieq);
  mna.add_rhs(n_, ieq);
}

void Diode::save_op(const Solution& x) {
  const double nvt = nf_ * kVt;
  const double vd = std::min(x.at(p_) - x.at(n_), 40.0 * nvt);
  gd_op_ = std::max(is_ * std::exp(vd / nvt) / nvt, kGmin);
}

void Diode::stamp_ac(MnaComplex& mna, double) const {
  mna.add(p_, p_, {gd_op_, 0.0});
  mna.add(n_, n_, {gd_op_, 0.0});
  mna.add(p_, n_, {-gd_op_, 0.0});
  mna.add(n_, p_, {-gd_op_, 0.0});
}

DeviceStructure Diode::structure() const {
  return {{{p_, n_, EdgeKind::Conductive}}, {}};
}

// --- Mosfet ------------------------------------------------------------------

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
               const MosModelCard* model, double w, double l, double ad,
               double as, double pd, double ps)
    : Device(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      model_(model),
      w_(w),
      l_(l),
      ad_(ad),
      as_(as),
      pd_(pd),
      ps_(ps) {
  if (model_ == nullptr) throw SpecError("mosfet " + this->name() + ": no model");
  if (w_ <= 0.0 || l_ <= 0.0) {
    throw SpecError("mosfet " + this->name() + ": non-positive geometry");
  }
  // Default junction geometry if the netlist omitted it: a 3L-deep region.
  if (ad_ <= 0.0) ad_ = 3.0 * l_ * w_;
  if (as_ <= 0.0) as_ = 3.0 * l_ * w_;
  if (pd_ <= 0.0) pd_ = 2.0 * (3.0 * l_ + w_);
  if (ps_ <= 0.0) ps_ = 2.0 * (3.0 * l_ + w_);
}

void Mosfet::resize(double w, double l) {
  if (w <= 0.0 || l <= 0.0) {
    throw SpecError("mosfet " + name() + ": resize to non-positive geometry");
  }
  w_ = w;
  l_ = l;
  ad_ = 3.0 * l_ * w_;
  as_ = ad_;
  pd_ = 2.0 * (3.0 * l_ + w_);
  ps_ = pd_;
}

Mosfet::Bias Mosfet::bias_at(const Solution& x) const {
  Bias v{x.at(g_) - x.at(s_), x.at(d_) - x.at(s_), x.at(b_) - x.at(s_)};
  if (model_->type == MosType::Pmos) {
    v.vgs = -v.vgs;
    v.vds = -v.vds;
    v.vbs = -v.vbs;
  }
  return v;
}

Linearization Mosfet::linearize(const Solution& x) const {
  const Bias v = bias_at(x);
  const MosEval e = mos_eval_dc(*model_, v.vgs, v.vds, v.vbs, w_, l_);
  Linearization lin;
  lin.v[0] = x.at(g_) - x.at(s_);
  lin.v[1] = x.at(d_) - x.at(s_);
  lin.v[2] = x.at(b_) - x.at(s_);
  // For PMOS the drain-terminal current is the negative of the normalized
  // current; the conductances are sign-invariant under the mapping.
  lin.i = (model_->type == MosType::Pmos) ? -e.ids : e.ids;
  lin.g[0] = std::max(e.gm, 0.0);
  lin.g[1] = std::max(e.gds, kGmin);
  lin.g[2] = std::max(e.gmb, 0.0);
  lin.valid = true;
  return lin;
}

void Mosfet::stamp_linearization(MnaReal& mna, const Linearization& lin) const {
  const double gm = lin.g[0];
  const double gds = lin.g[1];
  const double gmb = lin.g[2];
  // Companion: Id(x) linearized in (vgs, vds, vbs).
  const double ieq = lin.i - gm * lin.v[0] - gds * lin.v[1] - gmb * lin.v[2];

  mna.add(d_, g_, gm);
  mna.add(d_, d_, gds);
  mna.add(d_, b_, gmb);
  mna.add(d_, s_, -(gm + gds + gmb));
  mna.add(s_, g_, -gm);
  mna.add(s_, d_, -gds);
  mna.add(s_, b_, -gmb);
  mna.add(s_, s_, gm + gds + gmb);
  mna.add_rhs(d_, -ieq);
  mna.add_rhs(s_, ieq);
}

void Mosfet::stamp_dc(MnaReal& mna, const Solution& x, double) const {
  stamp_linearization(mna, linearize(x));
}

void Mosfet::save_op(const Solution& x) {
  const Bias v = bias_at(x);
  op_ = mos_eval(*model_, v.vgs, v.vds, v.vbs, w_, l_, ad_, as_, pd_, ps_);
  // Initialize transient companions and capacitances at the DC point.
  caps_ = {op_.cgs, op_.cgd, op_.cgb, op_.cdb, op_.csb};
  caps_bias_ = v;
  cgs_st_ = {x.at(g_) - x.at(s_), 0.0};
  cgd_st_ = {x.at(g_) - x.at(d_), 0.0};
  cgb_st_ = {x.at(g_) - x.at(b_), 0.0};
  cdb_st_ = {x.at(d_) - x.at(b_), 0.0};
  csb_st_ = {x.at(s_) - x.at(b_), 0.0};
}

void Mosfet::stamp_ac(MnaComplex& mna, double omega) const {
  const double gm = op_.gm;
  const double gds = std::max(op_.gds, kGmin);
  const double gmb = op_.gmb;

  mna.add(d_, g_, {gm, 0.0});
  mna.add(d_, d_, {gds, 0.0});
  mna.add(d_, b_, {gmb, 0.0});
  mna.add(d_, s_, {-(gm + gds + gmb), 0.0});
  mna.add(s_, g_, {-gm, 0.0});
  mna.add(s_, d_, {-gds, 0.0});
  mna.add(s_, b_, {-gmb, 0.0});
  mna.add(s_, s_, {gm + gds + gmb, 0.0});

  auto cap = [&](NodeId a, NodeId bn, double c) {
    const std::complex<double> y{0.0, omega * c};
    mna.add(a, a, y);
    mna.add(bn, bn, y);
    mna.add(a, bn, -y);
    mna.add(bn, a, -y);
  };
  cap(g_, s_, op_.cgs);
  cap(g_, d_, op_.cgd);
  cap(g_, b_, op_.cgb);
  cap(d_, b_, op_.cdb);
  cap(s_, b_, op_.csb);
}

void Mosfet::stamp_tran(MnaReal& mna, const Solution& x, const TranContext& tc) const {
  stamp_dc(mna, x, 1.0);  // resistive companion at candidate x
  stamp_tran_companions(mna, tc);
}

void Mosfet::stamp_tran_companions(MnaReal& mna, const TranContext& tc) const {
  cgs_st_.stamp(mna, g_, s_, caps_.cgs, tc);
  cgd_st_.stamp(mna, g_, d_, caps_.cgd, tc);
  cgb_st_.stamp(mna, g_, b_, caps_.cgb, tc);
  cdb_st_.stamp(mna, d_, b_, caps_.cdb, tc);
  csb_st_.stamp(mna, s_, b_, caps_.csb, tc);
}

bool Mosfet::stamp_tran_iteration(MnaReal& mna, const Solution& x, const TranContext& tc,
                                  Linearization& lin) const {
  const double dvgs = x.at(g_) - x.at(s_) - lin.v[0];
  const double dvds = x.at(d_) - x.at(s_) - lin.v[1];
  const double dvbs = x.at(b_) - x.at(s_) - lin.v[2];
  const bool bypass =
      lin.valid && within(dvgs, dvds, dvbs, tc.bypass_vntol) &&
      std::fabs(lin.g[0] * dvgs + lin.g[1] * dvds + lin.g[2] * dvbs) <=
          tc.bypass_reltol * std::fabs(lin.i) + kBypassAbstol;
  if (!bypass) lin = linearize(x);
  stamp_linearization(mna, lin);
  return bypass;
}

void Mosfet::noise_sources(std::vector<NoiseSource>& out) const {
  // Channel thermal noise (long-channel gamma = 2/3) plus SPICE2 flicker,
  // both as drain-source current sources at the cached operating point.
  const double gm_eff = std::max(op_.gm + op_.gmb, 0.0);
  NoiseSource src;
  src.p = d_;
  src.n = s_;
  src.thermal = k4kT * (2.0 / 3.0) * gm_eff;
  if (model_->kf > 0.0) {
    const double leff = std::max(model_->leff(l_), 1e-8);
    src.flicker = model_->kf * std::pow(std::fabs(op_.ids), model_->af) /
                  (model_->cox() * leff * leff);
  }
  out.push_back(src);
}

DeviceStructure Mosfet::structure() const {
  // The channel conducts drain-source; gate and bulk draw no DC current
  // (gate is purely capacitive, the bulk row is never stamped), so both
  // are sense terminals that need a DC path from elsewhere.
  return {{{d_, s_, EdgeKind::Conductive}}, {g_, b_}};
}

void Mosfet::accept_tran_step(const Solution& x, const TranContext& tc) {
  cgs_st_.accept(g_, s_, caps_.cgs, x, tc);
  cgd_st_.accept(g_, d_, caps_.cgd, x, tc);
  cgb_st_.accept(g_, b_, caps_.cgb, x, tc);
  cdb_st_.accept(d_, b_, caps_.cdb, x, tc);
  csb_st_.accept(s_, b_, caps_.csb, x, tc);
  // Refresh the bias-dependent capacitances for the next step, unless
  // the bias stayed inside the bypass window of the one they were
  // evaluated at; op_ keeps the DC operating point the AC and noise
  // analyses linearize around.
  const Bias v = bias_at(x);
  if (within(v.vgs - caps_bias_.vgs, v.vds - caps_bias_.vds, v.vbs - caps_bias_.vbs,
             tc.bypass_vntol)) {
    return;
  }
  caps_ = mos_caps(*model_, v.vgs, v.vds, v.vbs, w_, l_, ad_, as_, pd_, ps_);
  caps_bias_ = v;
}

}  // namespace ape::spice
