#pragma once
/// \file device.h
/// Device base class and the MNA stamping interfaces.
///
/// The MNA vector is [node voltages (ground excluded) | branch currents].
/// Devices that introduce branch equations (voltage sources, VCVS/CCVS,
/// inductors) claim branch rows during Circuit::finalize().

#include <complex>
#include <string>
#include <vector>

#include "src/util/matrix.h"
#include "src/util/sparse.h"

namespace ape::spice {

/// Node handle: index into the MNA vector; kGround is the reference node
/// and is never stamped.
using NodeId = int;
inline constexpr NodeId kGround = -1;

/// A candidate or converged solution vector (node voltages + branch currents).
struct Solution {
  std::vector<double> x;

  double at(NodeId n) const { return n == kGround ? 0.0 : x[static_cast<size_t>(n)]; }
};

/// Real-valued MNA system for DC and transient Newton iterations.
class MnaReal {
public:
  explicit MnaReal(size_t dim) : g_(dim, dim), rhs_(dim, 0.0) {}

  size_t dim() const { return rhs_.size(); }
  void clear() {
    g_.set_zero();
    rhs_.assign(rhs_.size(), 0.0);
  }

  /// Add \p value at (i, j), ignoring ground rows/columns.
  void add(NodeId i, NodeId j, double value) {
    if (i == kGround || j == kGround) return;
    if (recorder_ != nullptr) recorder_->add(i, j);
    g_(static_cast<size_t>(i), static_cast<size_t>(j)) += value;
  }
  /// Add \p value to the right-hand side at row \p i.
  void add_rhs(NodeId i, double value) {
    if (i == kGround) return;
    rhs_[static_cast<size_t>(i)] += value;
  }

  /// Attach (or detach with nullptr) a sparsity-pattern recorder: every
  /// subsequent add() also registers its (i, j) slot. The kernel records
  /// *stamp calls*, not nonzero values, so a device stamping an exact
  /// 0.0 (a cutoff MOSFET's gm) still claims its structural slot.
  void set_recorder(SparsePattern* rec) { recorder_ = rec; }

  RealMatrix& matrix() { return g_; }
  const RealMatrix& matrix() const { return g_; }
  std::vector<double>& rhs() { return rhs_; }
  const std::vector<double>& rhs() const { return rhs_; }

private:
  RealMatrix g_;
  std::vector<double> rhs_;
  SparsePattern* recorder_ = nullptr;  ///< optional, not owned
};

/// Complex MNA system for small-signal AC analysis.
class MnaComplex {
public:
  explicit MnaComplex(size_t dim) : g_(dim, dim), rhs_(dim, {0.0, 0.0}) {}

  size_t dim() const { return rhs_.size(); }
  void clear() {
    g_.set_zero();
    rhs_.assign(rhs_.size(), std::complex<double>{0.0, 0.0});
  }
  void add(NodeId i, NodeId j, std::complex<double> value) {
    if (i == kGround || j == kGround) return;
    if (recorder_ != nullptr) recorder_->add(i, j);
    g_(static_cast<size_t>(i), static_cast<size_t>(j)) += value;
  }
  void add_rhs(NodeId i, std::complex<double> value) {
    if (i == kGround) return;
    rhs_[static_cast<size_t>(i)] += value;
  }

  /// Attach (or detach with nullptr) a sparsity-pattern recorder; see
  /// MnaReal::set_recorder.
  void set_recorder(SparsePattern* rec) { recorder_ = rec; }

  ComplexMatrix& matrix() { return g_; }
  const ComplexMatrix& matrix() const { return g_; }
  std::vector<std::complex<double>>& rhs() { return rhs_; }
  const std::vector<std::complex<double>>& rhs() const { return rhs_; }

private:
  ComplexMatrix g_;
  std::vector<std::complex<double>> rhs_;
  SparsePattern* recorder_ = nullptr;  ///< optional, not owned
};

/// One equivalent noise-current source between two nodes, with a white
/// (thermal/shot) part and a 1/f (flicker) part:
///   S_i(f) = thermal + flicker / f     [A^2/Hz]
struct NoiseSource {
  NodeId p = kGround;
  NodeId n = kGround;
  double thermal = 0.0;
  double flicker = 0.0;

  double psd(double f_hz) const { return thermal + flicker / f_hz; }
};

/// Context passed to transient stamps.
struct TranContext {
  double dt = 0.0;        ///< current step size [s]
  double time = 0.0;      ///< time being solved for [s]
  bool first_step = true; ///< true on the step leaving the DC operating point
  /// Device-bypass window (DESIGN.md section 8): a device whose
  /// controlling voltages each moved by at most bypass_vntol since its
  /// last evaluation, and whose predicted current change is at most
  /// bypass_reltol * |i| + 1e-12 A, may reuse that evaluation
  /// (Device::stamp_tran_iteration, Device::accept_tran_step).
  /// transient() sets both to its Newton tolerances (kVntol, kReltol,
  /// widened on the relaxed rung); the default
  /// 0 lets only bitwise-unchanged voltages reuse, which is exact.
  double bypass_vntol = 0.0;
  double bypass_reltol = 0.0;
};

/// One nonlinear device's last DC linearization in a transient run: the
/// controlling voltages it was taken at, the current there and its
/// conductances (MOSFET: v = {vgs, vds, vbs}, g = {gm, gds, gmb}, i =
/// the drain-terminal current). The run's SolveWorkspace owns one per
/// nonlinear device and hands it to Device::stamp_tran_iteration; the
/// device keeps no copy, so the bypass state lives and dies with the run.
struct Linearization {
  double v[3] = {0.0, 0.0, 0.0};
  double g[3] = {0.0, 0.0, 0.0};
  double i = 0.0;
  bool valid = false;  ///< false until the first evaluation
};

// ---------------------------------------------------------------------------

/// How a device edge behaves in the DC MNA structure. The static
/// analyzer (src/lint) uses this classification to prove structural
/// solvability — voltage-source loops, current-source cutsets and
/// missing ground paths — without assembling or factoring anything.
enum class EdgeKind {
  Conductive,     ///< carries DC current with finite conductance (R, diode,
                  ///< MOSFET channel)
  VoltageDefined, ///< constrains v(p) - v(n) via a branch equation (V, E, H,
                  ///< inductor at DC); a cycle of these is singular
  CurrentSource,  ///< injects a fixed/controlled current, no DC conductance
                  ///< (I, F, G); a cutset of these is singular
  Capacitive,     ///< open at DC (held up only by gmin), conducts in AC
};

/// One structural edge between two terminals of a device.
struct StructuralEdge {
  NodeId p = kGround;
  NodeId n = kGround;
  EdgeKind kind = EdgeKind::Conductive;
};

/// Structural description of one device: its electrical edges plus any
/// high-impedance sense terminals (MOS gate/bulk, controlled-source
/// control pins) that attach to a node without providing a DC path.
struct DeviceStructure {
  std::vector<StructuralEdge> edges;
  std::vector<NodeId> sense;
};

/// Abstract circuit element.
class Device {
public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Claim branch rows; \p next_branch is the next free MNA index.
  virtual void claim_branches(size_t& next_branch) { (void)next_branch; }

  /// True when stamp_dc / stamp_tran depend on the candidate solution x
  /// (MOSFETs, diodes). Linear devices are stamped once into the compiled
  /// baseline (src/spice/kernel.h) and skipped on every subsequent Newton
  /// iteration; nonlinear devices are restamped each iteration.
  virtual bool is_nonlinear() const { return false; }

  /// Stamp the linearized (companion) model around candidate solution \p x
  /// for a DC Newton iteration. \p src_scale scales independent sources
  /// (source-stepping homotopy).
  virtual void stamp_dc(MnaReal& mna, const Solution& x, double src_scale) const = 0;

  /// Record the converged DC operating point (bias-dependent small-signal
  /// parameters are cached here for AC / transient use).
  virtual void save_op(const Solution& x) { (void)x; }

  /// Stamp the small-signal model at angular frequency \p omega.
  virtual void stamp_ac(MnaComplex& mna, double omega) const = 0;

  /// Stamp for one transient Newton iteration at candidate \p x: a full
  /// evaluation, charge companions included. Default: same as DC
  /// (resistive elements).
  virtual void stamp_tran(MnaReal& mna, const Solution& x, const TranContext& tc) const {
    (void)tc;
    stamp_dc(mna, x, 1.0);
  }

  /// The part of a nonlinear device's stamp_tran that is fixed for a
  /// whole step attempt: its charge companions, whose integrator state
  /// and capacitances change only in accept_tran_step. The kernel stamps
  /// it once per attempt into the transient baseline. Default: nothing.
  virtual void stamp_tran_companions(MnaReal& mna, const TranContext& tc) const {
    (void)mna;
    (void)tc;
  }

  /// The rest of stamp_tran for one transient Newton iteration at \p x:
  /// stamp_tran_companions plus this stamps what stamp_tran stamps. \p lin
  /// is the run's slot for this device: when x lies inside tc's bypass
  /// window around lin the device may stamp lin verbatim instead of
  /// re-evaluating, otherwise it re-evaluates into lin. Returns true when
  /// it bypassed. Default: stamp_tran, never bypasses (so a device that
  /// overrides stamp_tran_companions overrides this too).
  virtual bool stamp_tran_iteration(MnaReal& mna, const Solution& x,
                                    const TranContext& tc, Linearization& lin) const {
    (void)lin;
    stamp_tran(mna, x, tc);
    return false;
  }

  /// Accept the converged transient step (update integrator state).
  virtual void accept_tran_step(const Solution& x, const TranContext& tc) {
    (void)x;
    (void)tc;
  }

  /// Append this device's equivalent noise-current sources (evaluated at
  /// the cached operating point). Noiseless devices append nothing.
  virtual void noise_sources(std::vector<NoiseSource>& out) const { (void)out; }

  /// Structural description for the static analyzer (src/lint): which
  /// terminal pairs form DC edges and which terminals only sense. The
  /// default (no edges, no terminals) marks the device opaque — the
  /// analyzer reports it as unmodeled instead of guessing.
  virtual DeviceStructure structure() const { return {}; }

private:
  std::string name_;
};

}  // namespace ape::spice
