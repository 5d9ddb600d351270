#include "src/synth/sizing.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "src/spice/mos_model.h"
#include "src/util/error.h"

namespace ape::synth {
namespace {

using est::OpAmpDesign;
using est::OpAmpSpec;
using est::Process;
using est::TransistorDesign;
using est::design_from_eval;
using spice::MosEval;
using spice::MosType;

constexpr double kVtail = 0.3;

/// Gate voltage of a diode-connected device conducting \p id
/// (NMOS-normalized). Bisection on the model card.
double diode_vgs(const spice::MosModelCard& card, double w, double l, double id,
                 double vbs = 0.0) {
  double lo = 0.0, hi = 12.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (spice::mos_eval(card, mid, mid, vbs, w, l).ids < id) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// Gate voltage for \p id at fixed (vds, vbs).
double vgs_at(const spice::MosModelCard& card, double w, double l, double id,
              double vds, double vbs) {
  double lo = 0.0, hi = 12.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (spice::mos_eval(card, mid, vds, vbs, w, l).ids < id) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

/// A device conducting a given current: its gate voltage and its
/// evaluation at that bias.
struct DeviceBias {
  double vgs = 0.0;
  MosEval e;
};

/// The second stage's operating point: out2 where M6 and M7 conduct the
/// same current, or the mid-rail mismatch that grades a stuck output.
struct CrossingBias {
  bool stuck = false;
  double imbalance = 0.0;
  double out2 = 0.0;
  MosEval e6, e7;
};

/// The output follower's level, or the imbalance of a follower that
/// cannot carry the stage-2 output (the partial solve is kept as is).
struct FollowerBias {
  double imbalance = 0.0;  ///< > 0 when the follower failed
  double out = 0.0;
  double vgs9 = 0.0, i9 = 0.0;
  MosEval e9, e10;
};

/// A diode-connected device conducting \p id.
DeviceBias diode_bias(const spice::MosModelCard& card, double w, double l,
                      double id) {
  const double vgs = diode_vgs(card, w, l, id);
  return {vgs, spice::mos_eval(card, vgs, vgs, 0.0, w, l)};
}

/// The input pair conducting \p i1 with its drain at \p o1.
DeviceBias pair_bias(const Process& proc, const OpAmpVars& v, double i1,
                     double o1) {
  const double vgs = vgs_at(proc.nmos, v.w1, v.l1, i1, o1 - kVtail, -kVtail);
  return {vgs,
          spice::mos_eval(proc.nmos, vgs, o1 - kVtail, -kVtail, v.w1, v.l1)};
}

/// Second stage: find out2 where M6 (gate at o1) and M7 (gate at bias)
/// conduct the same current. No crossing inside the rails means the
/// output is stuck - the classic blind-search failure.
CrossingBias crossing_bias(const Process& proc, const OpAmpVars& v,
                           double vgs3, double vgs8) {
  const double vdd = proc.vdd;
  auto i6_at = [&](double out2) {
    return spice::mos_eval(proc.pmos, vgs3, vdd - out2, 0.0, v.w6, v.l6).ids;
  };
  auto i7_at = [&](double out2) {
    return spice::mos_eval(proc.nmos, vgs8, out2, 0.0, v.w7, v.l7).ids;
  };
  CrossingBias c;
  double lo = 0.05, hi = vdd - 0.05;
  const double f_lo = i6_at(lo) - i7_at(lo);
  const double f_hi = i6_at(hi) - i7_at(hi);
  if (f_lo * f_hi > 0.0) {
    // Output stuck at a rail: grade the failure by the mid-rail current
    // mismatch so the annealer has a slope off the plateau.
    const double i6m = i6_at(0.5 * vdd);
    const double i7m = i7_at(0.5 * vdd);
    c.stuck = true;
    c.imbalance = std::fabs(i6m - i7m) / std::max(i6m + i7m, 1e-15);
    return c;
  }
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if ((i6_at(mid) - i7_at(mid)) * f_lo > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  c.out2 = 0.5 * (lo + hi);
  c.e6 = spice::mos_eval(proc.pmos, vgs3, vdd - c.out2, 0.0, v.w6, v.l6);
  c.e7 = spice::mos_eval(proc.nmos, vgs8, c.out2, 0.0, v.w7, v.l7);
  return c;
}

/// Output buffer: iterate the follower level, since i10 depends on out
/// and vgs9 on i10.
FollowerBias follower_bias(const Process& proc, const OpAmpVars& v,
                           double out2, double vgs8) {
  const auto& nn = proc.nmos;
  const double vdd = proc.vdd;
  const double l9 = 2.0 * proc.lmin;
  FollowerBias f;
  double out = out2 - 1.2;
  for (int it = 0; it < 8; ++it) {
    f.e10 = spice::mos_eval(nn, vgs8, std::max(out, 0.05), 0.0, v.w10, l9);
    f.i9 = f.e10.ids;
    if (f.i9 <= 0.0) {
      f.imbalance = 0.7;
      return f;
    }
    f.vgs9 = vgs_at(nn, v.w9, l9, f.i9, vdd - std::max(out, 0.05),
                    -std::max(out, 0.05));
    out = out2 - f.vgs9;
  }
  if (out < 0.1) {
    f.imbalance = 0.6;
    return f;
  }
  f.out = out;
  f.e9 = spice::mos_eval(nn, f.vgs9, vdd - out, -out, v.w9, l9);
  return f;
}

/// Entries each stage of a BiasMemo keeps: the current point's, plus a
/// few candidates' (a rejected candidate's stages are dropped first).
constexpr size_t kStageEntries = 4;

/// The last kStageEntries solves of one stage, keyed on the exact bits of
/// the N inputs the stage reads, most recently used first.
template <size_t N, class Value>
class StageMemo {
 public:
  /// solve()'s value for \p inputs: copied from an entry whose key has
  /// the same bits, else solved and remembered. A solve that throws
  /// leaves the memo as it was.
  template <class Solve>
  Value get(const std::array<double, N>& inputs, BiasStageCounts& counts,
            Solve&& solve) {
    std::array<uint64_t, N> key{};
    for (size_t i = 0; i < N; ++i) key[i] = std::bit_cast<uint64_t>(inputs[i]);
    const auto first = entries_.begin();
    for (size_t k = 0; k < size_; ++k) {
      if (entries_[k].key == key) {
        std::rotate(first, first + k, first + k + 1);
        ++counts.reused;
        return entries_.front().value;
      }
    }
    Value value = solve();
    ++counts.solved;
    size_ = std::min(size_ + 1, kStageEntries);
    std::rotate(first, first + (size_ - 1), first + size_);
    entries_.front() = {key, value};
    return value;
  }

 private:
  struct Entry {
    std::array<uint64_t, N> key{};
    Value value;
  };
  std::array<Entry, kStageEntries> entries_{};
  size_t size_ = 0;
};

}  // namespace

/// The stages of solve_bias, each keyed on what it reads besides the
/// memo's (process, ibias).
struct BiasMemo::Stages {
  BiasStageCounts* counts = nullptr;
  StageMemo<2, DeviceBias> bias_diode;    ///< w8, l8 -> vgs8, e8
  StageMemo<3, DeviceBias> load_diode;    ///< w3, l3, i1 -> vgs3, e3
  StageMemo<4, DeviceBias> input_pair;    ///< w1, l1, i1, o1 -> vgs1, e1
  StageMemo<6, CrossingBias> crossing;    ///< vgs3, vgs8, w6, l6, w7, l7
  StageMemo<4, FollowerBias> follower;    ///< out2, vgs8, w9, w10
};

namespace {

/// One stage of the bias solve: through \p stage of \p memo when there
/// is a memo, else solved directly.
template <size_t N, class Value, class Solve>
Value staged(BiasMemo::Stages* memo,
             StageMemo<N, Value> BiasMemo::Stages::*stage,
             const std::array<double, N>& inputs, Solve&& solve) {
  if (memo == nullptr) return solve();
  return (memo->*stage).get(inputs, *memo->counts, solve);
}

/// Everything the evaluation solves; reused by design_from_vars.
struct BiasSolution {
  bool functional = false;
  double imbalance = 0.0;
  double vgs8 = 0.0, itail = 0.0, i1 = 0.0, vgs3 = 0.0, o1 = 0.0, vgs1 = 0.0;
  double out2 = 0.0, i6 = 0.0;
  double i9 = 0.0, vgs9 = 0.0, out_dc = 0.0;
  double vtail = kVtail;
  MosEval e1, e3, e4, e5, e6, e7, e8, e9, e10;
};

/// The DC bias of a candidate, stage by stage; \p memo (optional) holds
/// recent stage solves of the same (proc, ibias).
BiasSolution solve_bias(const Process& proc, const OpAmpVars& v, double ibias,
                        BiasMemo::Stages* memo) {
  using Stages = BiasMemo::Stages;
  BiasSolution b;
  const auto& nn = proc.nmos;
  const auto& pp = proc.pmos;
  const double vdd = proc.vdd;

  // Bias diode and tail mirror.
  const DeviceBias d8 =
      staged(memo, &Stages::bias_diode, {v.w8, v.l8},
             [&] { return diode_bias(nn, v.w8, v.l8, ibias); });
  b.vgs8 = d8.vgs;
  b.e8 = d8.e;
  b.e5 = spice::mos_eval(nn, b.vgs8, b.vtail, 0.0, v.w5, v.l5);
  b.itail = b.e5.ids;
  if (b.itail < 0.05 * ibias) {
    b.imbalance = 1.0;
    return b;  // tail effectively off
  }
  b.i1 = 0.5 * b.itail;

  // First stage: PMOS mirror diode fixes o1.
  const DeviceBias d3 =
      staged(memo, &Stages::load_diode, {v.w3, v.l3, b.i1},
             [&] { return diode_bias(pp, v.w3, v.l3, b.i1); });
  b.vgs3 = d3.vgs;
  b.e3 = d3.e;
  b.e4 = b.e3;
  b.o1 = vdd - b.vgs3;
  if (b.o1 < b.vtail + 0.2) {
    b.imbalance = 1.0;
    return b;  // no headroom for the pair
  }
  const DeviceBias d1 =
      staged(memo, &Stages::input_pair, {v.w1, v.l1, b.i1, b.o1},
             [&] { return pair_bias(proc, v, b.i1, b.o1); });
  b.vgs1 = d1.vgs;
  b.e1 = d1.e;

  const CrossingBias c =
      staged(memo, &Stages::crossing, {b.vgs3, b.vgs8, v.w6, v.l6, v.w7, v.l7},
             [&] { return crossing_bias(proc, v, b.vgs3, b.vgs8); });
  if (c.stuck) {
    b.imbalance = c.imbalance;
    return b;
  }
  b.out2 = c.out2;
  b.e6 = c.e6;
  b.e7 = c.e7;
  b.i6 = 0.5 * (b.e6.ids + b.e7.ids);

  // Saturation checks: pair, load mirror output, and both stage-2 devices.
  const double margin = 0.02;
  const bool sat =
      (b.e1.region == spice::MosRegion::Saturation) &&
      (vdd - b.out2 >= b.e6.vdsat - margin) && (b.out2 >= b.e7.vdsat - margin);
  if (!sat) {
    b.imbalance = 0.5;
    return b;
  }

  // Optional buffer.
  b.out_dc = b.out2;
  if (v.buffered()) {
    const FollowerBias f =
        staged(memo, &Stages::follower, {b.out2, b.vgs8, v.w9, v.w10},
               [&] { return follower_bias(proc, v, b.out2, b.vgs8); });
    b.e10 = f.e10;
    b.i9 = f.i9;
    b.vgs9 = f.vgs9;
    b.e9 = f.e9;
    if (f.imbalance > 0.0) {
      b.imbalance = f.imbalance;
      return b;
    }
    b.out_dc = f.out;
  }

  b.functional = true;
  return b;
}

/// The performance composition at a functional bias point.
est::OpAmpPerf compose(const Process& proc, const OpAmpVars& v,
                       const BiasSolution& b, double ibias, double cload) {
  using est::small_signal;
  return est::compose_two_stage(
      {.m1 = small_signal(b.e1), .m4 = small_signal(b.e4),
       .m6 = small_signal(b.e6), .m7 = small_signal(b.e7),
       .m9 = small_signal(b.e9), .m10 = small_signal(b.e10),
       .buffered = v.buffered(), .gm_ugf = b.e1.gm, .cc = v.cc,
       .cl2 = est::second_stage_load(v.buffered(), cload), .cload = cload,
       .vdd = proc.vdd, .ibias = ibias, .itail = b.itail, .i6 = b.i6,
       .i9 = b.i9});
}

/// Gate area of the synthesis template (M1/M2 and M3/M4 counted twice).
double gate_area(const Process& proc, const OpAmpVars& v) {
  double area = 2.0 * v.w1 * v.l1 + 2.0 * v.w3 * v.l3 + v.w5 * v.l5 +
                v.w6 * v.l6 + v.w7 * v.l7 + v.w8 * v.l8;
  if (v.buffered()) area += (v.w9 + v.w10) * 2.0 * proc.lmin;
  return area;
}

/// The analytic evaluation of a candidate; \p memo as in solve_bias.
OpAmpEval evaluate(const Process& proc, const OpAmpVars& v, double ibias,
                   double cload, BiasMemo::Stages* memo) {
  OpAmpEval e;
  const BiasSolution b = solve_bias(proc, v, ibias, memo);
  e.imbalance = b.imbalance;
  if (!b.functional) return e;

  const est::OpAmpPerf p = compose(proc, v, b, ibias, cload);
  e.functional = true;
  e.itail = b.itail;
  e.gain = p.gain;
  e.ugf_hz = p.ugf_hz;
  e.phase_margin = p.phase_margin;
  e.gate_area = gate_area(proc, v);
  e.dc_power = p.dc_power;
  e.slew = p.slew;
  e.zout = p.zout;
  return e;
}

}  // namespace

std::vector<double> OpAmpVars::pack() const {
  std::vector<double> x{w1, l1, w3, l3, w5, l5, w6, l6, w7, l7, w8, l8, cc};
  if (buffered()) {
    x.push_back(w9);
    x.push_back(w10);
  }
  return x;
}

OpAmpVars OpAmpVars::unpack(const std::vector<double>& x, bool buffered) {
  if (x.size() != (buffered ? 15u : 13u)) {
    throw SpecError("OpAmpVars::unpack: wrong vector size");
  }
  OpAmpVars v;
  v.w1 = x[0];
  v.l1 = x[1];
  v.w3 = x[2];
  v.l3 = x[3];
  v.w5 = x[4];
  v.l5 = x[5];
  v.w6 = x[6];
  v.l6 = x[7];
  v.w7 = x[8];
  v.l7 = x[9];
  v.w8 = x[10];
  v.l8 = x[11];
  v.cc = x[12];
  if (buffered) {
    v.w9 = x[13];
    v.w10 = x[14];
  }
  return v;
}

std::vector<std::string> OpAmpVars::names(bool buffered) {
  std::vector<std::string> n{"w1", "l1", "w3", "l3", "w5", "l5", "w6",
                             "l6", "w7", "l7", "w8", "l8", "cc"};
  if (buffered) {
    n.push_back("w9");
    n.push_back("w10");
  }
  return n;
}

OpAmpEval evaluate_opamp_vars(const Process& proc, const OpAmpVars& v,
                              double ibias, double cload) {
  return evaluate(proc, v, ibias, cload, nullptr);
}

BiasMemo::BiasMemo(const Process& proc, double ibias, BiasStageCounts& counts)
    : proc_(&proc), ibias_(ibias), stages_(std::make_unique<Stages>()) {
  stages_->counts = &counts;
}

BiasMemo::BiasMemo(const BiasMemo& other)
    : proc_(other.proc_),
      ibias_(other.ibias_),
      stages_(std::make_unique<Stages>(*other.stages_)) {}

BiasMemo::~BiasMemo() = default;

OpAmpEval evaluate_opamp_vars(BiasMemo& memo, const OpAmpVars& v,
                              double cload) {
  return evaluate(*memo.proc_, v, memo.ibias_, cload, memo.stages_.get());
}

double opamp_cost(const OpAmpEval& e, const OpAmpSpec& spec) {
  if (!e.functional) return kNonFunctionalCost * (1.0 + e.imbalance);
  auto under = [](double value, double target) {
    return target > 0.0 ? std::max(0.0, 1.0 - value / target) : 0.0;
  };
  auto over = [](double value, double target) {
    return target > 0.0 ? std::max(0.0, value / target - 1.0) : 0.0;
  };
  double c = 0.0;
  const double g_under = under(e.gain, spec.gain);
  const double u_under = under(e.ugf_hz, spec.ugf_hz);
  const double a_over = over(e.gate_area, spec.area_budget);
  c += 10.0 * g_under * g_under;
  c += 10.0 * u_under * u_under;
  c += 4.0 * a_over * a_over;
  const double pm_deficit =
      std::max(0.0, kMinPhaseMargin - e.phase_margin) / kMinPhaseMargin;
  c += 2.0 * pm_deficit * pm_deficit;
  if (spec.buffer && spec.zout > 0.0) {
    const double z_over = over(e.zout, spec.zout);
    c += 2.0 * z_over * z_over;
  }
  // Objective terms: minimize power (and area when unconstrained).
  c += 0.05 * e.dc_power / 1e-3;
  c += 0.02 * e.gate_area / 5e-9;
  return c;
}

std::vector<std::pair<double, double>> blind_bounds(const Process& proc,
                                                    bool buffered) {
  const std::pair<double, double> w{proc.wmin, 1000e-6};
  const std::pair<double, double> l{2.0 * proc.lmin, 120e-6};
  std::vector<std::pair<double, double>> b{w, l, w, l, w, l, w, l, w, l, w, l,
                                           {0.1e-12, 30e-12}};
  if (buffered) {
    b.push_back(w);
    b.push_back(w);
  }
  return b;
}

std::vector<std::pair<double, double>> narrow_box(
    const std::vector<double>& seed, double frac,
    const std::vector<std::pair<double, double>>& outer) {
  std::vector<std::pair<double, double>> b(seed.size());
  for (size_t i = 0; i < seed.size(); ++i) {
    b[i] = {std::max(seed[i] * (1.0 - frac), outer[i].first),
            std::min(seed[i] * (1.0 + frac), outer[i].second)};
    if (b[i].first > b[i].second) {
      // Seed outside the outer box: pin to the nearest legal point.
      const double pin = std::clamp(seed[i], outer[i].first, outer[i].second);
      b[i] = {pin, pin};
    }
  }
  return b;
}

std::vector<std::pair<double, double>> seeded_bounds(
    const std::vector<double>& seed, double frac, const Process& proc,
    bool buffered) {
  const auto blind = blind_bounds(proc, buffered);
  if (seed.size() != blind.size()) {
    throw SpecError("seeded_bounds: seed size mismatch");
  }
  return narrow_box(seed, frac, blind);
}

OpAmpVars vars_from_design(const OpAmpDesign& d) {
  auto find = [&](const std::string& role) -> const TransistorDesign* {
    for (size_t i = 0; i < d.roles.size(); ++i) {
      if (d.roles[i] == role) return &d.transistors[i];
    }
    return nullptr;
  };
  auto need = [&](const std::string& role) -> const TransistorDesign& {
    if (const TransistorDesign* t = find(role)) return *t;
    throw SpecError("vars_from_design: not a two-stage opamp design: no '" +
                    role + "' device");
  };
  OpAmpVars v;
  const TransistorDesign& m1 = need("m1");
  const TransistorDesign& m3 = need("m3");
  const TransistorDesign& m6 = need("m6");
  const TransistorDesign& m7 = need("m7");
  v.w1 = m1.w;
  v.l1 = m1.l;
  v.w3 = m3.w;
  v.l3 = m3.l;
  v.w6 = m6.w;
  v.l6 = m6.l;
  v.w7 = m7.w;
  v.l7 = m7.l;
  v.cc = d.perf.cc;
  // Tail/bias: simple-mirror roles, or the Wilson equivalents mapped onto
  // the mirror template (the synthesis engine optimizes the mirror-tail
  // topology; Wilson seeds land on their equivalent mirror sizing).
  const bool mirror = find("m5") != nullptr;
  const TransistorDesign& tail = need(mirror ? "m5" : "w_diode");
  const TransistorDesign& bias = need(mirror ? "m8" : "w_in");
  v.w5 = tail.w;
  v.l5 = tail.l;
  v.w8 = bias.w;
  v.l8 = bias.l;
  if (const TransistorDesign* m9 = find("m9")) {
    v.w9 = m9->w;
    v.w10 = need("m10").w;
  }
  return v;
}

OpAmpDesign design_from_vars(const Process& proc, const OpAmpVars& v,
                             const OpAmpSpec& spec, bool* functional) {
  const BiasSolution b = solve_bias(proc, v, spec.ibias, nullptr);
  if (functional != nullptr) *functional = b.functional;
  const double vdd = proc.vdd;
  const double l9 = 2.0 * proc.lmin;

  OpAmpDesign d;
  d.spec = spec;
  d.spec.source = est::CurrentSourceKind::Mirror;  // synthesis template
  d.spec.buffer = v.buffered();

  TransistorDesign m1 = design_from_eval(MosType::Nmos, v.w1, v.l1, b.e1,
                                         b.vgs1, b.o1 - b.vtail, -b.vtail);
  TransistorDesign m3 =
      design_from_eval(MosType::Pmos, v.w3, v.l3, b.e3, b.vgs3, b.vgs3, 0.0);
  TransistorDesign m6 = design_from_eval(MosType::Pmos, v.w6, v.l6, b.e6,
                                         b.vgs3, vdd - b.out2, 0.0);
  TransistorDesign m7 =
      design_from_eval(MosType::Nmos, v.w7, v.l7, b.e7, b.vgs8, b.out2, 0.0);
  TransistorDesign m5 =
      design_from_eval(MosType::Nmos, v.w5, v.l5, b.e5, b.vgs8, b.vtail, 0.0);
  TransistorDesign m8 =
      design_from_eval(MosType::Nmos, v.w8, v.l8, b.e8, b.vgs8, b.vgs8, 0.0);

  d.transistors = {m1, m1, m3, m3, m6, m7, m5, m8};
  d.roles = {"m1", "m2", "m3", "m4", "m6", "m7", "m5", "m8"};
  if (v.buffered()) {
    TransistorDesign m9 = design_from_eval(MosType::Nmos, v.w9, l9, b.e9,
                                           b.vgs9, vdd - b.out_dc, -b.out_dc);
    TransistorDesign m10 = design_from_eval(MosType::Nmos, v.w10, l9, b.e10,
                                            b.vgs8, b.out_dc, 0.0);
    d.transistors.push_back(m9);
    d.transistors.push_back(m10);
    d.roles.push_back("m9");
    d.roles.push_back("m10");
  }

  // A non-functional point keeps zero performance, as its evaluation does.
  if (b.functional) {
    d.perf = compose(proc, v, b, spec.ibias, spec.cload);
    d.perf.gate_area = gate_area(proc, v);
    d.perf.ibias = b.itail;
  }
  d.perf.cc = v.cc;
  d.perf.rz = b.e6.gm > 0.0 ? 1.0 / b.e6.gm : 1e3;
  d.perf.input_cm = b.vtail + b.vgs1;
  return d;
}

}  // namespace ape::synth
