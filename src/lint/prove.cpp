#include "src/lint/prove.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <limits>

#include "src/spice/mos_model.h"
#include "src/synth/sizing.h"
#include "src/util/error.h"
#include "src/util/json.h"

namespace ape::lint {
namespace {

using synth::kMinPhaseMargin;
using util::Interval;

constexpr double kTwoPi = 2.0 * M_PI;
constexpr double kBoltzmann = 1.380649e-23;

std::string fmt(const char* f, double a) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, a);
  return buf;
}

/// The square-law parameters the performance equations consume,
/// extracted from any card level. LEVEL 4 (simplified BSIM1) cards keep
/// K' in MUZ (cm^2/Vs) rather than KP and have no lambda — their gds
/// lower bound degenerates to 0, which only *widens* the gain
/// enclosure (sound, just less sharp).
struct DevParams {
  double kp = 0.0;
  double lambda = 0.0;
  double lref = 0.0;
};

DevParams dev_params(const spice::MosModelCard& c) {
  DevParams d;
  if (c.level == 4) {
    d.kp = c.muz * 1e-4 * c.cox();  // cm^2/Vs -> m^2/Vs, times Cox
  } else {
    d.kp = c.kp;
    d.lambda = c.lambda;
    d.lref = c.lref;
  }
  return d;
}

/// Effective channel-length modulation: lambda * lref / L when the
/// Early-voltage extension is active (mos_model.h), plain lambda else.
template <class T>
T lambda_eff(const DevParams& d, const T& l) {
  if (d.lref > 0.0) return (d.lambda * d.lref) / l;
  return T(d.lambda);
}

/// The seven estimated metrics, templated on the numeric type. THE
/// soundness trick of this file: exactly one definition of the
/// equations, instantiated at double (point sample) and at Interval
/// (outer enclosure), so containment holds by construction.
template <class T>
struct Metrics {
  T gain, ugf, pm, slew, power, area, noise;
};

template <class T>
Metrics<T> eval_metrics(const est::Process& proc, const est::OpAmpSpec& spec,
                        const std::array<T, 13>& x) {
  // Unqualified calls resolve to util::* for both double and Interval.
  using util::atan;
  using util::min;
  using util::sqrt;
  const DevParams nn = dev_params(proc.nmos);
  const DevParams pp = dev_params(proc.pmos);
  const double ibias = spec.ibias;
  const double cload = spec.cload;
  const T &w1 = x[0], &l1 = x[1], &w3 = x[2], &l3 = x[3], &w5 = x[4],
          &l5 = x[5], &w6 = x[6], &l6 = x[7], &w7 = x[8], &l7 = x[9],
          &w8 = x[10], &l8 = x[11], &cc = x[12];

  // Mirror currents of the synthesis template (sizing.cpp): M8 is the
  // bias diode, M5 the tail, M7 the class-A sink, all square-law ratios.
  const T mirror8 = w8 / l8;
  const T itail = ibias * (w5 / l5) / mirror8;
  const T i1 = 0.5 * itail;
  const T i6 = ibias * (w7 / l7) / mirror8;

  const T gm1 = sqrt(2.0 * nn.kp * (w1 / l1) * i1);
  const T gm3 = sqrt(2.0 * pp.kp * (w3 / l3) * i1);
  const T gm6 = sqrt(2.0 * pp.kp * (w6 / l6) * i6);
  const T gds1 = lambda_eff(nn, l1) * i1;
  const T gds4 = lambda_eff(pp, l3) * i1;
  const T gds6 = lambda_eff(pp, l6) * i6;
  const T gds7 = lambda_eff(nn, l7) * i6;

  Metrics<T> m;
  m.gain = (gm1 / (gds1 + gds4)) * (gm6 / (gds6 + gds7));
  m.ugf = gm1 / (kTwoPi * cc);
  const T fp2 = gm6 / (kTwoPi * cload);
  m.pm = 90.0 - atan(m.ugf / fp2) * (180.0 / M_PI);
  m.slew = min(itail / cc, i6 / (cload + cc));
  m.power = proc.vdd * (ibias + itail + i6);
  m.area = 2.0 * (w1 * l1) + 2.0 * (w3 * l3) + w5 * l5 + w6 * l6 + w7 * l7 +
           w8 * l8;
  const double kt = kBoltzmann * (273.15 + proc.temp_c);
  m.noise = (16.0 / 3.0) * kt / gm1 * (1.0 + gm3 / gm1);
  return m;
}

std::array<Interval, 13> box_to_intervals(
    const std::vector<std::pair<double, double>>& box) {
  std::array<Interval, 13> x;
  for (size_t i = 0; i < 13; ++i) x[i] = Interval(box[i].first, box[i].second);
  return x;
}

/// True when the enclosure \p m *proves* some spec requirement cannot be
/// met anywhere in the evaluated box.
bool provably_violates(const est::OpAmpSpec& spec,
                       const Metrics<Interval>& m) {
  if (spec.gain > 0.0 && m.gain.hi() < spec.gain) return true;
  if (spec.ugf_hz > 0.0 && m.ugf.hi() < spec.ugf_hz) return true;
  if (spec.area_budget > 0.0 && m.area.lo() > spec.area_budget) return true;
  if (m.pm.hi() < kMinPhaseMargin) return true;
  return false;
}

/// Verdict for a "metric must be >= spec" requirement.
void verdict_lower(Report& rep, const char* name, const char* where,
                   const Interval& b, double s, double margin,
                   bool emit_vacuous, bool& infeasible) {
  if (s <= 0.0 || b.empty()) return;
  if (b.hi() < s) {
    infeasible = true;
    rep.add("APE-F001", Severity::Error,
            std::string(name) + ": spec requires >= " + fmt("%.4g", s) +
                " but the proven bound over the sizing box is " + b.str() +
                " — no sizing can reach it",
            where);
  } else if (emit_vacuous && b.lo() >= s) {
    rep.add("APE-F003", Severity::Note,
            std::string(name) + ": spec >= " + fmt("%.4g", s) +
                " is satisfied over the entire sizing box " + b.str() +
                " — the constraint cannot bind the search",
            where);
  } else if (b.hi() < s * (1.0 + margin)) {
    rep.add("APE-F002", Severity::Warn,
            std::string(name) + ": spec >= " + fmt("%.4g", s) +
                " is within " + fmt("%.0f", margin * 100.0) +
                "% of the proven bound " + b.str(),
            where);
  }
}

/// Verdict for a "metric must be <= spec" requirement.
void verdict_upper(Report& rep, const char* name, const char* where,
                   const Interval& b, double s, double margin,
                   bool& infeasible) {
  if (s <= 0.0 || b.empty()) return;
  if (b.lo() > s) {
    infeasible = true;
    rep.add("APE-F001", Severity::Error,
            std::string(name) + ": spec requires <= " + fmt("%.4g", s) +
                " but the proven bound over the sizing box is " + b.str() +
                " — no sizing can fit it",
            where);
  } else if (b.hi() <= s) {
    rep.add("APE-F003", Severity::Note,
            std::string(name) + ": spec <= " + fmt("%.4g", s) +
                " is satisfied over the entire sizing box " + b.str() +
                " — the constraint cannot bind the search",
            where);
  } else if (b.lo() > s / (1.0 + margin)) {
    rep.add("APE-F002", Severity::Warn,
            std::string(name) + ": spec <= " + fmt("%.4g", s) +
                " is within " + fmt("%.0f", margin * 100.0) +
                "% of the proven bound " + b.str(),
            where);
  }
}

/// Proven lower bound on synth::opamp_cost over a box with metric
/// enclosures \p b: the cost at the box's best corner (every term is
/// monotone in its metric), capped by the plateau that every
/// non-functional point scores at least.
double cost_floor(const est::OpAmpSpec& spec, const MetricBounds& b) {
  synth::OpAmpEval best;
  best.functional = true;
  best.gain = b.gain.hi();
  best.ugf_hz = b.ugf_hz.hi();
  best.phase_margin = b.phase_margin.hi();
  best.gate_area = std::max(0.0, b.gate_area.lo());
  best.dc_power = std::max(0.0, b.dc_power.lo());
  return std::min(synth::opamp_cost(best, spec), synth::kNonFunctionalCost);
}

MetricBounds to_bounds(const Metrics<Interval>& m) {
  MetricBounds b;
  b.gain = m.gain;
  b.ugf_hz = m.ugf;
  b.phase_margin = m.pm;
  b.slew = m.slew;
  b.dc_power = m.power;
  b.gate_area = m.area;
  b.input_noise_v2 = m.noise;
  return b;
}

/// One branch-and-prune sweep: per variable, split the range into
/// geometric segments, drop every segment whose sub-box enclosure
/// provably violates a requirement, and keep the hull of the survivors.
/// Segments cover the range exactly (segment s's upper endpoint is the
/// same expression as segment s+1's lower), so a feasible point is
/// always inside some evaluated sub-box and can never be dropped.
/// Returns false (and names the variable) when every segment of some
/// variable dies — a stronger infeasibility proof than the whole-box
/// enclosure.
bool contract_box(const est::Process& proc, const est::OpAmpSpec& spec,
                  const ProveOptions& opts,
                  std::vector<std::pair<double, double>>& box,
                  std::string& dead_var) {
  const int segments = opts.contraction_segments;
  if (segments < 2) return true;
  for (int pass = 0; pass < opts.contraction_passes; ++pass) {
    for (size_t i = 0; i < box.size(); ++i) {
      const double lo = box[i].first;
      const double hi = box[i].second;
      if (!(lo > 0.0) || !(hi > lo)) continue;
      const double ratio = hi / lo;
      double keep_lo = std::numeric_limits<double>::infinity();
      double keep_hi = -std::numeric_limits<double>::infinity();
      for (int s = 0; s < segments; ++s) {
        const double a =
            s == 0 ? lo
                   : lo * std::pow(ratio, static_cast<double>(s) / segments);
        const double b =
            s == segments - 1
                ? hi
                : lo * std::pow(ratio, static_cast<double>(s + 1) / segments);
        auto sub = box;
        sub[i] = {a, b};
        if (!provably_violates(spec, eval_metrics<Interval>(
                                         proc, spec, box_to_intervals(sub)))) {
          keep_lo = std::min(keep_lo, a);
          keep_hi = std::max(keep_hi, b);
        }
      }
      if (keep_lo > keep_hi) {
        dead_var = synth::OpAmpVars::names(false)[i];
        return false;
      }
      box[i] = {keep_lo, keep_hi};
    }
  }
  return true;
}

}  // namespace

PointMetrics prove_point_metrics(const est::Process& proc,
                                 const est::OpAmpSpec& spec,
                                 const std::vector<double>& x) {
  if (x.size() != 13) {
    throw SpecError("prove_point_metrics: expected 13 sizing variables, got " +
                    std::to_string(x.size()));
  }
  std::array<double, 13> a;
  for (size_t i = 0; i < 13; ++i) a[i] = x[i];
  const Metrics<double> m = eval_metrics<double>(proc, spec, a);
  PointMetrics p;
  p.gain = m.gain;
  p.ugf_hz = m.ugf;
  p.phase_margin = m.pm;
  p.slew = m.slew;
  p.dc_power = m.power;
  p.gate_area = m.area;
  p.input_noise_v2 = m.noise;
  return p;
}

FeasibilityProof prove_opamp_feasibility(const est::Process& proc,
                                         const est::OpAmpSpec& spec,
                                         const ProveOptions& opts) {
  FeasibilityProof proof;
  proof.corner = proc.variant.empty() ? "nominal" : proc.variant;

  // The interval model covers the unbuffered two-stage synthesis
  // template. A buffered spec adds follower devices the equations do
  // not model, so no claim is made: the proof stays neutral (no
  // findings, blind feasible box, zero cost floor).
  std::vector<std::pair<double, double>> box =
      opts.box.empty() ? synth::blind_bounds(proc, false) : opts.box;
  if (box.size() != 13) {
    throw SpecError("prove_opamp_feasibility: sizing box must have 13 "
                    "[lo, hi] pairs, got " +
                    std::to_string(box.size()));
  }
  for (size_t i = 0; i < box.size(); ++i) {
    if (!(box[i].first > 0.0) || !(box[i].second >= box[i].first) ||
        !std::isfinite(box[i].second)) {
      throw SpecError("prove_opamp_feasibility: bad range for " +
                      synth::OpAmpVars::names(false)[i]);
    }
  }
  if (spec.buffer) {
    proof.feasible_box = box;
    return proof;
  }

  const Metrics<Interval> m =
      eval_metrics<Interval>(proc, spec, box_to_intervals(box));
  proof.bounds = to_bounds(m);
  proof.cost_lower_bound = cost_floor(spec, proof.bounds);

  verdict_lower(proof.report, "gain", "spec.gain", m.gain, spec.gain,
                opts.tight_margin, /*emit_vacuous=*/true, proof.infeasible);
  verdict_lower(proof.report, "ugf_hz", "spec.ugf_hz", m.ugf, spec.ugf_hz,
                opts.tight_margin, /*emit_vacuous=*/true, proof.infeasible);
  verdict_upper(proof.report, "gate_area", "spec.area_budget", m.area,
                spec.area_budget, opts.tight_margin, proof.infeasible);
  // The synthesizer's 45 deg phase-margin floor is not a user spec
  // field, so a box-wide pass is unremarkable — only report trouble.
  verdict_lower(proof.report, "phase_margin", "phase_margin.floor", m.pm,
                kMinPhaseMargin, opts.tight_margin, /*emit_vacuous=*/false,
                proof.infeasible);

  if (!proof.infeasible) {
    std::string dead_var;
    if (contract_box(proc, spec, opts, box, dead_var)) {
      proof.feasible_box = box;
    } else {
      proof.infeasible = true;
      proof.report.add(
          "APE-F001", Severity::Error,
          "sizing box contracted to the empty set: every segment of " +
              dead_var + " provably violates a spec requirement",
          "spec");
    }
  }
  return proof;
}

void FeasibilityProof::to_json(json::Writer& w) const {
  const auto ends = [](const util::Interval& v) {
    return std::pair(v.lo(), v.hi());
  };
  w.field("infeasible", infeasible)
      .field("corner", corner)
      .key("bounds")
      .begin_object()
      .field("gain", ends(bounds.gain))
      .field("ugf_hz", ends(bounds.ugf_hz))
      .field("phase_margin", ends(bounds.phase_margin))
      .field("slew", ends(bounds.slew))
      .field("dc_power", ends(bounds.dc_power))
      .field("gate_area", ends(bounds.gate_area))
      .field("input_noise_v2", ends(bounds.input_noise_v2))
      .end_object()
      .field("cost_lower_bound", cost_lower_bound)
      .field("feasible_box", feasible_box)
      .field("report", report);
}

void require_feasible(const FeasibilityProof& proof, const std::string& what) {
  if (!proof.infeasible) return;
  throw LintError(
      what + ": spec proven infeasible at corner '" + proof.corner +
          "': " + proof.report.summary(),
      proof.report);
}

}  // namespace ape::lint
