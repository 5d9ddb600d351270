#include "src/stat/yield.h"

#include <cmath>

#include "src/util/error.h"

namespace ape::stat {

void CriteriaCounts::add(const PointOutcome& p) {
  ++samples;
  if (p.functional) ++functional;
  if (p.gain_ok) ++gain;
  if (p.ugf_ok) ++ugf;
  if (p.pm_ok) ++phase_margin;
  if (p.pass()) ++pass;
}

CriteriaCounts& CriteriaCounts::operator+=(const CriteriaCounts& o) {
  samples += o.samples;
  functional += o.functional;
  gain += o.gain;
  ugf += o.ugf;
  phase_margin += o.phase_margin;
  pass += o.pass;
  return *this;
}

WilsonInterval wilson_interval(long passes, long samples, double z) {
  WilsonInterval w;
  if (samples <= 0) return w;  // vacuous [0, 1]
  const double n = double(samples);
  const double p = double(passes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  w.lo = std::max(0.0, center - half);
  w.hi = std::min(1.0, center + half);
  return w;
}

YieldReport::YieldReport(const std::vector<std::string>& corner_names) {
  corners.reserve(corner_names.size());
  for (const auto& name : corner_names) corners.emplace_back(name, CriteriaCounts{});
}

void YieldReport::add(size_t corner_index, const PointOutcome& p) {
  if (corner_index >= corners.size()) {
    throw SpecError("YieldReport::add: corner index out of range");
  }
  corners[corner_index].second.add(p);
  total.add(p);
}

void YieldReport::merge(const YieldReport& o) {
  if (o.corners.size() != corners.size()) {
    throw SpecError("YieldReport::merge: corner layouts differ");
  }
  for (size_t c = 0; c < corners.size(); ++c) {
    if (corners[c].first != o.corners[c].first) {
      throw SpecError("YieldReport::merge: corner layouts differ");
    }
    corners[c].second += o.corners[c].second;
  }
  total += o.total;
}

void YieldReport::finalize() {
  worst_corner = -1;
  double worst_rate = 2.0;  // any real rate beats this
  for (size_t c = 0; c < corners.size(); ++c) {
    if (corners[c].second.samples == 0) continue;
    const double rate = corners[c].second.pass_rate();
    if (rate < worst_rate) {  // strict: lowest index wins ties
      worst_rate = rate;
      worst_corner = static_cast<int>(c);
    }
  }
}

const std::string& YieldReport::worst_corner_name() const {
  static const std::string kNone = "";
  if (worst_corner < 0 || size_t(worst_corner) >= corners.size()) return kNone;
  return corners[size_t(worst_corner)].first;
}

void YieldReport::to_json(json::Writer& w) const {
  const WilsonInterval interval = ci();
  w.field("yield", yield())
      .field("ci_lo", interval.lo)
      .field("ci_hi", interval.hi)
      .field("samples", total.samples)
      .field("passes", total.pass)
      .field("worst_corner", worst_corner_name())
      .key("corners")
      .begin_array();
  for (const auto& [name, k] : corners) {
    w.begin_object()
        .field("name", name)
        .field("samples", k.samples)
        .field("pass", k.pass)
        .field("functional", k.functional)
        .field("gain", k.gain)
        .field("ugf", k.ugf)
        .field("phase_margin", k.phase_margin)
        .field("pass_rate", k.pass_rate())
        .end_object();
  }
  w.end_array();
}

}  // namespace ape::stat
