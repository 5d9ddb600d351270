#include "workload.h"

#include <algorithm>

namespace perfbench {

using ape::est::CurrentSourceKind;
using ape::est::ModuleKind;
using ape::est::ModuleSpec;
using ape::est::OpAmpSpec;

uint64_t SeedStream::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SeedStream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

namespace {

/// Area budgets are the paper's printed values times 4: the paper's
/// process packs the same gm into less gate area than the repository's
/// representative card (the factor the table benches use too).
constexpr double kAreaScale = 4.0;

/// The paper's Table 1 opamps oa0..oa9, kept here (as is Table 5 below)
/// so the benchmark depends on the library alone.
std::vector<OpAmpSpec> table1() {
  struct Row {
    double gain, ugf_hz, area_um2, ibias;
    CurrentSourceKind source;
    bool buffer;
    double zout;
  };
  using K = CurrentSourceKind;
  const Row rows[] = {
      {200, 1.3e6, 5000, 1.0e-6, K::Wilson, true, 1e3},
      {70, 3.0e6, 3000, 2.0e-6, K::Wilson, true, 1e3},
      {100, 2.5e6, 2000, 1.5e-6, K::Wilson, true, 2e3},
      {250, 8.0e6, 1000, 1.0e-6, K::Mirror, false, 0},
      {150, 3.0e6, 1000, 100e-6, K::Mirror, false, 0},
      {200, 8.0e6, 5000, 10e-6, K::Mirror, false, 0},
      {50, 10.0e6, 2000, 10e-6, K::Mirror, false, 0},
      {200, 3.0e6, 6000, 1.0e-6, K::Mirror, true, 1e3},
      {100, 2.0e6, 1000, 1.0e-6, K::Mirror, true, 10e3},
      {200, 5.0e6, 5000, 10e-6, K::Mirror, true, 10e3},
  };
  std::vector<OpAmpSpec> specs;
  for (const Row& r : rows) {
    OpAmpSpec s;
    s.gain = r.gain;
    s.ugf_hz = r.ugf_hz;
    s.ibias = r.ibias;
    s.cload = 10e-12;
    s.source = r.source;
    s.buffer = r.buffer;
    s.zout = r.zout;
    s.area_budget = r.area_um2 * kAreaScale * 1e-12;
    specs.push_back(s);
  }
  return specs;
}

/// The paper's Table 5 modules (sample & hold, audio amplifier, 4-bit
/// flash ADC, 4th-order low-pass, band-pass biquad).
std::vector<ModuleSpec> table5() {
  ModuleSpec sh;
  sh.kind = ModuleKind::SampleHold;
  sh.gain = 2.0;
  sh.bw_hz = 20e3;
  sh.slew = 0.01e6;
  sh.area_budget = 500 * kAreaScale * 1e-12;

  ModuleSpec amp;
  amp.kind = ModuleKind::AudioAmp;
  amp.gain = 100.0;
  amp.bw_hz = 20e3;
  amp.area_budget = 1000 * kAreaScale * 1e-12;

  ModuleSpec adc;
  adc.kind = ModuleKind::FlashAdc;
  adc.order = 4;
  adc.delay_s = 5e-6;
  adc.area_budget = 5000 * kAreaScale * 1e-12;

  ModuleSpec lpf;
  lpf.kind = ModuleKind::LowPassFilter;
  lpf.order = 4;
  lpf.f0_hz = 1e3;
  lpf.area_budget = 10000 * kAreaScale * 1e-12;

  ModuleSpec bpf;
  bpf.kind = ModuleKind::BandPassFilter;
  bpf.order = 2;
  bpf.f0_hz = 1e3;
  bpf.area_budget = 5000 * kAreaScale * 1e-12;
  return {sh, amp, adc, lpf, bpf};
}

double jitter(SeedStream& rng, double p) { return rng.uniform(1.0 - p, 1.0 + p); }

}  // namespace

std::vector<OpAmpCase> gen_opamps(SeedStream& rng, size_t n,
                                  const GenOptions& g,
                                  const ape::est::Process& proc) {
  std::vector<OpAmpSpec> rows = table1();
  if (!g.rows.empty()) {
    std::vector<OpAmpSpec> picked;
    for (size_t i : g.rows) picked.push_back(rows.at(i));
    rows = picked;
  }
  std::vector<size_t> unbuffered;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].buffer) unbuffered.push_back(i);
  }
  // The eight-device minimum-geometry gate area: no sizing in the
  // technology box fits below it.
  const double floor_area = 8.0 * proc.wmin * proc.lmin;

  const size_t n_infeasible = static_cast<size_t>(g.infeasible_share * double(n) + 0.5);
  const size_t n_repeat = std::min(
      static_cast<size_t>(g.repeat_share * double(n) + 0.5), n - n_infeasible);
  const size_t n_fresh = n - n_infeasible - n_repeat;

  std::vector<OpAmpCase> fresh, repeat, infeasible;
  for (size_t k = 0; k < n_fresh; ++k) {
    OpAmpCase c;
    c.spec = rows[k % rows.size()];
    c.spec.gain *= jitter(rng, g.perturb);
    c.spec.ugf_hz *= jitter(rng, g.perturb);
    fresh.push_back(c);
  }
  for (size_t k = 0; k < n_repeat && !fresh.empty(); ++k) {
    OpAmpCase c = fresh[k % fresh.size()];
    c.repeat = true;
    repeat.push_back(c);
  }
  for (size_t k = 0; k < n_infeasible; ++k) {
    OpAmpCase c;
    c.spec = rows[unbuffered[k % unbuffered.size()]];
    c.spec.area_budget = rng.uniform(0.3, 0.6) * floor_area;
    c.infeasible = true;
    infeasible.push_back(c);
  }
  const std::vector<OpAmpCase>* kinds[] = {&fresh, &repeat, &infeasible};
  size_t next[3] = {0, 0, 0};
  std::vector<OpAmpCase> cases;
  for (size_t kind : interleave({fresh.size(), repeat.size(), infeasible.size()})) {
    cases.push_back((*kinds[kind])[next[kind]++]);
  }
  return cases;
}

std::vector<size_t> interleave(const std::vector<size_t>& counts) {
  struct Slot {
    double at;
    size_t kind;
  };
  std::vector<Slot> slots;
  for (size_t c = 0; c < counts.size(); ++c) {
    for (size_t k = 0; k < counts[c]; ++k) {
      slots.push_back({(double(k) + 0.5) / double(counts[c]), c});
    }
  }
  std::stable_sort(slots.begin(), slots.end(),
                   [](const Slot& a, const Slot& b) { return a.at < b.at; });
  std::vector<size_t> order;
  for (const Slot& s : slots) order.push_back(s.kind);
  return order;
}

std::vector<ModuleSpec> gen_modules(SeedStream& rng, size_t per_kind,
                                    const GenOptions& g) {
  std::vector<ModuleSpec> out;
  for (size_t k = 0; k < per_kind; ++k) {
    for (ModuleSpec s : table5()) {
      s.gain *= jitter(rng, g.perturb);
      s.bw_hz *= jitter(rng, g.perturb);
      s.f0_hz *= jitter(rng, g.perturb);
      s.delay_s *= jitter(rng, g.perturb);
      out.push_back(s);
    }
  }
  return out;
}

}  // namespace perfbench
