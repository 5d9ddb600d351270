#include "src/estimator/modules.h"

#include <algorithm>
#include <cmath>

#include "src/estimator/verify.h"
#include "src/spice/analysis.h"
#include "src/spice/measure.h"
#include "src/spice/parser.h"
#include "src/util/error.h"
#include "src/util/units.h"

namespace ape::est {
namespace {

using spice::MosType;

constexpr double kTwoPi = 2.0 * M_PI;

std::string fmt(double v) { return units::format_eng(v, 6); }

/// Abstract opamp instantiation: the estimator wires the same RC network
/// around VCVS macromodels (cheap, analytical) and around full transistor
/// opamps (the verification testbench), guaranteeing both see identical
/// topologies.
class AmpSource {
public:
  virtual ~AmpSource() = default;
  virtual void amp(NetlistBuilder& nb, size_t idx, const std::string& inp,
                   const std::string& inn, const std::string& out) const = 0;
  /// DC level the amp inputs must sit at.
  virtual double cm(size_t idx) const = 0;
};

/// Single-pole VCVS macromodel: A(s) = A0 / (1 + s A0 / (2 pi fu)), with
/// a series output resistance. Built purely from the level-3 attributes.
class MacroAmps : public AmpSource {
public:
  explicit MacroAmps(const std::vector<OpAmpDesign>& amps) : amps_(amps) {}

  void amp(NetlistBuilder& nb, size_t idx, const std::string& inp,
           const std::string& inn, const std::string& out) const override {
    const OpAmpPerf& p = amps_.at(idx).perf;
    const std::string i = std::to_string(idx);
    const std::string na = "mm_a" + i;
    const std::string np = "mm_p" + i;
    const std::string nb2 = "mm_b" + i;
    nb.vcvs("Ea" + i, na, "0", inp, inn, p.gain);
    const double rp = 1e3;
    const double cp = p.gain / (kTwoPi * p.ugf_hz) / rp;
    nb.resistor(na, np, rp);
    nb.capacitor(np, "0", cp);
    nb.vcvs("Eb" + i, nb2, "0", np, "0", 1.0);
    nb.resistor(nb2, out, std::max(p.zout, 1.0));
  }

  double cm(size_t) const override { return 0.0; }  // linear: DC irrelevant

private:
  const std::vector<OpAmpDesign>& amps_;
};

/// Full transistor-level emission (verification path).
class RealAmps : public AmpSource {
public:
  RealAmps(const Process& proc, const std::vector<OpAmpDesign>& amps)
      : proc_(proc), amps_(amps) {}

  void amp(NetlistBuilder& nb, size_t idx, const std::string& inp,
           const std::string& inn, const std::string& out) const override {
    amps_.at(idx).emit(nb, proc_, "x" + std::to_string(idx), inp, inn, out,
                       "vdd");
  }

  double cm(size_t idx) const override { return amps_.at(idx).perf.input_cm; }

private:
  const Process& proc_;
  const std::vector<OpAmpDesign>& amps_;
};

double passive(const ModuleDesign& d, const std::string& name) {
  for (const auto& p : d.passives) {
    if (p.name == name) return p.value;
  }
  throw LookupError("module: missing passive " + name);
}

/// Wire a module's network around the given amp source. Shared between
/// the macromodel estimate and the transistor testbench.
Testbench wire_module(const ModuleDesign& d, const Process& proc,
                      const AmpSource& amps, bool with_supply) {
  NetlistBuilder nb(std::string("APE module: ") + to_string(d.spec.kind));
  Testbench tb;
  tb.out_node = "out";

  if (with_supply) {
    nb.models(proc);
    nb.vsource("Vdd", "vdd", "0", "DC " + fmt(proc.vdd));
    tb.supply_source = "Vdd";
  }
  const double cm = amps.cm(0);
  // The converters reference the ladder taps / bit sources instead of the
  // mid-rail node; an unused Vref would trip ape-lint's dangling-node rule.
  if (d.spec.kind != ModuleKind::FlashAdc && d.spec.kind != ModuleKind::R2RDac) {
    nb.vsource("Vref", "vref", "0", "DC " + fmt(cm));
  }

  switch (d.spec.kind) {
    case ModuleKind::AudioAmp: {
      // Non-inverting stage: gain K = 1 + Rb/Ra, Ra referenced to Vref.
      nb.vsource("Vin", "vp", "0", "DC " + fmt(cm) + " AC 1");
      amps.amp(nb, 0, "vp", "vm", "out");
      nb.resistor("out", "vm", passive(d, "Rb"));
      nb.resistor("vm", "vref", passive(d, "Ra"));
      nb.capacitor("out", "0", 10e-12);
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::SampleHold: {
      // Track mode: switch on, hold cap charged, gain-of-2 buffer.
      // The input carries AC 1 for bandwidth and a step for slew rate.
      const double step = 0.2;
      nb.vsource("Vin", "vin", "0",
                 "DC " + fmt(cm) + " AC 1 PULSE(" + fmt(cm - step) + " " +
                     fmt(cm + step) + " 1u 100n 100n 1 2)");
      if (with_supply) {
        const TransistorDesign& sw = d.switches.at(0);
        nb.mosfet(proc, sw, "vin", "vdd", "nh", "0");
      } else {
        nb.resistor("vin", "nh", passive(d, "Ron"));
      }
      nb.capacitor("nh", "0", passive(d, "Ch"));
      amps.amp(nb, 0, "nh", "vm", "out");
      nb.resistor("out", "vm", passive(d, "Rb"));
      nb.resistor("vm", "vref", passive(d, "Ra"));
      nb.capacitor("out", "0", 10e-12);
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::FlashAdc: {
      // Resistor ladder plus comparators; the probe rides comparator
      // mid (the paper's delay measurement point). The input steps from
      // a quarter LSB below the mid tap to half an LSB above it.
      const int n_taps = (1 << d.spec.order) - 1;
      const double r_seg = passive(d, "Rseg");
      const double lsb = proc.vdd / (1 << d.spec.order);
      const int mid = (n_taps + 1) / 2;
      const double vtap = proc.vdd * mid / (1 << d.spec.order);
      nb.vsource("Vin", "vin", "0",
                 "DC " + fmt(vtap - 0.25 * lsb) + " AC 1 PULSE(" +
                     fmt(vtap - 0.25 * lsb) + " " + fmt(vtap + 0.5 * lsb) +
                     " 1u 50n 50n 1 2)");
      // Ladder from the supply (macromodel: from an ideal 5 V source).
      const std::string top = with_supply ? "vdd" : "vtop";
      if (!with_supply) nb.vsource("Vtop", "vtop", "0", "DC " + fmt(proc.vdd));
      std::string prev = top;
      for (int k = (1 << d.spec.order); k >= 1; --k) {
        const std::string node = (k == 1) ? "0" : "tap" + std::to_string(k - 1);
        nb.resistor(prev, node, r_seg);
        prev = node;
      }
      for (int k = 1; k <= n_taps; ++k) {
        const std::string out =
            (k == mid) ? "out" : "cmp" + std::to_string(k);
        amps.amp(nb, static_cast<size_t>(k - 1), "vin",
                 "tap" + std::to_string(k), out);
        nb.capacitor(out, "0", 0.5e-12);
      }
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::LowPassFilter: {
      // Cascaded Sallen-Key stages, equal R / equal C, gain-set Q.
      nb.vsource("Vin", "vin", "0", "DC " + fmt(cm) + " AC 1");
      const int stages = d.spec.order / 2;
      std::string in = "vin";
      for (int st = 0; st < stages; ++st) {
        const std::string sfx = std::to_string(st);
        const std::string a = "lp_a" + sfx;
        const std::string b = "lp_b" + sfx;
        const std::string vm = "lp_m" + sfx;
        const std::string out = (st == stages - 1) ? "out" : "lp_o" + sfx;
        const double r = passive(d, "R" + sfx);
        const double c = passive(d, "C" + sfx);
        nb.resistor(in, a, r);
        nb.resistor(a, b, r);
        nb.capacitor(a, out, c);
        nb.capacitor(b, "0", c);
        amps.amp(nb, static_cast<size_t>(st), b, vm, out);
        nb.resistor(out, vm, passive(d, "Rb" + sfx));
        nb.resistor(vm, "vref", passive(d, "Ra" + sfx));
        in = out;
      }
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::BandPassFilter: {
      // Multiple-feedback band-pass biquad (inverting).
      nb.vsource("Vin", "vin", "0", "DC " + fmt(cm) + " AC 1");
      const double r1 = passive(d, "R1");
      const double r2 = passive(d, "R2");
      const double c = passive(d, "C");
      nb.resistor("vin", "bp_x", r1);
      nb.capacitor("bp_x", "out", c);
      nb.capacitor("bp_x", "bp_y", c);
      nb.resistor("out", "bp_y", r2);
      amps.amp(nb, 0, "vref", "bp_y", "out");
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::InvertingAmp: {
      nb.vsource("Vin", "vin", "0", "DC " + fmt(cm) + " AC 1");
      nb.resistor("vin", "vm", passive(d, "R1"));
      nb.resistor("vm", "out", passive(d, "R2"));
      amps.amp(nb, 0, "vref", "vm", "out");
      nb.capacitor("out", "0", 10e-12);
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::Integrator: {
      nb.vsource("Vin", "vin", "0", "DC " + fmt(cm) + " AC 1");
      nb.resistor("vin", "vm", passive(d, "R1"));
      nb.resistor("vm", "out", passive(d, "Rf"));
      nb.capacitor("vm", "out", passive(d, "C"));
      amps.amp(nb, 0, "vref", "vm", "out");
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::Comparator: {
      // 20 mV overdrive step around the reference at t = 1 us.
      nb.vsource("Vin", "vin", "0",
                 "DC " + fmt(cm - 0.02) + " AC 1 PULSE(" + fmt(cm - 0.02) +
                     " " + fmt(cm + 0.02) + " 1u 20n 20n 1 2)");
      amps.amp(nb, 0, "vin", "vref", "out");
      nb.capacitor("out", "0", 0.5e-12);
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::Adder: {
      // Drive input 1 with the stimulus; remaining inputs sit at Vref.
      nb.vsource("Vin", "vin", "0", "DC " + fmt(cm) + " AC 1");
      nb.resistor("vin", "vm", passive(d, "R1"));
      for (int k = 1; k < d.spec.order; ++k) {
        nb.resistor("vref", "vm", passive(d, "R1"));
      }
      nb.resistor("vm", "out", passive(d, "R2"));
      amps.amp(nb, 0, "vref", "vm", "out");
      nb.capacitor("out", "0", 10e-12);
      tb.in_source = "Vin";
      break;
    }
    case ModuleKind::R2RDac: {
      // Voltage-mode R-2R ladder; bit sources default to the mid code
      // 0101... so the buffer sits in its input range. The bench/test
      // rewrites the bit sources to sweep codes.
      const double r = passive(d, "R");
      const int bits = d.spec.order;
      std::string prev = "lad0";
      nb.resistor(prev, "0", 2.0 * r);  // termination
      for (int k = 0; k < bits; ++k) {
        const std::string node = "lad" + std::to_string(k);
        const std::string bit = "bit" + std::to_string(k);
        const bool one = (k % 2) == 1;
        nb.vsource("Vb" + std::to_string(k), bit, "0",
                   "DC " + fmt(one ? proc.vdd : 0.0));
        nb.resistor(bit, node, 2.0 * r);
        if (k + 1 < bits) {
          const std::string next = "lad" + std::to_string(k + 1);
          nb.resistor(node, next, r);
          prev = next;
        }
      }
      // Buffer the MSB-side ladder node.
      amps.amp(nb, 0, "lad" + std::to_string(bits - 1), "out", "out");
      nb.capacitor("out", "0", 10e-12);
      tb.in_source = "Vb0";
      break;
    }
  }

  tb.netlist = nb.str();
  return tb;
}

}  // namespace

spice::Bode macro_bode(const ModuleDesign& d, const Process& proc, double f_lo,
                       double f_hi, int points_per_decade) {
  const Testbench tb = macro_testbench(d, proc);
  spice::Circuit ckt = spice::parse_netlist(tb.netlist);
  (void)spice::dc_operating_point(ckt);
  const auto ac = spice::ac_analysis(ckt, f_lo, f_hi, points_per_decade);
  return spice::Bode(ac, ckt.find_node("out"));
}

double amp_area(const ModuleDesign& d) {
  double a = 0.0;
  for (const auto& o : d.opamps) a += o.perf.gate_area;
  return a;
}

double amp_power(const ModuleDesign& d) {
  double p = 0.0;
  for (const auto& o : d.opamps) p += o.perf.dc_power;
  return p;
}

const char* to_string(ModuleKind kind) {
  switch (kind) {
    case ModuleKind::AudioAmp: return "amp";
    case ModuleKind::SampleHold: return "s&h";
    case ModuleKind::FlashAdc: return "adc";
    case ModuleKind::LowPassFilter: return "lpf";
    case ModuleKind::BandPassFilter: return "bpf";
    case ModuleKind::InvertingAmp: return "invamp";
    case ModuleKind::Integrator: return "integ";
    case ModuleKind::Comparator: return "cmp";
    case ModuleKind::Adder: return "adder";
    case ModuleKind::R2RDac: return "dac";
  }
  return "?";
}

Testbench ModuleDesign::testbench(const Process& proc) const {
  RealAmps amps(proc, opamps);
  return wire_module(*this, proc, amps, /*with_supply=*/true);
}

Testbench macro_testbench(const ModuleDesign& d, const Process& proc) {
  MacroAmps amps(d.opamps);
  return wire_module(d, proc, amps, /*with_supply=*/false);
}

ModuleDesign ModuleEstimator::estimate(const ModuleSpec& spec) const {
  ErrorContext scope("module-estimator");
  switch (spec.kind) {
    case ModuleKind::AudioAmp: return audio_amp(spec);
    case ModuleKind::SampleHold: return sample_hold(spec);
    case ModuleKind::FlashAdc: return flash_adc(spec);
    case ModuleKind::LowPassFilter: return low_pass(spec);
    case ModuleKind::BandPassFilter: return band_pass(spec);
    case ModuleKind::InvertingAmp: return inverting_amp(spec);
    case ModuleKind::Integrator: return integrator(spec);
    case ModuleKind::Comparator: return comparator(spec);
    case ModuleKind::Adder: return adder(spec);
    case ModuleKind::R2RDac: return r2r_dac(spec);
  }
  throw LookupError("unknown module kind");
}

// --- Audio amplifier --------------------------------------------------------

ModuleDesign ModuleEstimator::audio_amp(const ModuleSpec& s) const {
  if (s.gain <= 1.0) throw SpecError("amp: closed-loop gain must exceed 1");
  ModuleDesign d;
  d.spec = s;

  OpAmpSpec os;
  os.gain = std::max(50.0 * s.gain, 2000.0);  // loop-gain margin
  os.ugf_hz = 2.2 * s.gain * s.bw_hz;
  os.ibias = 2e-6;
  os.cload = 10e-12;
  os.buffer = false;
  d.opamps.push_back(opamp_.estimate(os));
  d.vref = d.opamps[0].perf.input_cm;

  const double ra = 5e3;
  d.passives = {{"Ra", ra}, {"Rb", (s.gain - 1.0) * ra}};

  // Macromodel sweep gives the non-ideal gain and bandwidth estimate.
  const Testbench mtb = macro_testbench(d, proc_);
  const SimMeasurement m = simulate(mtb, std::max(s.bw_hz * 1e-3, 0.1),
                                    s.bw_hz * 300.0, 20);
  d.perf.gain = std::fabs(m.dc_gain);
  d.perf.bw_hz = m.f3db_hz.value_or(0.0);
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d);
  d.perf.slew = d.opamps[0].perf.slew;
  return d;
}

// --- Sample and hold --------------------------------------------------------

ModuleDesign ModuleEstimator::sample_hold(const ModuleSpec& s) const {
  ModuleDesign d;
  d.spec = s;

  OpAmpSpec os;
  os.gain = 5000.0;
  os.ugf_hz = 2.5 * s.gain * s.bw_hz;
  os.ibias = 2e-6;
  os.cload = 10e-12;
  // The feedback divider loads the output: buffer it.
  os.buffer = true;
  os.zout = 2.5e3;
  // Slew requirement: itail/cc >= 4x spec; raise UGF until satisfied
  // (slew ~ vov1 * 2 pi fu).
  OpAmpDesign amp = opamp_.estimate(os);
  for (int it = 0; it < 6 && amp.perf.slew < 4.0 * s.slew; ++it) {
    os.ugf_hz *= 2.0;
    amp = opamp_.estimate(os);
  }
  d.opamps.push_back(amp);
  d.vref = amp.perf.input_cm;

  const double ch = 10e-12;
  const double ron_target = 1.0 / (kTwoPi * s.bw_hz * ch * 50.0);
  // Switch: NMOS in deep triode at mid-rail; Ron = 1/(kp W/Leff Vov).
  const auto& nn = proc_.nmos;
  const double vov_sw = proc_.vdd - d.vref - 1.3;  // Vgs-Vth at the hold node
  double wsw = nn.leff(proc_.lmin) /
               (ron_target * nn.kp * std::max(vov_sw, 0.3));
  wsw = std::clamp(wsw, proc_.wmin, proc_.wmax);
  TransistorDesign sw = xtor_.evaluate(MosType::Nmos, wsw, proc_.lmin,
                                       proc_.vdd - d.vref, 0.01, -d.vref);
  d.switches.push_back(sw);
  const double ron = 1.0 / std::max(sw.gds, 1e-9);

  const double ra = 50e3;
  d.passives = {{"Ra", ra},
                {"Rb", (s.gain - 1.0) * ra},
                {"Ch", ch},
                {"Ron", ron}};

  const Testbench mtb = macro_testbench(d, proc_);
  const SimMeasurement m = simulate(mtb, std::max(s.bw_hz * 1e-3, 0.1),
                                    s.bw_hz * 300.0, 20);
  d.perf.gain = std::fabs(m.dc_gain);
  d.perf.bw_hz = m.f3db_hz.value_or(0.0);
  d.perf.slew = amp.perf.slew;
  d.perf.gate_area = amp_area(d) + sw.gate_area();
  d.perf.dc_power = amp_power(d);
  return d;
}

// --- Flash ADC --------------------------------------------------------------

ModuleDesign ModuleEstimator::flash_adc(const ModuleSpec& s) const {
  if (s.order < 2 || s.order > 8) throw SpecError("adc: 2..8 bits supported");
  ModuleDesign d;
  d.spec = s;

  const int n_comp = (1 << s.order) - 1;
  const double lsb = proc_.vdd / (1 << s.order);
  const double v_ov = 0.5 * lsb;  // comparator input overdrive

  // Comparator: uncompensated-ish two-stage opamp; UGF from the delay
  // budget: traverse half the supply at slope 2*pi*fu*v_ov.
  const double t_target = 0.5 * s.delay_s;
  OpAmpSpec os;
  os.gain = 2000.0;
  os.ugf_hz = 0.5 * proc_.vdd / (kTwoPi * v_ov * t_target);
  os.ibias = 2e-6;
  os.cload = 0.5e-12;
  os.buffer = false;
  OpAmpDesign comp = opamp_.estimate(os);
  for (int k = 0; k < n_comp; ++k) d.opamps.push_back(comp);
  d.vref = comp.perf.input_cm;

  const double r_seg = 5e3;
  d.passives = {{"Rseg", r_seg}};

  // Delay: linear traverse plus slew limit, plus ladder settling.
  const double t_linear = 0.5 * proc_.vdd / (kTwoPi * comp.perf.ugf_hz * v_ov);
  const double t_slew = 0.5 * proc_.vdd / comp.perf.slew;
  const double r_ladder = r_seg * (1 << s.order) / 4.0;  // worst-case tap
  const double cin = comp.transistors.front().cgs * 2.0;
  const double t_ladder = 3.0 * r_ladder * cin;
  d.perf.delay_s = std::max(t_linear, t_slew) + t_ladder;
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power =
      amp_power(d) + proc_.vdd * proc_.vdd / (r_seg * (1 << s.order));
  return d;
}

// --- Sallen-Key low-pass ----------------------------------------------------

ModuleDesign ModuleEstimator::low_pass(const ModuleSpec& s) const {
  if (s.order != 2 && s.order != 4) {
    throw SpecError("lpf: order 2 or 4 supported");
  }
  ModuleDesign d;
  d.spec = s;

  // Butterworth stage Qs.
  const std::vector<double> qs =
      (s.order == 4) ? std::vector<double>{0.5412, 1.3066}
                     : std::vector<double>{0.7071};
  const double c = 1.5e-9;
  const double r = 1.0 / (kTwoPi * s.f0_hz * c);

  for (size_t st = 0; st < qs.size(); ++st) {
    const double k = 3.0 - 1.0 / qs[st];
    OpAmpSpec os;
    os.gain = 5000.0;
    os.ugf_hz = std::max(200.0 * s.f0_hz, 60.0 * s.f0_hz * k * qs[st]);
    os.ibias = 2e-6;
    os.cload = 10e-12;
    os.buffer = true;
    os.zout = r / 40.0;
    d.opamps.push_back(opamp_.estimate(os));
    const double ra = 10e3;
    const std::string sfx = std::to_string(st);
    d.passives.push_back({"R" + sfx, r});
    d.passives.push_back({"C" + sfx, c});
    d.passives.push_back({"Ra" + sfx, ra});
    d.passives.push_back({"Rb" + sfx, (k - 1.0) * ra});
  }
  d.vref = d.opamps[0].perf.input_cm;

  const Testbench mtb = macro_testbench(d, proc_);
  const SimMeasurement m =
      simulate(mtb, s.f0_hz * 1e-3, s.f0_hz * 100.0, 40);
  d.perf.gain = std::fabs(m.dc_gain);
  d.perf.f3db_hz = m.f3db_hz.value_or(0.0);
  // Re-derive the -20 dB point from the macromodel bode.
  const spice::Bode bode =
      macro_bode(d, proc_, s.f0_hz * 1e-2, s.f0_hz * 100.0, 40);
  d.perf.f20db_hz = bode.mag_crossing(bode.dc_gain() / 10.0).value_or(0.0);
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d);
  return d;
}

// --- MFB band-pass ----------------------------------------------------------

ModuleDesign ModuleEstimator::band_pass(const ModuleSpec& s) const {
  ModuleDesign d;
  d.spec = s;

  const double q = 1.0;  // BW = f0, the paper's spec shape
  const double c = 1.5e-9;
  const double r_geo = 1.0 / (kTwoPi * s.f0_hz * c);
  const double r2 = 2.0 * q * r_geo;
  const double r1 = r2 / (4.0 * q * q);

  OpAmpSpec os;
  os.gain = 5000.0;
  os.ugf_hz = 300.0 * s.f0_hz;
  os.ibias = 2e-6;
  os.cload = 10e-12;
  os.buffer = true;
  os.zout = r1 / 20.0;
  d.opamps.push_back(opamp_.estimate(os));
  d.vref = d.opamps[0].perf.input_cm;

  d.passives = {{"R1", r1}, {"R2", r2}, {"C", c}};

  const spice::Bode bode =
      macro_bode(d, proc_, s.f0_hz * 1e-2, s.f0_hz * 1e2, 40);
  d.perf.f0_hz = bode.peak_freq();
  d.perf.gain = bode.peak_gain();
  d.perf.bw_hz = bode.bandwidth_3db().value_or(0.0);
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d);
  return d;
}

}  // namespace ape::est
