/// \file modules_extra.cpp
/// The remainder of the paper's level-4 library list ("inverting
/// amplifiers, integrators, comparators, analog-to-digital converters,
/// digital-to-analog converters, filters, sample-and-hold circuits,
/// adders"): the five kinds not exercised by Table 5.

#include <algorithm>
#include <cmath>

#include "src/estimator/modules.h"
#include "src/spice/measure.h"
#include "src/util/error.h"

namespace ape::est {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

}  // namespace

ModuleDesign ModuleEstimator::inverting_amp(const ModuleSpec& s) const {
  if (s.gain <= 0.0) throw SpecError("inverting amp: gain magnitude required");
  ModuleDesign d;
  d.spec = s;

  // Noise gain is 1 + R2/R1; budget the opamp UGF accordingly, with
  // headroom for the resistive load on the unbuffered output.
  const double r1 = 10e3;
  OpAmpSpec os;
  os.gain = std::max(50.0 * (1.0 + s.gain), 2000.0);
  os.ugf_hz = 2.5 * (1.0 + s.gain) * s.bw_hz;
  os.ibias = 2e-6;
  os.cload = 10e-12;
  // Buffered: a static output resistance would otherwise fight the
  // feedback network (the Miller loop's active HF impedance reduction is
  // outside the single-pole macromodel).
  os.buffer = true;
  os.zout = r1 / 20.0;
  d.opamps.push_back(opamp_.estimate(os));
  d.vref = d.opamps[0].perf.input_cm;

  d.passives = {{"R1", r1}, {"R2", s.gain * r1}};

  const spice::Bode bode =
      macro_bode(d, proc_, std::max(s.bw_hz * 1e-3, 0.1), s.bw_hz * 300.0, 20);
  d.perf.gain = bode.dc_gain();  // magnitude; the stage inverts
  d.perf.bw_hz = bode.f_3db().value_or(0.0);
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d);
  d.perf.slew = d.opamps[0].perf.slew;
  return d;
}

ModuleDesign ModuleEstimator::integrator(const ModuleSpec& s) const {
  if (s.f0_hz <= 0.0) throw SpecError("integrator: unity-gain frequency required");
  ModuleDesign d;
  d.spec = s;

  // Lossy integrator: H(s) = -(Rf/R1) / (1 + s Rf C). The unity-gain
  // frequency is ~1/(2 pi R1 C); the DC gain (= Rf/R1) comes from the
  // spec's gain field.
  const double dc_gain = std::max(s.gain, 10.0);
  const double c = 1.5e-9;
  const double r1 = 1.0 / (kTwoPi * s.f0_hz * c);
  const double rf = dc_gain * r1;

  OpAmpSpec os;
  os.gain = 50.0 * dc_gain;
  os.ugf_hz = 100.0 * s.f0_hz;
  os.ibias = 2e-6;
  os.cload = 10e-12;
  os.buffer = true;
  os.zout = r1 / 20.0;
  d.opamps.push_back(opamp_.estimate(os));
  d.vref = d.opamps[0].perf.input_cm;

  d.passives = {{"R1", r1}, {"Rf", rf}, {"C", c}};

  const spice::Bode bode =
      macro_bode(d, proc_, s.f0_hz / (dc_gain * 10.0), s.f0_hz * 30.0, 30);
  d.perf.gain = bode.dc_gain();
  d.perf.f_unity_hz = bode.mag_crossing(1.0).value_or(0.0);
  d.perf.f3db_hz = bode.f_3db().value_or(0.0);  // the lossy corner
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d);
  return d;
}

ModuleDesign ModuleEstimator::comparator(const ModuleSpec& s) const {
  if (s.delay_s <= 0.0) throw SpecError("comparator: delay budget required");
  ModuleDesign d;
  d.spec = s;

  // Same dimensioning as the flash ADC's comparators, with a fixed
  // 20 mV input overdrive assumption.
  const double v_ov = 0.02;
  const double t_target = 0.5 * s.delay_s;
  OpAmpSpec os;
  os.gain = 2000.0;
  os.ugf_hz = 0.5 * proc_.vdd / (kTwoPi * v_ov * t_target);
  os.ibias = 2e-6;
  os.cload = 0.5e-12;
  OpAmpDesign comp = opamp_.estimate(os);
  d.opamps.push_back(comp);
  d.vref = comp.perf.input_cm;

  const double t_linear =
      0.5 * proc_.vdd / (kTwoPi * comp.perf.ugf_hz * v_ov);
  const double t_slew = 0.5 * proc_.vdd / std::max(comp.perf.slew, 1.0);
  d.perf.delay_s = std::max(t_linear, t_slew);
  d.perf.gain = comp.perf.gain;
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d);
  d.perf.slew = comp.perf.slew;
  return d;
}

ModuleDesign ModuleEstimator::adder(const ModuleSpec& s) const {
  const int n = std::clamp(s.order, 2, 4);
  if (s.gain <= 0.0) throw SpecError("adder: per-input gain required");
  ModuleDesign d;
  d.spec = s;
  d.spec.order = n;

  // Inverting summer: out = -(R2/R1) * sum(v_i). Noise gain 1 + n R2/R1.
  const double r1 = 10e3;
  OpAmpSpec os;
  os.gain = std::max(50.0 * (1.0 + n * s.gain), 2000.0);
  os.ugf_hz = 2.5 * (1.0 + n * s.gain) * s.bw_hz;
  os.ibias = 2e-6;
  os.cload = 10e-12;
  os.buffer = true;
  os.zout = r1 / 20.0;
  d.opamps.push_back(opamp_.estimate(os));
  d.vref = d.opamps[0].perf.input_cm;

  d.passives = {{"R1", r1}, {"R2", s.gain * r1}};

  const spice::Bode bode =
      macro_bode(d, proc_, std::max(s.bw_hz * 1e-3, 0.1), s.bw_hz * 300.0, 20);
  d.perf.gain = bode.dc_gain();  // per driven input
  d.perf.bw_hz = bode.f_3db().value_or(0.0);
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d);
  return d;
}

ModuleDesign ModuleEstimator::r2r_dac(const ModuleSpec& s) const {
  if (s.order < 2 || s.order > 10) throw SpecError("dac: 2..10 bits supported");
  ModuleDesign d;
  d.spec = s;

  // Voltage-mode R-2R ladder into a unity-gain buffer. The buffer's
  // closed-loop bandwidth dominates the settling budget. Note the NMOS
  // follower output stage limits the usable code range to outputs below
  // ~VDD - Vdsat - Vgs (about 2/3 of full scale in the default process).
  OpAmpSpec os;
  os.gain = 5000.0;
  os.ugf_hz = std::max(6.0 / (kTwoPi * 0.3 * s.delay_s), 1e5);
  os.ibias = 2e-6;
  os.cload = 10e-12;
  os.buffer = true;
  os.zout = 2e3;
  OpAmpDesign buf = opamp_.estimate(os);
  d.opamps.push_back(buf);
  d.vref = buf.perf.input_cm;

  d.passives = {{"R", 10e3}};

  d.perf.lsb_v = proc_.vdd / (1 << s.order);
  // Settling: ~6 time constants of the unity-feedback loop plus the
  // ladder's own RC (tau = R * C_in at the buffer input).
  const double bw_cl = buf.perf.ugf_hz;
  const double cin = buf.transistors.front().cgs * 2.0;
  d.perf.delay_s = 6.0 / (kTwoPi * bw_cl) + 3.0 * 10e3 * cin;
  d.perf.gain = 1.0;
  d.perf.gate_area = amp_area(d);
  d.perf.dc_power = amp_power(d) + proc_.vdd * proc_.vdd / (10e3 * 3.0);
  return d;
}

}  // namespace ape::est
