#include <algorithm>
#include <cmath>
#include <string>

#include "src/estimator/opamp.h"
#include "src/util/error.h"
#include "src/util/units.h"

namespace ape::est {
namespace {

std::string fmt(double v) { return units::format_eng(v, 6); }

const TransistorDesign* find_role(const OpAmpDesign& d, const std::string& role) {
  for (size_t i = 0; i < d.roles.size(); ++i) {
    if (d.roles[i] == role) return &d.transistors[i];
  }
  return nullptr;
}

/// The design's own bias point as DC guesses for the internal nodes emit()
/// creates under \p prefix, with the inputs and (unity DC feedback) the
/// output at \p in_dc. Every level comes from a per-device Vgs the
/// estimator (or synth::design_from_vars) already solved for, so the
/// simulator's Newton starts next to the answer instead of at zero.
std::vector<std::pair<std::string, double>> bias_guess(
    const OpAmpDesign& d, const std::string& prefix, double in_dc, double vdd) {
  auto vgs = [&](const char* role) {
    const TransistorDesign* t = find_role(d, role);
    if (t == nullptr) throw LookupError(std::string("opamp nodeset: missing role ") + role);
    return t->vgs;
  };
  const double tail = in_dc - vgs("m1");
  const double load = vdd - vgs("m3");
  std::vector<std::pair<std::string, double>> g;
  if (find_role(d, "w_in") != nullptr) {
    const double wb = vgs("w_diode");
    g.emplace_back(prefix + "_wb", wb);
    g.emplace_back(prefix + "_wa", wb + vgs("w_casc"));
  } else {
    g.emplace_back(prefix + "_bn", vgs("m8"));
  }
  g.emplace_back(prefix + "_tail", tail);
  g.emplace_back(prefix + "_tailx", tail);
  g.emplace_back(prefix + "_n1", load);
  g.emplace_back(prefix + "_o1", load);
  g.emplace_back(prefix + "_zx", load);
  if (find_role(d, "m9") != nullptr) {
    g.emplace_back(prefix + "_out2", in_dc + vgs("m9"));
  }
  return g;
}

}  // namespace

void OpAmpDesign::emit(NetlistBuilder& nb, const Process& proc,
                       const std::string& prefix, const std::string& inp,
                       const std::string& inn, const std::string& out,
                       const std::string& vdd_node) const {
  auto t = [&](const std::string& role) { return find_role(*this, role); };
  auto need = [&](const std::string& role) -> const TransistorDesign& {
    const TransistorDesign* p = t(role);
    if (p == nullptr) throw LookupError("opamp emit: missing role " + role);
    return *p;
  };

  const std::string n1 = prefix + "_n1";
  const std::string o1 = prefix + "_o1";
  const std::string tail = prefix + "_tail";
  const std::string tailx = prefix + "_tailx";
  const std::string zx = prefix + "_zx";
  const bool buffered = (t("m9") != nullptr);
  const std::string out2 = buffered ? prefix + "_out2" : out;

  nb.comment("opamp " + prefix + ": two-stage Miller" +
             std::string(buffered ? " + buffer" : ""));

  // Bias / tail current source.
  const bool wilson = (t("w_in") != nullptr);
  std::string bias_gate;
  if (wilson) {
    const std::string wa = prefix + "_wa";
    const std::string wb = prefix + "_wb";
    nb.isource("Ib" + prefix, vdd_node, wa, "DC " + fmt(spec.ibias));
    nb.mosfet(proc, need("w_in"), wa, wb, "0", "0");
    nb.mosfet(proc, need("w_diode"), wb, wb, "0", "0");
    nb.mosfet(proc, need("w_casc"), tailx, wa, wb, "0");
    bias_gate = wb;
  } else {
    const std::string bn = prefix + "_bn";
    nb.isource("Ib" + prefix, vdd_node, bn, "DC " + fmt(spec.ibias));
    nb.mosfet(proc, need("m8"), bn, bn, "0", "0");
    nb.mosfet(proc, need("m5"), tailx, bn, "0", "0");
    bias_gate = bn;
  }
  // Zero-volt tail current probe.
  nb.vsource("Vtail" + prefix, tailx, tail, "DC 0");

  // First stage: M1 gate is the inverting input (the mirror diode hangs on
  // its drain; the second stage inverts once more).
  nb.mosfet(proc, need("m1"), n1, inn, tail, "0");
  nb.mosfet(proc, need("m2"), o1, inp, tail, "0");
  nb.mosfet(proc, need("m3"), n1, n1, vdd_node, vdd_node);
  nb.mosfet(proc, need("m4"), o1, n1, vdd_node, vdd_node);

  // Second stage + Miller compensation with zero-nulling resistor.
  nb.mosfet(proc, need("m6"), out2, o1, vdd_node, vdd_node);
  nb.mosfet(proc, need("m7"), out2, bias_gate, "0", "0");
  nb.resistor(o1, zx, std::max(perf.rz, 1.0));
  nb.capacitor(zx, out2, perf.cc);

  if (buffered) {
    nb.mosfet(proc, need("m9"), vdd_node, out2, out, "0");
    nb.mosfet(proc, need("m10"), out, bias_gate, "0", "0");
  }
}

Testbench OpAmpDesign::testbench(const Process& proc, OpAmpTb mode) const {
  NetlistBuilder nb("APE opamp testbench");
  nb.models(proc);
  nb.vsource("Vdd", "vdd", "0", "DC " + fmt(proc.vdd));

  Testbench tb;
  tb.supply_source = "Vdd";
  tb.out_node = "out";
  tb.cload = spec.cload;
  const double cm = perf.input_cm;

  switch (mode) {
    case OpAmpTb::OpenLoop: {
      nb.vsource("Vin", "vp", "0", "DC " + fmt(cm) + " AC 1");
      emit(nb, proc, "x1", "vp", "vm", "out", "vdd");
      // DC unity feedback through a huge inductor; AC-open.
      nb.inductor("out", "vm", 1e6);
      nb.capacitor("vm", "0", 1.0);
      nb.capacitor("out", "0", spec.cload);
      tb.in_source = "Vin";
      break;
    }
    case OpAmpTb::CommonMode: {
      nb.vsource("Vin", "vp", "0", "DC " + fmt(cm) + " AC 1");
      emit(nb, proc, "x1", "vp", "vm", "out", "vdd");
      nb.inductor("out", "vm", 1e6);
      // The inverting input is AC-driven with the same unit stimulus.
      nb.vsource("Vcm", "cmx", "0", "AC 1");
      nb.capacitor("vm", "cmx", 1.0);
      nb.capacitor("out", "0", spec.cload);
      tb.in_source = "Vin";
      break;
    }
    case OpAmpTb::ZoutProbe: {
      nb.vsource("Vin", "vp", "0", "DC " + fmt(cm));
      emit(nb, proc, "x1", "vp", "vm", "out", "vdd");
      nb.inductor("out", "vm", 1e6);
      nb.capacitor("vm", "0", 1.0);
      nb.isource("Iz", "0", "out", "AC 1");
      tb.in_source = "Iz";
      break;
    }
    case OpAmpTb::UnityStep: {
      // Unity-gain connection; +/-0.4 V pulse around the common mode wide
      // enough to expose both the rising and the falling slew.
      const double est_slew = std::max(perf.slew, 1e3);
      const double pw = std::clamp(8.0 * 0.8 / est_slew, 2e-6, 5e-3);
      nb.vsource("Vin", "vp", "0",
                 "PULSE(" + fmt(cm - 0.4) + " " + fmt(cm + 0.4) + " 1u 100n 100n " +
                     fmt(pw) + " " + fmt(4.0 * pw) + ")");
      emit(nb, proc, "x1", "vp", "out", "out", "vdd");
      nb.capacitor("out", "0", spec.cload);
      tb.in_source = "Vin";
      break;
    }
  }

  // Start the DC solve at the design's own bias point (the Seeded plan of
  // spice::dc_operating_point). The unity step's DC point is the pulse's
  // initial level; every other bench sits at the common mode.
  const double in_dc = mode == OpAmpTb::UnityStep ? cm - 0.4 : cm;
  std::vector<std::pair<std::string, double>> seed{
      {"vdd", proc.vdd}, {"vp", in_dc}, {"out", in_dc}};
  if (mode != OpAmpTb::UnityStep) seed.emplace_back("vm", in_dc);
  if (mode == OpAmpTb::CommonMode) seed.emplace_back("cmx", 0.0);
  const auto internal = bias_guess(*this, "x1", in_dc, proc.vdd);
  seed.insert(seed.end(), internal.begin(), internal.end());
  nb.nodeset(seed);

  tb.netlist = nb.str();
  return tb;
}

}  // namespace ape::est
