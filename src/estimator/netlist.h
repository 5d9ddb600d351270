#pragma once
/// \file netlist.h
/// Netlist emission for sized designs. Every APE design object can render
/// itself as a SPICE testbench so the simulator substrate can verify the
/// estimates - this is what produces the "sim" columns of Tables 2/3/5.

#include <string>
#include <utility>
#include <vector>

#include "src/estimator/process.h"
#include "src/estimator/transistor.h"

namespace ape::est {

/// Incremental SPICE-text builder with automatic element numbering.
class NetlistBuilder {
public:
  explicit NetlistBuilder(std::string title) : title_(std::move(title)) {}

  /// Emit both process model cards.
  void models(const Process& proc);

  void comment(const std::string& text);
  void resistor(const std::string& a, const std::string& b, double ohms);
  void capacitor(const std::string& a, const std::string& b, double farads);
  void vsource(const std::string& name, const std::string& p,
               const std::string& n, const std::string& spec);
  void isource(const std::string& name, const std::string& p,
               const std::string& n, const std::string& spec);
  void inductor(const std::string& a, const std::string& b, double henries);

  /// VCVS (SPICE 'E' element) - used by opamp macromodels.
  void vcvs(const std::string& name, const std::string& p, const std::string& n,
            const std::string& cp, const std::string& cn, double gain);

  /// MOSFET bound to the process card matching \p t's type. Model names
  /// follow the Process ("modn"/"modp" in the default process).
  void mosfet(const Process& proc, const TransistorDesign& t,
              const std::string& d, const std::string& g, const std::string& s,
              const std::string& b);

  /// `.nodeset` card: DC initial guesses, one V(node)=volts pair each.
  void nodeset(const std::vector<std::pair<std::string, double>>& guesses);

  /// Raw line escape hatch.
  void line(const std::string& text);

  /// A fresh unique node name with the given prefix.
  std::string fresh(const std::string& prefix);

  std::string str() const;

private:
  std::string title_;
  std::vector<std::string> lines_;
  int counter_ = 0;
};

/// A self-contained simulation setup produced by a design object:
/// the netlist text plus the probe points the measurement code needs.
struct Testbench {
  std::string netlist;
  std::string out_node;      ///< primary output to probe
  std::string out_node2;     ///< inverting half for differential probing ("" = single-ended)
  std::string in_source;     ///< stimulus source name (carries AC 1)
  std::string supply_source; ///< VDD source (power = vdd * |I(supply)|)
  double cload = 0.0;        ///< attached load capacitance [F]
};

}  // namespace ape::est
