#include "src/estimator/netlist.h"

#include <cstdio>

#include "src/util/units.h"

namespace ape::est {
namespace {

std::string fmt(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void NetlistBuilder::models(const Process& proc) {
  lines_.push_back(spice::to_card_string(proc.nmos));
  lines_.push_back(spice::to_card_string(proc.pmos));
}

void NetlistBuilder::comment(const std::string& text) {
  lines_.push_back("* " + text);
}

void NetlistBuilder::resistor(const std::string& a, const std::string& b,
                              double ohms) {
  lines_.push_back("R" + std::to_string(++counter_) + " " + a + " " + b + " " +
                   fmt(ohms));
}

void NetlistBuilder::capacitor(const std::string& a, const std::string& b,
                               double farads) {
  lines_.push_back("C" + std::to_string(++counter_) + " " + a + " " + b + " " +
                   fmt(farads));
}

void NetlistBuilder::inductor(const std::string& a, const std::string& b,
                              double henries) {
  lines_.push_back("L" + std::to_string(++counter_) + " " + a + " " + b + " " +
                   fmt(henries));
}

void NetlistBuilder::vcvs(const std::string& name, const std::string& p,
                          const std::string& n, const std::string& cp,
                          const std::string& cn, double gain) {
  lines_.push_back(name + " " + p + " " + n + " " + cp + " " + cn + " " +
                   fmt(gain));
}

void NetlistBuilder::vsource(const std::string& name, const std::string& p,
                             const std::string& n, const std::string& spec) {
  lines_.push_back(name + " " + p + " " + n + " " + spec);
}

void NetlistBuilder::isource(const std::string& name, const std::string& p,
                             const std::string& n, const std::string& spec) {
  lines_.push_back(name + " " + p + " " + n + " " + spec);
}

void NetlistBuilder::mosfet(const Process& proc, const TransistorDesign& t,
                            const std::string& d, const std::string& g,
                            const std::string& s, const std::string& b) {
  const std::string& model = proc.card(t.type).name;
  lines_.push_back("M" + std::to_string(++counter_) + " " + d + " " + g + " " +
                   s + " " + b + " " + model + " W=" + fmt(t.w) +
                   " L=" + fmt(t.l));
}

void NetlistBuilder::nodeset(
    const std::vector<std::pair<std::string, double>>& guesses) {
  std::string card = ".nodeset";
  for (const auto& [node, volts] : guesses) {
    card += " V(" + node + ")=" + fmt(volts);
  }
  lines_.push_back(card);
}

void NetlistBuilder::line(const std::string& text) { lines_.push_back(text); }

std::string NetlistBuilder::fresh(const std::string& prefix) {
  return prefix + "_" + std::to_string(++counter_);
}

std::string NetlistBuilder::str() const {
  std::string out = title_ + "\n";
  for (const auto& l : lines_) {
    out += l;
    out += '\n';
  }
  out += ".end\n";
  return out;
}

}  // namespace ape::est
