#include "src/spice/parser.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "src/spice/devices.h"
#include "src/util/units.h"

namespace ape::spice {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Tokenize one logical line; '(', ')', '=' and ',' act as separators so
/// "PULSE(0 5 1n)" and "w=10u" split cleanly.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' ||
        c == '=' || c == ',') {
      if (!cur.empty()) {
        toks.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) toks.push_back(cur);
  return toks;
}

double num(const std::string& tok, const std::string& ctx) {
  return units::parse_or_throw(tok, ctx);
}

/// Parse source tokens following the node pair. Handles combinations of
/// a bare DC value, DC, AC and one transient waveform.
Waveform parse_waveform(const std::vector<std::string>& toks, size_t i,
                        const std::string& ctx) {
  Waveform w;
  bool have_dc = false;
  while (i < toks.size()) {
    const std::string key = lower(toks[i]);
    if (key == "dc") {
      if (i + 1 >= toks.size()) throw ParseError(ctx + ": DC needs a value");
      w.dc = num(toks[++i], ctx);
      have_dc = true;
      ++i;
    } else if (key == "ac") {
      if (i + 1 >= toks.size()) throw ParseError(ctx + ": AC needs a magnitude");
      w.ac_mag = num(toks[++i], ctx);
      ++i;
      if (i < toks.size() && units::parse(toks[i])) {
        w.ac_phase_deg = num(toks[i], ctx);
        ++i;
      }
    } else if (key == "pulse") {
      w.kind = Waveform::Kind::Pulse;
      double* slots[] = {&w.v1, &w.v2, &w.td, &w.tr, &w.tf, &w.pw, &w.per};
      size_t s = 0;
      ++i;
      while (i < toks.size() && s < 7 && units::parse(toks[i])) {
        *slots[s++] = num(toks[i++], ctx);
      }
      if (s < 2) throw ParseError(ctx + ": PULSE needs at least v1 v2");
      if (!have_dc) w.dc = w.v1;
    } else if (key == "sin") {
      w.kind = Waveform::Kind::Sin;
      double* slots[] = {&w.sin_vo, &w.sin_va, &w.sin_freq, &w.sin_td, &w.sin_theta};
      size_t s = 0;
      ++i;
      while (i < toks.size() && s < 5 && units::parse(toks[i])) {
        *slots[s++] = num(toks[i++], ctx);
      }
      if (s < 3) throw ParseError(ctx + ": SIN needs vo va freq");
      if (!have_dc) w.dc = w.sin_vo;
    } else if (key == "pwl") {
      w.kind = Waveform::Kind::Pwl;
      ++i;
      std::vector<double> vals;
      while (i < toks.size() && units::parse(toks[i])) vals.push_back(num(toks[i++], ctx));
      if (vals.size() < 4 || vals.size() % 2 != 0) {
        throw ParseError(ctx + ": PWL needs an even number (>= 4) of values");
      }
      for (size_t k = 0; k + 1 < vals.size(); k += 2) {
        w.pwl.emplace_back(vals[k], vals[k + 1]);
      }
      if (!have_dc) w.dc = w.pwl.front().second;
    } else if (units::parse(toks[i])) {
      w.dc = num(toks[i], ctx);
      have_dc = true;
      ++i;
    } else {
      throw ParseError(ctx + ": unexpected token '" + toks[i] + "'");
    }
  }
  return w;
}

void apply_model_param(MosModelCard& m, const std::string& key, double v) {
  static const std::map<std::string, double MosModelCard::*> kFields = {
      {"vto", &MosModelCard::vto},     {"kp", &MosModelCard::kp},
      {"gamma", &MosModelCard::gamma}, {"phi", &MosModelCard::phi},
      {"lambda", &MosModelCard::lambda}, {"u0", &MosModelCard::u0},
      {"uo", &MosModelCard::u0},       {"tox", &MosModelCard::tox},
      {"nsub", &MosModelCard::nsub},   {"ld", &MosModelCard::ld},
      {"ucrit", &MosModelCard::ucrit}, {"uexp", &MosModelCard::uexp},
      {"vmax", &MosModelCard::vmax},   {"theta", &MosModelCard::theta},
      {"eta", &MosModelCard::eta},     {"kappa", &MosModelCard::kappa},
      {"xj", &MosModelCard::xj},       {"cgso", &MosModelCard::cgso},
      {"cgdo", &MosModelCard::cgdo},   {"cgbo", &MosModelCard::cgbo},
      {"cj", &MosModelCard::cj},       {"mj", &MosModelCard::mj},
      {"cjsw", &MosModelCard::cjsw},   {"mjsw", &MosModelCard::mjsw},
      {"pb", &MosModelCard::pb},       {"js", &MosModelCard::js},
      {"rsh", &MosModelCard::rsh},   {"lref", &MosModelCard::lref},
      {"kf", &MosModelCard::kf},     {"af", &MosModelCard::af},
      {"vfb", &MosModelCard::vfb},   {"k1", &MosModelCard::k1},
      {"k2", &MosModelCard::k2},     {"muz", &MosModelCard::muz},
      {"u0v", &MosModelCard::u0v},   {"u1", &MosModelCard::u1},
  };
  if (key == "level") {
    m.level = static_cast<int>(v);
    if (m.level < 1 || m.level > 4) {
      throw ParseError(".model " + m.name + ": unsupported LEVEL " +
                       std::to_string(m.level) + " (1, 2, 3 or 4=BSIM)");
    }
    return;
  }
  auto it = kFields.find(key);
  if (it == kFields.end()) {
    throw ParseError(".model " + m.name + ": unknown parameter '" + key + "'");
  }
  m.*(it->second) = v;
}

}  // namespace

MosModelCard parse_model_card(const std::string& line) {
  const std::vector<std::string> toks = tokenize(line);
  if (toks.size() < 3 || lower(toks[0]) != ".model") {
    throw ParseError("malformed .model card: " + line);
  }
  MosModelCard m;
  m.name = lower(toks[1]);
  const std::string type = lower(toks[2]);
  if (type == "nmos") {
    m.type = MosType::Nmos;
    m.vto = 0.8;
  } else if (type == "pmos") {
    m.type = MosType::Pmos;
    m.vto = -0.8;
  } else {
    throw ParseError(".model " + m.name + ": unsupported type '" + type + "'");
  }
  for (size_t i = 3; i + 1 < toks.size(); i += 2) {
    apply_model_param(m, lower(toks[i]), num(toks[i + 1], ".model " + m.name));
  }
  if (toks.size() % 2 == 0) {
    throw ParseError(".model " + m.name + ": dangling parameter '" + toks.back() + "'");
  }
  return m;
}

Circuit parse_netlist(const std::string& text) {
  // Split into logical lines (handle '+' continuations), drop comments.
  std::vector<std::string> lines;
  {
    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
      // Strip trailing comment ('$' or ';').
      const size_t cpos = raw.find_first_of("$;");
      if (cpos != std::string::npos) raw.erase(cpos);
      while (!raw.empty() && (raw.back() == '\r' || std::isspace(static_cast<unsigned char>(raw.back())))) {
        raw.pop_back();
      }
      size_t start = 0;
      while (start < raw.size() && std::isspace(static_cast<unsigned char>(raw[start]))) ++start;
      raw.erase(0, start);
      if (raw.empty()) continue;
      if (raw[0] == '*') continue;
      if (raw[0] == '+') {
        if (lines.empty()) throw ParseError("continuation line with no previous line");
        lines.back() += " " + raw.substr(1);
      } else {
        lines.push_back(raw);
      }
    }
  }
  if (lines.empty()) throw ParseError("empty netlist");

  Circuit ckt(lines.front());

  // First pass: model cards (devices may reference models defined later).
  for (size_t li = 1; li < lines.size(); ++li) {
    if (lower(lines[li].substr(0, 6)) == ".model") {
      ckt.add_model(parse_model_card(lines[li]));
    }
  }

  // Second pass: devices. Controlled-source control references (F/H) are
  // resolved after all elements exist, so collect them.
  struct PendingCc {
    std::string name, p, n, ctrl;
    double gain;
    bool is_cccs;
  };
  std::vector<PendingCc> pending_cc;
  // .nodeset may name nodes that devices later in the deck create, so
  // guesses resolve after every element exists.
  struct PendingNodeSet {
    std::string ctx, node;
    double volts;
  };
  std::vector<PendingNodeSet> pending_ns;
  std::set<std::string> seen_names;

  for (size_t li = 1; li < lines.size(); ++li) {
    const std::string& line = lines[li];
    const std::string ctx = "line " + std::to_string(li + 1);
    if (line[0] == '.') {
      const std::vector<std::string> toks = tokenize(line);
      const std::string card = lower(toks[0]);
      if (card == ".model" || card == ".end" || card == ".ends") continue;
      if (card == ".nodeset") {
        // .nodeset V(n1)=v1 V(n2)=v2 ...: the tokenizer splits each pair
        // into "V", node, value.
        if (toks.size() < 4 || (toks.size() - 1) % 3 != 0) {
          throw ParseError(ctx + ": .nodeset needs V(node)=value pairs");
        }
        for (size_t i = 1; i < toks.size(); i += 3) {
          if (lower(toks[i]) != "v") {
            throw ParseError(ctx + ": .nodeset expects V(node)=value, got '" +
                             toks[i] + "'");
          }
          pending_ns.push_back({ctx, toks[i + 1], num(toks[i + 2], ctx)});
        }
        continue;
      }
      throw ParseError(ctx + ": unsupported card '" + card + "'");
    }
    const std::vector<std::string> toks = tokenize(line);
    if (toks.size() < 3) throw ParseError(ctx + ": too few fields");
    const std::string name = toks[0];
    const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(name[0])));
    if (!seen_names.insert(lower(name)).second) {
      throw ParseError(ctx + ": duplicate device name '" + name + "'");
    }

    auto nd = [&](const std::string& s) { return ckt.node(s); };
    // A two-terminal element with both terminals on one node stamps a
    // zero row (R/C/L) or an unsatisfiable branch (V); reject it here
    // with the line number rather than letting the solve fail later.
    auto two_nodes = [&](const char* elem) {
      const NodeId p = nd(toks[1]);
      const NodeId n = nd(toks[2]);
      if (p == n) {
        throw ParseError(ctx + ": " + elem + " '" + name +
                         "' has both terminals on node '" + toks[1] + "'");
      }
      return std::pair<NodeId, NodeId>{p, n};
    };
    switch (kind) {
      case 'r': {
        if (toks.size() < 4) throw ParseError(ctx + ": R needs 2 nodes + value");
        const auto [p, n] = two_nodes("resistor");
        ckt.add<Resistor>(name, p, n, num(toks[3], ctx));
        break;
      }
      case 'c': {
        if (toks.size() < 4) throw ParseError(ctx + ": C needs 2 nodes + value");
        const auto [p, n] = two_nodes("capacitor");
        ckt.add<Capacitor>(name, p, n, num(toks[3], ctx));
        break;
      }
      case 'l': {
        if (toks.size() < 4) throw ParseError(ctx + ": L needs 2 nodes + value");
        const auto [p, n] = two_nodes("inductor");
        ckt.add<Inductor>(name, p, n, num(toks[3], ctx));
        break;
      }
      case 'v': {
        const auto [p, n] = two_nodes("voltage source");
        ckt.add<VSource>(name, p, n, parse_waveform(toks, 3, ctx));
        break;
      }
      case 'i': {
        const auto [p, n] = two_nodes("current source");
        ckt.add<ISource>(name, p, n, parse_waveform(toks, 3, ctx));
        break;
      }
      case 'e':
        if (toks.size() < 6) throw ParseError(ctx + ": E needs 4 nodes + gain");
        ckt.add<Vcvs>(name, nd(toks[1]), nd(toks[2]), nd(toks[3]), nd(toks[4]),
                      num(toks[5], ctx));
        break;
      case 'g':
        if (toks.size() < 6) throw ParseError(ctx + ": G needs 4 nodes + gm");
        ckt.add<Vccs>(name, nd(toks[1]), nd(toks[2]), nd(toks[3]), nd(toks[4]),
                      num(toks[5], ctx));
        break;
      case 'f':
      case 'h':
        if (toks.size() < 5) throw ParseError(ctx + ": F/H needs 2 nodes + vsrc + gain");
        pending_cc.push_back({name, toks[1], toks[2], toks[3], num(toks[4], ctx),
                              kind == 'f'});
        break;
      case 'd': {
        double is = 1e-14;
        if (toks.size() >= 4 && units::parse(toks[3])) is = num(toks[3], ctx);
        const auto [p, n] = two_nodes("diode");
        ckt.add<Diode>(name, p, n, is);
        break;
      }
      case 'm': {
        if (toks.size() < 6) throw ParseError(ctx + ": M needs 4 nodes + model");
        const MosModelCard* model = ckt.model(toks[5]);
        double w = 10e-6, l = 10e-6, ad = 0, as = 0, pd = 0, ps = 0;
        for (size_t i = 6; i + 1 < toks.size(); i += 2) {
          const std::string key = lower(toks[i]);
          const double v = num(toks[i + 1], ctx);
          if (key == "w") w = v;
          else if (key == "l") l = v;
          else if (key == "ad") ad = v;
          else if (key == "as") as = v;
          else if (key == "pd") pd = v;
          else if (key == "ps") ps = v;
          else throw ParseError(ctx + ": unknown MOSFET parameter '" + key + "'");
        }
        ckt.add<Mosfet>(name, nd(toks[1]), nd(toks[2]), nd(toks[3]), nd(toks[4]),
                        model, w, l, ad, as, pd, ps);
        break;
      }
      default:
        throw ParseError(ctx + ": unsupported element '" + name + "'");
    }
  }

  for (const auto& pc : pending_cc) {
    auto& ctrl = ckt.find_as<VSource>(pc.ctrl);
    const NodeId p = ckt.node(pc.p);
    const NodeId n = ckt.node(pc.n);
    if (p == n) {
      throw ParseError("controlled source '" + pc.name +
                       "' has both terminals on node '" + pc.p + "'");
    }
    if (pc.is_cccs) {
      ckt.add<Cccs>(pc.name, p, n, &ctrl, pc.gain);
    } else {
      ckt.add<Ccvs>(pc.name, p, n, &ctrl, pc.gain);
    }
  }
  for (const auto& ns : pending_ns) {
    NodeId node;
    try {
      node = ckt.find_node(ns.node);
    } catch (const LookupError&) {
      throw ParseError(ns.ctx + ": .nodeset names unknown node '" + ns.node + "'");
    }
    ckt.set_nodeset(node, ns.volts);
  }
  return ckt;
}

}  // namespace ape::spice
