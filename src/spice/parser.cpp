#include "src/spice/parser.h"

#include <algorithm>
#include <set>
#include <string_view>
#include <vector>

#include "src/spice/devices.h"
#include "src/util/units.h"

namespace ape::spice {
namespace {

// The parser works on views into the netlist text: tokens are
// std::string_views, keywords compare case-insensitively in place, and a
// message's text (a "line N" context, a lower-cased key) is built only
// when the error is thrown. Blanks and case are the C locale's, inline.

char to_lower(char c) { return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c; }

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = to_lower(c);
  return out;
}

/// Case-insensitive equality of \p tok and the lower-case \p word.
bool iequals(std::string_view tok, std::string_view word) {
  if (tok.size() != word.size()) return false;
  for (size_t i = 0; i < tok.size(); ++i) {
    if (to_lower(tok[i]) != word[i]) return false;
  }
  return true;
}

using Tokens = std::vector<std::string_view>;

/// Append the tokens of \p text to \p toks; '(', ')', '=' and ',' act as
/// separators so "PULSE(0 5 1n)" and "w=10u" split cleanly.
void tokenize(std::string_view text, Tokens& toks) {
  auto sep = [](char c) { return is_space(c) || c == '(' || c == ')' || c == '=' || c == ','; };
  size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && sep(text[i])) ++i;
    const size_t begin = i;
    while (i < text.size() && !sep(text[i])) ++i;
    if (i > begin) toks.push_back(text.substr(begin, i - begin));
  }
}

/// "line N": the context netlist errors name. N counts logical lines
/// (comments and blank lines dropped, continuations merged).
std::string line_ctx(size_t line) { return "line " + std::to_string(line); }

double num(std::string_view tok, size_t line) {
  if (const auto v = units::parse(tok)) return *v;
  throw ParseError("cannot parse number '" + std::string(tok) + "' in " + line_ctx(line));
}

/// Parse source tokens following the node pair. Handles combinations of
/// a bare DC value, DC, AC and one transient waveform.
Waveform parse_waveform(const Tokens& toks, size_t i, size_t line) {
  auto err = [&](const char* what) { return ParseError(line_ctx(line) + ": " + what); };
  Waveform w;
  bool have_dc = false;
  while (i < toks.size()) {
    const std::string_view key = toks[i];
    if (iequals(key, "dc")) {
      if (i + 1 >= toks.size()) throw err("DC needs a value");
      w.dc = num(toks[++i], line);
      have_dc = true;
      ++i;
    } else if (iequals(key, "ac")) {
      if (i + 1 >= toks.size()) throw err("AC needs a magnitude");
      w.ac_mag = num(toks[++i], line);
      ++i;
      if (i < toks.size()) {
        if (const auto phase = units::parse(toks[i])) {
          w.ac_phase_deg = *phase;
          ++i;
        }
      }
    } else if (iequals(key, "pulse")) {
      w.kind = Waveform::Kind::Pulse;
      double* slots[] = {&w.v1, &w.v2, &w.td, &w.tr, &w.tf, &w.pw, &w.per};
      size_t s = 0;
      ++i;
      for (; i < toks.size() && s < 7; ++i) {
        const auto v = units::parse(toks[i]);
        if (!v) break;
        *slots[s++] = *v;
      }
      if (s < 2) throw err("PULSE needs at least v1 v2");
      if (!have_dc) w.dc = w.v1;
    } else if (iequals(key, "sin")) {
      w.kind = Waveform::Kind::Sin;
      double* slots[] = {&w.sin_vo, &w.sin_va, &w.sin_freq, &w.sin_td, &w.sin_theta};
      size_t s = 0;
      ++i;
      for (; i < toks.size() && s < 5; ++i) {
        const auto v = units::parse(toks[i]);
        if (!v) break;
        *slots[s++] = *v;
      }
      if (s < 3) throw err("SIN needs vo va freq");
      if (!have_dc) w.dc = w.sin_vo;
    } else if (iequals(key, "pwl")) {
      w.kind = Waveform::Kind::Pwl;
      ++i;
      const size_t first = i;
      while (i < toks.size() && units::parse(toks[i])) ++i;
      const size_t count = i - first;
      if (count < 4 || count % 2 != 0) throw err("PWL needs an even number (>= 4) of values");
      w.pwl.reserve(count / 2);
      for (size_t k = first; k + 1 < i; k += 2) {
        w.pwl.emplace_back(*units::parse(toks[k]), *units::parse(toks[k + 1]));
      }
      if (!have_dc) w.dc = w.pwl.front().second;
    } else if (const auto v = units::parse(key)) {
      w.dc = *v;
      have_dc = true;
      ++i;
    } else {
      throw ParseError(line_ctx(line) + ": unexpected token '" + std::string(key) + "'");
    }
  }
  return w;
}

/// The numeric .model parameters, sorted by key for binary search
/// ("level" is handled separately: it is an int with a range check).
struct ModelParam {
  std::string_view key;
  double MosModelCard::*field;
};
constexpr ModelParam kModelParams[] = {
    {"af", &MosModelCard::af},       {"cgbo", &MosModelCard::cgbo},
    {"cgdo", &MosModelCard::cgdo},   {"cgso", &MosModelCard::cgso},
    {"cj", &MosModelCard::cj},       {"cjsw", &MosModelCard::cjsw},
    {"eta", &MosModelCard::eta},     {"gamma", &MosModelCard::gamma},
    {"js", &MosModelCard::js},       {"k1", &MosModelCard::k1},
    {"k2", &MosModelCard::k2},       {"kappa", &MosModelCard::kappa},
    {"kf", &MosModelCard::kf},       {"kp", &MosModelCard::kp},
    {"lambda", &MosModelCard::lambda}, {"ld", &MosModelCard::ld},
    {"lref", &MosModelCard::lref},   {"mj", &MosModelCard::mj},
    {"mjsw", &MosModelCard::mjsw},   {"muz", &MosModelCard::muz},
    {"nsub", &MosModelCard::nsub},   {"pb", &MosModelCard::pb},
    {"phi", &MosModelCard::phi},     {"rsh", &MosModelCard::rsh},
    {"theta", &MosModelCard::theta}, {"tox", &MosModelCard::tox},
    {"u0", &MosModelCard::u0},       {"u0v", &MosModelCard::u0v},
    {"u1", &MosModelCard::u1},       {"ucrit", &MosModelCard::ucrit},
    {"uexp", &MosModelCard::uexp},   {"uo", &MosModelCard::u0},
    {"vfb", &MosModelCard::vfb},     {"vmax", &MosModelCard::vmax},
    {"vto", &MosModelCard::vto},     {"xj", &MosModelCard::xj},
};
static_assert(std::is_sorted(std::begin(kModelParams), std::end(kModelParams),
                             [](const ModelParam& a, const ModelParam& b) {
                               return a.key < b.key;
                             }));

/// The table entry whose key equals \p tok case-insensitively, or null.
const ModelParam* find_model_param(std::string_view tok) {
  // Lexicographic compare of a lower-case key with the lower-cased token.
  auto key_less = [](const ModelParam& p, std::string_view t) {
    const size_t n = std::min(p.key.size(), t.size());
    for (size_t i = 0; i < n; ++i) {
      const auto a = static_cast<unsigned char>(p.key[i]);
      const auto b = static_cast<unsigned char>(to_lower(t[i]));
      if (a != b) return a < b;
    }
    return p.key.size() < t.size();
  };
  const ModelParam* it =
      std::lower_bound(std::begin(kModelParams), std::end(kModelParams), tok, key_less);
  return it != std::end(kModelParams) && iequals(tok, it->key) ? it : nullptr;
}

/// Parse the tokens of a ".model name nmos|pmos (k=v ...)" card. \p text
/// renders the card for the malformed-card message; \p line is the card's
/// netlist line, which every message then names (0: a standalone card).
template <typename Text>
MosModelCard parse_model_tokens(const Tokens& toks, const Text& text, size_t line) {
  auto prefix = [&] { return line == 0 ? std::string() : line_ctx(line) + ": "; };
  if (toks.size() < 3 || !iequals(toks[0], ".model")) {
    throw ParseError(prefix() + "malformed .model card: " + text());
  }
  MosModelCard m;
  m.name = lower(toks[1]);
  auto err = [&](const std::string& what) {
    return ParseError(prefix() + ".model " + m.name + ": " + what);
  };
  if (iequals(toks[2], "nmos")) {
    m.type = MosType::Nmos;
    m.vto = 0.8;
  } else if (iequals(toks[2], "pmos")) {
    m.type = MosType::Pmos;
    m.vto = -0.8;
  } else {
    throw err("unsupported type '" + lower(toks[2]) + "'");
  }
  for (size_t i = 3; i + 1 < toks.size(); i += 2) {
    const std::string_view key = toks[i];
    const auto v = units::parse(toks[i + 1]);
    if (!v) {
      throw ParseError(prefix() + "cannot parse number '" + std::string(toks[i + 1]) +
                       "' in .model " + m.name);
    }
    if (iequals(key, "level")) {
      // Out-of-int-range values (and NaN) are unsupported, not UB.
      m.level = *v >= -1e9 && *v <= 1e9 ? static_cast<int>(*v) : 0;
      if (m.level < 1 || m.level > 4) {
        throw err("unsupported LEVEL " + std::to_string(m.level) + " (1, 2, 3 or 4=BSIM)");
      }
    } else if (const ModelParam* p = find_model_param(key)) {
      m.*(p->field) = *v;
    } else {
      throw err("unknown parameter '" + lower(key) + "'");
    }
  }
  if (toks.size() % 2 == 0) {
    throw err("dangling parameter '" + std::string(toks.back()) + "'");
  }
  return m;
}

/// The netlist split into logical lines. Each physical line is stripped
/// of its trailing '$' / ';' comment and of surrounding blanks; blank and
/// '*' lines are dropped; a '+' line continues the previous one. A
/// logical line is a run of segments in segs (its first physical line,
/// then each continuation without its '+') and stands for the segments
/// joined by single spaces.
struct Lines {
  struct Line {
    size_t first, count;
  };
  std::vector<std::string_view> segs;
  std::vector<Line> lines;

  explicit Lines(std::string_view text) {
    const auto newlines = static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
    segs.reserve(newlines + 1);
    lines.reserve(newlines + 1);
    while (!text.empty()) {
      const size_t nl = text.find('\n');
      std::string_view raw = text.substr(0, nl);
      text.remove_prefix(nl == std::string_view::npos ? text.size() : nl + 1);
      const size_t cpos = raw.find_first_of("$;");
      if (cpos != std::string_view::npos) raw = raw.substr(0, cpos);
      while (!raw.empty() && is_space(raw.back())) raw.remove_suffix(1);
      while (!raw.empty() && is_space(raw.front())) raw.remove_prefix(1);
      if (raw.empty() || raw[0] == '*') continue;
      if (raw[0] == '+') {
        if (lines.empty()) throw ParseError("continuation line with no previous line");
        segs.push_back(raw.substr(1));
        ++lines.back().count;
      } else {
        lines.push_back({segs.size(), 1});
        segs.push_back(raw);
      }
    }
  }

  size_t size() const { return lines.size(); }
  std::string_view head(size_t li) const { return segs[lines[li].first]; }

  std::string text(size_t li) const {
    std::string out(head(li));
    for (size_t s = 1; s < lines[li].count; ++s) {
      out += ' ';
      out += segs[lines[li].first + s];
    }
    return out;
  }

  void tokens(size_t li, Tokens& toks) const {
    toks.clear();
    for (size_t s = 0; s < lines[li].count; ++s) tokenize(segs[lines[li].first + s], toks);
  }

  /// Whether the line's text starts with ".model" in any case. The joined
  /// text puts a space after the head, so a shorter head cannot match.
  bool is_model_card(size_t li) const {
    const std::string_view h = head(li);
    return h.size() >= 6 && iequals(h.substr(0, 6), ".model");
  }
};

}  // namespace

MosModelCard parse_model_card(const std::string& line) {
  Tokens toks;
  tokenize(line, toks);
  return parse_model_tokens(toks, [&] { return line; }, 0);
}

Circuit parse_netlist(const std::string& text) {
  const Lines lines(text);
  if (lines.size() == 0) throw ParseError("empty netlist");

  Circuit ckt(lines.text(0));
  Tokens toks;
  toks.reserve(64);

  // First pass: model cards (devices may reference models defined later).
  for (size_t li = 1; li < lines.size(); ++li) {
    if (!lines.is_model_card(li)) continue;
    lines.tokens(li, toks);
    ckt.add_model(parse_model_tokens(toks, [&] { return lines.text(li); }, li + 1));
  }

  // Second pass: devices. Controlled-source control references (F/H) are
  // resolved after all elements exist, so collect them.
  struct PendingCc {
    std::string_view name, p, n, ctrl;
    double gain;
    bool is_cccs;
    size_t line;
  };
  std::vector<PendingCc> pending_cc;
  // .nodeset may name nodes that devices later in the deck create, so
  // guesses resolve after every element exists.
  struct PendingNodeSet {
    std::string_view node;
    double volts;
    size_t line;
  };
  std::vector<PendingNodeSet> pending_ns;
  std::set<std::string_view, CaseFoldLess> seen_names;

  for (size_t li = 1; li < lines.size(); ++li) {
    const size_t line = li + 1;
    auto err = [&](const std::string& what) { return ParseError(line_ctx(line) + ": " + what); };
    lines.tokens(li, toks);
    if (lines.head(li)[0] == '.') {
      if (iequals(toks[0], ".model") || iequals(toks[0], ".end") || iequals(toks[0], ".ends")) {
        continue;
      }
      if (iequals(toks[0], ".nodeset")) {
        // .nodeset V(n1)=v1 V(n2)=v2 ...: the tokenizer splits each pair
        // into "V", node, value.
        if (toks.size() < 4 || (toks.size() - 1) % 3 != 0) {
          throw err(".nodeset needs V(node)=value pairs");
        }
        for (size_t i = 1; i < toks.size(); i += 3) {
          if (!iequals(toks[i], "v")) {
            throw err(".nodeset expects V(node)=value, got '" + std::string(toks[i]) + "'");
          }
          pending_ns.push_back({toks[i + 1], num(toks[i + 2], line), line});
        }
        continue;
      }
      throw err("unsupported card '" + lower(toks[0]) + "'");
    }
    if (toks.size() < 3) throw err("too few fields");
    const std::string name(toks[0]);
    const char kind = to_lower(name[0]);
    if (!seen_names.insert(toks[0]).second) throw err("duplicate device name '" + name + "'");

    auto nd = [&](std::string_view s) { return ckt.node(s); };
    // A two-terminal element with both terminals on one node stamps a
    // zero row (R/C/L) or an unsatisfiable branch (V); reject it here
    // with the line number rather than letting the solve fail later.
    auto two_nodes = [&](const char* elem) {
      const NodeId p = nd(toks[1]);
      const NodeId n = nd(toks[2]);
      if (p == n) {
        throw err(std::string(elem) + " '" + name + "' has both terminals on node '" +
                  std::string(toks[1]) + "'");
      }
      return std::pair<NodeId, NodeId>{p, n};
    };
    switch (kind) {
      case 'r': {
        if (toks.size() < 4) throw err("R needs 2 nodes + value");
        const auto [p, n] = two_nodes("resistor");
        ckt.add<Resistor>(name, p, n, num(toks[3], line));
        break;
      }
      case 'c': {
        if (toks.size() < 4) throw err("C needs 2 nodes + value");
        const auto [p, n] = two_nodes("capacitor");
        ckt.add<Capacitor>(name, p, n, num(toks[3], line));
        break;
      }
      case 'l': {
        if (toks.size() < 4) throw err("L needs 2 nodes + value");
        const auto [p, n] = two_nodes("inductor");
        ckt.add<Inductor>(name, p, n, num(toks[3], line));
        break;
      }
      case 'v': {
        const auto [p, n] = two_nodes("voltage source");
        ckt.add<VSource>(name, p, n, parse_waveform(toks, 3, line));
        break;
      }
      case 'i': {
        const auto [p, n] = two_nodes("current source");
        ckt.add<ISource>(name, p, n, parse_waveform(toks, 3, line));
        break;
      }
      case 'e':
        if (toks.size() < 6) throw err("E needs 4 nodes + gain");
        ckt.add<Vcvs>(name, nd(toks[1]), nd(toks[2]), nd(toks[3]), nd(toks[4]),
                      num(toks[5], line));
        break;
      case 'g':
        if (toks.size() < 6) throw err("G needs 4 nodes + gm");
        ckt.add<Vccs>(name, nd(toks[1]), nd(toks[2]), nd(toks[3]), nd(toks[4]),
                      num(toks[5], line));
        break;
      case 'f':
      case 'h':
        if (toks.size() < 5) throw err("F/H needs 2 nodes + vsrc + gain");
        pending_cc.push_back({toks[0], toks[1], toks[2], toks[3], num(toks[4], line),
                              kind == 'f', line});
        break;
      case 'd': {
        double is = 1e-14;
        if (toks.size() >= 4) {
          if (const auto v = units::parse(toks[3])) is = *v;
        }
        const auto [p, n] = two_nodes("diode");
        ckt.add<Diode>(name, p, n, is);
        break;
      }
      case 'm': {
        if (toks.size() < 6) throw err("M needs 4 nodes + model");
        const MosModelCard* model = nullptr;
        try {
          model = ckt.model(toks[5]);
        } catch (const LookupError&) {
          throw LookupError(line_ctx(line) + ": no .model named '" + std::string(toks[5]) + "'");
        }
        double w = 10e-6, l = 10e-6, ad = 0, as = 0, pd = 0, ps = 0;
        for (size_t i = 6; i + 1 < toks.size(); i += 2) {
          const std::string_view key = toks[i];
          const double v = num(toks[i + 1], line);
          if (iequals(key, "w")) w = v;
          else if (iequals(key, "l")) l = v;
          else if (iequals(key, "ad")) ad = v;
          else if (iequals(key, "as")) as = v;
          else if (iequals(key, "pd")) pd = v;
          else if (iequals(key, "ps")) ps = v;
          else throw err("unknown MOSFET parameter '" + lower(key) + "'");
        }
        ckt.add<Mosfet>(name, nd(toks[1]), nd(toks[2]), nd(toks[3]), nd(toks[4]),
                        model, w, l, ad, as, pd, ps);
        break;
      }
      default:
        throw err("unsupported element '" + name + "'");
    }
  }

  for (const auto& pc : pending_cc) {
    const std::string name(pc.name);
    auto err = [&](const std::string& what) {
      return ParseError(line_ctx(pc.line) + ": " + name + ": " + what);
    };
    Device* dev = ckt.find(std::string(pc.ctrl));
    if (dev == nullptr) throw err("no device named '" + std::string(pc.ctrl) + "'");
    auto* ctrl = dynamic_cast<VSource*>(dev);
    if (ctrl == nullptr) {
      throw err("controlling device '" + std::string(pc.ctrl) + "' is not a voltage source");
    }
    const NodeId p = ckt.node(pc.p);
    const NodeId n = ckt.node(pc.n);
    if (p == n) {
      throw ParseError(line_ctx(pc.line) + ": controlled source '" + name +
                       "' has both terminals on node '" + std::string(pc.p) + "'");
    }
    if (pc.is_cccs) {
      ckt.add<Cccs>(name, p, n, ctrl, pc.gain);
    } else {
      ckt.add<Ccvs>(name, p, n, ctrl, pc.gain);
    }
  }
  for (const auto& ns : pending_ns) {
    NodeId node;
    try {
      node = ckt.find_node(ns.node);
    } catch (const LookupError&) {
      throw ParseError(line_ctx(ns.line) + ": .nodeset names unknown node '" +
                       std::string(ns.node) + "'");
    }
    ckt.set_nodeset(node, ns.volts);
  }
  return ckt;
}

}  // namespace ape::spice
