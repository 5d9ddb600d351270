#include "src/lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "src/spice/devices.h"
#include "src/spice/parser.h"
#include "src/util/diagnostics.h"
#include "src/util/json.h"
#include "src/util/units.h"

namespace ape::lint {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Union-find over MNA nodes; slot 0 is ground, node id i is slot i + 1.
class UnionFind {
public:
  explicit UnionFind(size_t num_nodes) : parent_(num_nodes + 1) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
  }

  size_t slot(spice::NodeId id) const {
    return id == spice::kGround ? 0 : static_cast<size_t>(id) + 1;
  }

  size_t find(size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  /// Returns false when the two slots were already connected (i.e. the
  /// new edge closes a cycle).
  bool unite(spice::NodeId a, spice::NodeId b) {
    const size_t ra = find(slot(a));
    const size_t rb = find(slot(b));
    if (ra == rb) return false;
    // Keep ground's root stable so "connected to ground" stays find(0).
    if (rb == find(0)) {
      parent_[ra] = rb;
    } else {
      parent_[rb] = ra;
    }
    return true;
  }

  bool grounded(spice::NodeId id) { return find(slot(id)) == find(0); }

private:
  std::vector<size_t> parent_;
};

/// Format an island's node names, truncated for readability.
std::string island_names(const spice::Circuit& ckt,
                         const std::vector<spice::NodeId>& nodes) {
  std::string out;
  const size_t shown = std::min<size_t>(nodes.size(), 4);
  for (size_t i = 0; i < shown; ++i) {
    if (i != 0) out += ", ";
    out += "'" + ckt.node_name(nodes[i]) + "'";
  }
  if (nodes.size() > shown) {
    out += ", … (" + std::to_string(nodes.size()) + " nodes)";
  }
  return out;
}

bool bad_positive(double v) { return !std::isfinite(v) || v <= 0.0; }

}  // namespace

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Note: return "note";
    case Severity::Warn: return "warn";
    case Severity::Error: return "error";
  }
  return "?";
}

void Report::add(std::string rule, Severity severity, std::string message,
                 std::string where) {
  findings.push_back({std::move(rule), severity, std::move(message),
                      std::move(where), ErrorContext::chain()});
}

void Report::merge(const Report& other) {
  findings.insert(findings.end(), other.findings.begin(), other.findings.end());
}

int Report::errors() const {
  return static_cast<int>(std::count_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.severity == Severity::Error; }));
}

int Report::warnings() const {
  return static_cast<int>(std::count_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.severity == Severity::Warn; }));
}

int Report::notes() const {
  return static_cast<int>(std::count_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.severity == Severity::Note; }));
}

bool Report::has(const std::string& rule) const {
  return first(rule) != nullptr;
}

const Finding* Report::first(const std::string& rule) const {
  for (const auto& f : findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

std::string Report::summary() const {
  const int e = errors();
  const int w = warnings();
  if (e == 0 && w == 0) return "clean";
  std::string out = std::to_string(e) + (e == 1 ? " error" : " errors") + ", " +
                    std::to_string(w) + (w == 1 ? " warning" : " warnings");
  for (const auto& f : findings) {
    if (f.severity == Severity::Error) {
      out += " (first: " + f.rule + " " + f.message + ")";
      break;
    }
  }
  return out;
}

void Report::to_json(json::Writer& w) const {
  w.key("findings").begin_array();
  for (const Finding& f : findings) {
    w.begin_object()
        .field("rule", f.rule)
        .field("severity", to_string(f.severity))
        .field("message", f.message);
    if (!f.where.empty()) w.field("where", f.where);
    if (!f.provenance.empty()) w.field("provenance", f.provenance);
    w.end_object();
  }
  w.end_array()
      .field("errors", errors())
      .field("warnings", warnings())
      .field("notes", notes());
}

// --- circuit-level analysis -------------------------------------------------

Report lint_circuit(const spice::Circuit& ckt) {
  ErrorContext scope("lint('" + ckt.title() + "')");
  Report rep;
  const std::string& where = ckt.title();
  const size_t n_nodes = ckt.num_nodes();

  if (ckt.devices().empty()) {
    rep.add("APE-L007", Severity::Warn, "circuit has no devices", where);
    return rep;
  }

  // One pass over the device structures feeds every rule below.
  std::vector<int> degree(n_nodes, 0);
  UnionFind vloops(n_nodes);   // voltage-defined edges only
  UnionFind dcpath(n_nodes);   // conductive + voltage-defined edges
  // Current-source attachments and capacitive endpoints, for classifying
  // groundless islands (APE-L003 vs APE-L004 message detail).
  std::vector<std::pair<spice::NodeId, const spice::Device*>> current_taps;
  std::map<std::string, int> name_count;

  auto bump = [&](spice::NodeId id) {
    if (id != spice::kGround) ++degree[static_cast<size_t>(id)];
  };

  for (const auto& dev : ckt.devices()) {
    ++name_count[lower(dev->name())];
    const spice::DeviceStructure st = dev->structure();
    if (st.edges.empty() && st.sense.empty()) {
      rep.add("APE-L009", Severity::Note,
              "device '" + dev->name() +
                  "' has no structural model; topology rules cannot see it",
              where);
      continue;
    }
    for (spice::NodeId s : st.sense) bump(s);
    for (const spice::StructuralEdge& e : st.edges) {
      bump(e.p);
      bump(e.n);
      if (e.p == e.n) {
        rep.add("APE-L005", Severity::Error,
                "device '" + dev->name() + "' is self-looped on node '" +
                    ckt.node_name(e.p) + "'",
                where);
        continue;  // a degenerate edge must not poison the graph passes
      }
      switch (e.kind) {
        case spice::EdgeKind::VoltageDefined:
          if (!vloops.unite(e.p, e.n)) {
            rep.add("APE-L002", Severity::Error,
                    "device '" + dev->name() +
                        "' closes a loop of voltage-defined branches between '" +
                        ckt.node_name(e.p) + "' and '" + ckt.node_name(e.n) +
                        "' (structurally singular MNA)",
                    where);
          }
          dcpath.unite(e.p, e.n);
          break;
        case spice::EdgeKind::Conductive:
          dcpath.unite(e.p, e.n);
          break;
        case spice::EdgeKind::CurrentSource:
          current_taps.emplace_back(e.p, dev.get());
          current_taps.emplace_back(e.n, dev.get());
          break;
        case spice::EdgeKind::Capacitive:
          break;
      }
    }
  }

  for (const auto& [name, count] : name_count) {
    if (count > 1) {
      rep.add("APE-L006", Severity::Error,
              "duplicate device name '" + name + "' (" +
                  std::to_string(count) + " devices)",
              where);
    }
  }

  for (size_t i = 0; i < n_nodes; ++i) {
    if (degree[i] == 0) {
      rep.add("APE-L001", Severity::Warn,
              "node '" + ckt.node_name(static_cast<spice::NodeId>(i)) +
                  "' is declared but never connected",
              where);
    } else if (degree[i] == 1) {
      rep.add("APE-L001", Severity::Warn,
              "node '" + ckt.node_name(static_cast<spice::NodeId>(i)) +
                  "' dangles from a single device terminal",
              where);
    }
  }

  // Group the groundless nodes into islands and classify each.
  std::map<size_t, std::vector<spice::NodeId>> islands;
  for (size_t i = 0; i < n_nodes; ++i) {
    const auto id = static_cast<spice::NodeId>(i);
    if (!dcpath.grounded(id)) islands[dcpath.find(dcpath.slot(id))].push_back(id);
  }
  for (const auto& [root, nodes] : islands) {
    const spice::Device* tap = nullptr;
    for (const auto& [node, dev] : current_taps) {
      if (node != spice::kGround &&
          dcpath.find(dcpath.slot(node)) == root) {
        tap = dev;
        break;
      }
    }
    if (tap != nullptr) {
      rep.add("APE-L003", Severity::Error,
              "current source '" + tap->name() + "' drives island " +
                  island_names(ckt, nodes) +
                  " with no DC path to ground (current-source cutset; KCL "
                  "unsatisfiable)",
              where);
    } else {
      rep.add("APE-L004", Severity::Error,
              "no DC path to ground for " + island_names(ckt, nodes) +
                  " (held up only by gmin; floating gate/bulk or "
                  "capacitor-only node)",
              where);
    }
  }

  return rep;
}

// --- netlist-text analysis --------------------------------------------------

namespace {

/// Re-assemble the parser's logical lines (continuations merged, comments
/// stripped) so the alias scan sees the same text the parser did.
std::vector<std::string> logical_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    const size_t cpos = raw.find_first_of("$;");
    if (cpos != std::string::npos) raw.erase(cpos);
    while (!raw.empty() &&
           (raw.back() == '\r' ||
            std::isspace(static_cast<unsigned char>(raw.back())))) {
      raw.pop_back();
    }
    size_t start = 0;
    while (start < raw.size() && std::isspace(static_cast<unsigned char>(raw[start]))) {
      ++start;
    }
    raw.erase(0, start);
    if (raw.empty() || raw[0] == '*') continue;
    if (raw[0] == '+') {
      if (!lines.empty()) lines.back() += " " + raw.substr(1);
    } else {
      lines.push_back(raw);
    }
  }
  return lines;
}

/// Node-token positions per element letter (mirrors parser.cpp's grammar).
int node_token_count(char kind) {
  switch (kind) {
    case 'r': case 'c': case 'l': case 'v': case 'i':
    case 'f': case 'h': case 'd':
      return 2;
    case 'e': case 'g': case 'm':
      return 4;
    default:
      return 0;
  }
}

/// APE-L008: the parser folds node names case-insensitively, so "Out"
/// and "out" silently become one node. Surface the aliasing as a note.
void scan_node_aliases(const std::string& text, Report& rep) {
  std::map<std::string, std::set<std::string>> spellings;
  const std::vector<std::string> lines = logical_lines(text);
  for (size_t li = 1; li < lines.size(); ++li) {  // line 0 is the title
    const std::string& line = lines[li];
    if (line.empty() || line[0] == '.') continue;
    std::istringstream toks(line);
    std::string tok;
    if (!(toks >> tok)) continue;
    const char kind =
        static_cast<char>(std::tolower(static_cast<unsigned char>(tok[0])));
    int want = node_token_count(kind);
    while (want-- > 0 && (toks >> tok)) {
      spellings[lower(tok)].insert(tok);
    }
  }
  for (const auto& [key, names] : spellings) {
    if (names.size() > 1) {
      std::string list;
      for (const auto& n : names) {
        if (!list.empty()) list += ", ";
        list += "'" + n + "'";
      }
      rep.add("APE-L008", Severity::Note,
              "node '" + key + "' is spelled " + list +
                  "; the parser folds these into one node");
    }
  }
}

}  // namespace

Report lint_netlist(const std::string& text) {
  Report rep;
  spice::Circuit ckt;
  try {
    ckt = spice::parse_netlist(text);
  } catch (const Error& e) {
    rep.add("APE-P001", Severity::Error, e.what());
    return rep;
  }
  rep.merge(lint_circuit(ckt));
  scan_node_aliases(text, rep);
  return rep;
}

Report lint_testbench(const est::Testbench& tb) {
  ErrorContext scope("lint_testbench");
  Report rep;
  spice::Circuit ckt;
  try {
    ckt = spice::parse_netlist(tb.netlist);
  } catch (const Error& e) {
    rep.add("APE-P001", Severity::Error, e.what());
    return rep;
  }
  rep.merge(lint_circuit(ckt));
  scan_node_aliases(tb.netlist, rep);

  // The measurement layer dereferences these by name; a missing probe is
  // unreachable exactly like a fault probe on an absent ordinal.
  auto need_node = [&](const std::string& node, const char* role) {
    if (node.empty()) return;
    try {
      (void)ckt.find_node(node);
    } catch (const Error&) {
      rep.add("APE-T001", Severity::Error,
              std::string(role) + " probe node '" + node +
                  "' does not exist in the netlist",
              ckt.title());
    }
  };
  need_node(tb.out_node, "output");
  need_node(tb.out_node2, "inverting output");

  // An empty supply_source is valid (macromodel benches draw no supply
  // current), so only a *named* reference is checked; an empty stimulus
  // is an error — every testbench flavour drives something.
  auto need_source = [&](const std::string& name, const char* role,
                         bool vsource_only, bool required) {
    if (name.empty()) {
      if (required) {
        rep.add("APE-T002", Severity::Error,
                std::string(role) + " source is not set", ckt.title());
      }
      return;
    }
    const spice::Device* d = ckt.find(name);
    if (d == nullptr) {
      rep.add("APE-T002", Severity::Error,
              std::string(role) + " source '" + name +
                  "' does not exist in the netlist",
              ckt.title());
      return;
    }
    const bool is_v = dynamic_cast<const spice::VSource*>(d) != nullptr;
    const bool is_i = dynamic_cast<const spice::ISource*>(d) != nullptr;
    if (vsource_only ? !is_v : !(is_v || is_i)) {
      rep.add("APE-T002", Severity::Error,
              std::string(role) + " source '" + name +
                  "' is not an independent source",
              ckt.title());
    }
  };
  need_source(tb.in_source, "stimulus", false, true);
  need_source(tb.supply_source, "supply", true, false);

  if (tb.cload < 0.0 || !std::isfinite(tb.cload)) {
    rep.add("APE-S001", Severity::Error,
            "testbench cload is " + units::format_eng(tb.cload) + " F",
            ckt.title());
  }
  return rep;
}

// --- spec / design level ----------------------------------------------------

namespace {

/// Minimum usable overdrive per stacked device when checking supply
/// headroom (a device biased below this is barely saturated).
constexpr double kMinVov = 0.15;

void check_positive(Report& rep, const char* field, double v,
                    const std::string& where) {
  if (bad_positive(v)) {
    rep.add("APE-S001", Severity::Error,
            std::string(field) + " must be positive and finite, got " +
                units::format_eng(v),
            where);
  }
}

void check_range(Report& rep, const char* field, double v, double lo,
                 double hi, const char* unit, const std::string& where) {
  if (!std::isfinite(v) || v <= 0.0) return;  // APE-S001 already fired
  if (v < lo || v > hi) {
    rep.add("APE-S002", Severity::Warn,
            std::string(field) + " = " + units::format_eng(v) + " " + unit +
                " is outside the plausible range [" + units::format_eng(lo) +
                ", " + units::format_eng(hi) + "] " + unit +
                " (unit slip?)",
            where);
  }
}

}  // namespace

Report lint_spec(const est::OpAmpSpec& spec, const est::Process& proc) {
  ErrorContext scope("lint_spec(opamp)");
  Report rep;
  const std::string where = "opamp spec";
  check_positive(rep, "gain", spec.gain, where);
  check_positive(rep, "ugf_hz", spec.ugf_hz, where);
  check_positive(rep, "ibias", spec.ibias, where);
  check_positive(rep, "cload", spec.cload, where);
  check_positive(rep, "process vdd - vss", proc.vdd - proc.vss, where);
  check_positive(rep, "process lmin", proc.lmin, where);
  check_positive(rep, "process wmin", proc.wmin, where);

  check_range(rep, "gain", spec.gain, 1.0, 1e6, "", where);
  check_range(rep, "ugf_hz", spec.ugf_hz, 1e3, 1e11, "Hz", where);
  check_range(rep, "ibias", spec.ibias, 1e-12, 1e-2, "A", where);
  check_range(rep, "cload", spec.cload, 1e-15, 1e-6, "F", where);

  // Stacked-Vov headroom of the level-2/3 topology this spec maps to: the
  // supply must fit an NMOS and a PMOS threshold plus one overdrive per
  // stacked device (tail + input pair + mirror; the Wilson source adds a
  // cascode level).
  const int stacked = spec.source == est::CurrentSourceKind::Wilson ? 4 : 3;
  const double need = std::fabs(proc.nmos.vto) + std::fabs(proc.pmos.vto) +
                      stacked * kMinVov;
  const double have = proc.vdd - proc.vss;
  if (std::isfinite(have) && have > 0.0 && have < need) {
    rep.add("APE-S004", Severity::Error,
            "supply " + units::format_eng(have) + " V cannot fit the stacked "
                "Vth + Vov budget of the " +
                (stacked == 4 ? std::string("Wilson") : std::string("mirror")) +
                "-tail two-stage topology (needs >= " +
                units::format_eng(need) + " V)",
            where);
  }

  if (spec.zout > 0.0 && !spec.buffer) {
    rep.add("APE-S005", Severity::Note,
            "zout target is set but buffer = false; the target is ignored",
            where);
  }
  return rep;
}

Report lint_spec(const est::ModuleSpec& spec, const est::Process& proc) {
  ErrorContext scope("lint_spec(module)");
  Report rep;
  const std::string where = std::string("module spec (") +
                            est::to_string(spec.kind) + ")";
  check_positive(rep, "process vdd - vss", proc.vdd - proc.vss, where);
  using est::ModuleKind;
  switch (spec.kind) {
    case ModuleKind::AudioAmp:
    case ModuleKind::InvertingAmp:
    case ModuleKind::Adder:
      check_positive(rep, "gain", spec.gain, where);
      check_positive(rep, "bw_hz", spec.bw_hz, where);
      check_range(rep, "gain", spec.gain, 1.0, 1e4, "", where);
      check_range(rep, "bw_hz", spec.bw_hz, 1.0, 1e9, "Hz", where);
      break;
    case ModuleKind::SampleHold:
      check_positive(rep, "bw_hz", spec.bw_hz, where);
      check_positive(rep, "slew", spec.slew, where);
      break;
    case ModuleKind::LowPassFilter:
    case ModuleKind::BandPassFilter:
    case ModuleKind::Integrator:
      check_positive(rep, "f0_hz", spec.f0_hz, where);
      check_range(rep, "f0_hz", spec.f0_hz, 1.0, 1e9, "Hz", where);
      if (spec.kind != ModuleKind::Integrator &&
          (spec.order < 2 || spec.order > 8)) {
        rep.add("APE-S001", Severity::Error,
                "filter order " + std::to_string(spec.order) +
                    " is outside the supported range [2, 8]",
                where);
      }
      break;
    case ModuleKind::FlashAdc:
    case ModuleKind::R2RDac:
      if (spec.order < 1 || spec.order > 12) {
        rep.add("APE-S001", Severity::Error,
                "converter resolution " + std::to_string(spec.order) +
                    " bits is outside the supported range [1, 12]",
                where);
      }
      check_positive(rep, "delay_s", spec.delay_s, where);
      break;
    case ModuleKind::Comparator:
      check_positive(rep, "delay_s", spec.delay_s, where);
      break;
  }
  return rep;
}

Report lint_design(const est::OpAmpDesign& design, const est::Process& proc) {
  ErrorContext scope("lint_design(opamp)");
  Report rep;
  const std::string where = "opamp design";
  for (size_t i = 0; i < design.transistors.size(); ++i) {
    const est::TransistorDesign& t = design.transistors[i];
    const std::string role =
        i < design.roles.size() ? design.roles[i] : "xtor" + std::to_string(i);
    if (!std::isfinite(t.w) || t.w < proc.wmin || t.w > proc.wmax) {
      rep.add("APE-S003", Severity::Error,
              "transistor '" + role + "' W = " + units::format_eng(t.w) +
                  " m is outside the process range [" +
                  units::format_eng(proc.wmin) + ", " +
                  units::format_eng(proc.wmax) + "] m",
              where);
    }
    if (!std::isfinite(t.l) || t.l < proc.lmin) {
      rep.add("APE-S003", Severity::Error,
              "transistor '" + role + "' L = " + units::format_eng(t.l) +
                  " m is below the process minimum " +
                  units::format_eng(proc.lmin) + " m",
              where);
    }
  }
  return rep;
}

// --- lint-first integration -------------------------------------------------

void require_clean(const Report& report, const std::string& what) {
  if (report.ok()) return;
  throw LintError(what + ": lint found " + report.summary(), report);
}

std::function<void(const spice::Circuit&)> preflight() {
  return [](const spice::Circuit& ckt) {
    require_clean(lint_circuit(ckt), "lint-first('" + ckt.title() + "')");
  };
}

spice::Solution lint_first_dc(spice::Circuit& ckt, spice::DcOptions opts) {
  opts.preflight = preflight();
  return spice::dc_operating_point(ckt, opts);
}

}  // namespace ape::lint
