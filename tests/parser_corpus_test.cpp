// Netlist-parser corpus tests.
//
// ParserDigest pins what the parser builds from every committed example
// circuit and every paper testbench: a digest of the parsed Circuit (node
// and device names, device kinds and parameters, model cards, nodesets)
// and of its assembled DC and AC MNA values, hashed bit for bit, so one
// ulp of any parsed number changes it. The expectations were recorded
// before the parser was rewritten to parse without per-token allocation.
//
// ParserMutation feeds seeded mutants of the same corpus (byte flips,
// dropped tokens, duplicated lines, '+'-split lines) to the parser: every
// input must parse or throw an ape::Error subclass. Under -DAPE_SANITIZE
// it is the parser's memory / UB fuzz.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/spice/circuit.h"
#include "src/spice/devices.h"
#include "src/spice/parser.h"
#include "tests/netlist_corpus.h"

namespace ape::spice {
namespace {

using test::NamedNetlist;

/// The committed example circuits (examples/circuits/*.sp), by file name.
std::vector<NamedNetlist> example_circuits() {
  std::vector<NamedNetlist> out;
  const std::filesystem::path dir = std::filesystem::path(APE_SOURCE_DIR) / "examples/circuits";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".sp") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back({"examples/" + entry.path().filename().string(), text.str(), false});
  }
  std::sort(out.begin(), out.end(),
            [](const NamedNetlist& a, const NamedNetlist& b) { return a.name < b.name; });
  return out;
}

std::vector<NamedNetlist> corpus() {
  std::vector<NamedNetlist> out = example_circuits();
  for (NamedNetlist& tb : test::paper_testbenches()) out.push_back(std::move(tb));
  return out;
}

/// FNV-1a over the exact bytes of what it is fed.
class Digest {
public:
  void bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void str(const std::string& s) {
    num(static_cast<int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void num(int64_t v) { bytes(&v, sizeof v); }
  void num(double v) { bytes(&v, sizeof v); }
  void num(std::complex<double> v) {
    num(v.real());
    num(v.imag());
  }
  uint64_t value() const { return h_; }

private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_wave(Digest& d, const Waveform& w) {
  d.num(static_cast<int64_t>(w.kind));
  for (double v : {w.dc, w.ac_mag, w.ac_phase_deg, w.v1, w.v2, w.td, w.tr, w.tf, w.pw, w.per,
                   w.sin_vo, w.sin_va, w.sin_freq, w.sin_td, w.sin_theta}) {
    d.num(v);
  }
  d.num(static_cast<int64_t>(w.pwl.size()));
  for (const auto& [t, v] : w.pwl) {
    d.num(t);
    d.num(v);
  }
}

void digest_model(Digest& d, const MosModelCard& m) {
  d.str(m.name);
  d.num(static_cast<int64_t>(m.type));
  d.num(static_cast<int64_t>(m.level));
  for (double v : {m.vto,  m.kp,    m.gamma, m.phi,   m.lambda, m.u0,  m.tox,   m.nsub,
                   m.ld,   m.ucrit, m.uexp,  m.vmax,  m.theta,  m.eta, m.kappa, m.xj,
                   m.vfb,  m.k1,    m.k2,    m.muz,   m.u0v,    m.u1,  m.cgso,  m.cgdo,
                   m.cgbo, m.cj,    m.mj,    m.cjsw,  m.mjsw,   m.pb,  m.js,    m.kf,
                   m.af,   m.rsh,   m.lref}) {
    d.num(v);
  }
}

/// Digest of everything parse_netlist(text) builds. The MNA systems are
/// stamped at a fixed non-trivial candidate (every MOSFET conducts, so
/// W, L and the model numbers reach the values) and the AC one at that
/// operating point, so the junction areas and perimeters reach it too.
uint64_t circuit_digest(const std::string& text) {
  Circuit ckt = parse_netlist(text);
  Digest d;
  d.str(ckt.title());
  d.num(static_cast<int64_t>(ckt.num_nodes()));
  for (size_t i = 0; i < ckt.num_nodes(); ++i) d.str(ckt.node_name(static_cast<NodeId>(i)));
  for (const auto& dev : ckt.devices()) {
    d.str(dev->name());
    if (const auto* r = dynamic_cast<const Resistor*>(dev.get())) {
      d.str("R");
      d.num(r->resistance());
    } else if (const auto* c = dynamic_cast<const Capacitor*>(dev.get())) {
      d.str("C");
      d.num(c->capacitance());
    } else if (const auto* l = dynamic_cast<const Inductor*>(dev.get())) {
      d.str("L");
      d.num(l->inductance());
    } else if (const auto* v = dynamic_cast<const VSource*>(dev.get())) {
      d.str("V");
      digest_wave(d, v->wave());
    } else if (const auto* is = dynamic_cast<const ISource*>(dev.get())) {
      d.str("I");
      digest_wave(d, is->wave());
    } else if (const auto* m = dynamic_cast<const Mosfet*>(dev.get())) {
      d.str("M");
      d.num(m->width());
      d.num(m->length());
      digest_model(d, m->model());
    } else if (dynamic_cast<const Vcvs*>(dev.get()) != nullptr) {
      d.str("E");
    } else if (dynamic_cast<const Vccs*>(dev.get()) != nullptr) {
      d.str("G");
    } else if (dynamic_cast<const Cccs*>(dev.get()) != nullptr) {
      d.str("F");
    } else if (dynamic_cast<const Ccvs*>(dev.get()) != nullptr) {
      d.str("H");
    } else if (dynamic_cast<const Diode*>(dev.get()) != nullptr) {
      d.str("D");
    } else {
      d.str("?");
    }
  }
  for (const Circuit::NodeSet& ns : ckt.nodesets()) {
    d.num(static_cast<int64_t>(ns.node));
    d.num(ns.volts);
  }

  ckt.finalize();
  const size_t dim = ckt.dim();
  Solution x;
  x.x.resize(dim);
  for (size_t i = 0; i < dim; ++i) x.x[i] = 0.375 + 0.5 * static_cast<double>(i % 7);
  MnaReal dc(dim);
  for (const auto& dev : ckt.devices()) dev->stamp_dc(dc, x, 1.0);
  for (size_t i = 0; i < dim * dim; ++i) d.num(dc.matrix().data()[i]);
  for (double v : dc.rhs()) d.num(v);
  for (const auto& dev : ckt.devices()) dev->save_op(x);
  MnaComplex ac(dim);
  for (const auto& dev : ckt.devices()) dev->stamp_ac(ac, 2.0 * M_PI * 1.25e4);
  for (size_t i = 0; i < dim * dim; ++i) d.num(ac.matrix().data()[i]);
  for (const auto& v : ac.rhs()) d.num(v);
  return d.value();
}

/// Digests recorded on the parser as it was before it stopped allocating
/// per token (the estimator's testbenches at that revision).
const std::map<std::string, uint64_t>& expected_digests() {
  static const std::map<std::string, uint64_t> kExpected = {
      {"examples/extreme_spread_divider.sp", 0x9cc006ba3ec26adeull},
      {"examples/noise_divider.sp", 0x3b1ed6e457af6636ull},
      {"examples/rc_lowpass.sp", 0x36f8f900e7b62d75ull},
      {"examples/two_pole_ladder.sp", 0x59c6fe3848f2a0d5ull},
      {"examples/two_stage_amp.sp", 0x225f2ae3ff98b868ull},
      {"examples/two_stage_open_loop_seeded.sp", 0x3081727af3b85098ull},
      {"oa0/open_loop", 0xcafd917e894c5091ull},
      {"oa0/common_mode", 0xef2acc1fcf5fa8ecull},
      {"oa0/zout_probe", 0xc2deea79001ce797ull},
      {"oa0/unity_step", 0x9db44a42e7629189ull},
      {"oa1/open_loop", 0xce02280c3145b5faull},
      {"oa1/common_mode", 0xddee17e48205ae6full},
      {"oa1/zout_probe", 0x7ad587e4babcf549ull},
      {"oa1/unity_step", 0x4e87641795f8db89ull},
      {"oa2/open_loop", 0x4feefd08e66e3847ull},
      {"oa2/common_mode", 0xcca20d24ac6f4eeull},
      {"oa2/zout_probe", 0x86f418bfe846e783ull},
      {"oa2/unity_step", 0x28ec11ee616e8896ull},
      {"oa3/open_loop", 0xec77601bf7b7bcdaull},
      {"oa3/common_mode", 0x7b511b650efd995full},
      {"oa3/zout_probe", 0x27336f8975676640ull},
      {"oa3/unity_step", 0xce4fabcfcba1f052ull},
      {"oa4/open_loop", 0x7eac74fc996a41e8ull},
      {"oa4/common_mode", 0xe397f7916acb51a1ull},
      {"oa4/zout_probe", 0x5986dfd36681d578ull},
      {"oa4/unity_step", 0xb4bb74517c10018ull},
      {"oa5/open_loop", 0x89368a3c78b7a9faull},
      {"oa5/common_mode", 0xacbc38b6237dc767ull},
      {"oa5/zout_probe", 0xe2817bddf13609aeull},
      {"oa5/unity_step", 0x6c62dcd992a7f064ull},
      {"oa6/open_loop", 0x409c0e7898a3b460ull},
      {"oa6/common_mode", 0xd54a167a34aa3fa1ull},
      {"oa6/zout_probe", 0x4c7b6149bd1a2a83ull},
      {"oa6/unity_step", 0x27f34f1c9fc47891ull},
      {"oa7/open_loop", 0x13656faf88db8455ull},
      {"oa7/common_mode", 0xe94e3d5b3d3964f5ull},
      {"oa7/zout_probe", 0xe9ecb069c17069deull},
      {"oa7/unity_step", 0x5a4406326d45f3eaull},
      {"oa8/open_loop", 0xc69fa90eaafe5386ull},
      {"oa8/common_mode", 0x2f893fffde9da26ull},
      {"oa8/zout_probe", 0x722200218c12c6a6ull},
      {"oa8/unity_step", 0x5c4920ad2da04610ull},
      {"oa9/open_loop", 0x5af97c32cf1b92full},
      {"oa9/common_mode", 0x9f3cc95c6af67b43ull},
      {"oa9/zout_probe", 0x1af78b4b3afa0e06ull},
      {"oa9/unity_step", 0x7f1e92451dc51a5cull},
      {"module/s&h", 0x92e64e46d9d32835ull},
      {"module/amp", 0x4da2202aaee81117ull},
      {"module/adc", 0x5b40e616d5462ull},
      {"module/lpf", 0x2db5e6160463bd25ull},
      {"module/bpf", 0xbe9a98d0d2597449ull},
  };
  return kExpected;
}

TEST(ParserDigest, CorpusParsesToTheRecordedCircuits) {
  const std::vector<NamedNetlist> all = corpus();
  ASSERT_GE(all.size(), 45u);
  const auto& expected = expected_digests();
  for (const NamedNetlist& n : all) {
    SCOPED_TRACE(n.name);
    const uint64_t got = circuit_digest(n.text);
    const auto it = expected.find(n.name);
    if (it == expected.end()) {
      ADD_FAILURE() << "no recorded digest: {\"" << n.name << "\", 0x" << std::hex << got
                    << "ull},";
      continue;
    }
    EXPECT_EQ(got, it->second) << std::hex << "got 0x" << got;
  }
  EXPECT_EQ(expected.size(), all.size());
}

TEST(ParserDigest, DigestSeesOneUlp) {
  // The digest's own sensitivity: moving one resistor, one W or one
  // model number up by one ulp changes it.
  const std::string base = "ulp\nV1 a 0 DC 1\nR1 a b 1000\nM1 b a 0 0 n W=1e-5 L=2e-6\n"
                           ".model n nmos (kp=2e-5)\n";
  const uint64_t d0 = circuit_digest(base);
  const std::pair<const char*, const char*> kMoves[] = {
      {"1000", "1000.0000000000001"},
      {"1e-5", "1.0000000000000003e-5"},
      {"2e-5", "2.0000000000000005e-5"},
  };
  for (const auto& [from, to] : kMoves) {
    std::string text = base;
    text.replace(text.find(from), std::strlen(from), to);
    EXPECT_NE(circuit_digest(text), d0) << to;
  }
}

/// Split \p text into lines (without their '\n').
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      if (start < text.size()) lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

/// One seeded mutant of \p text. Kinds: 0 flips the bits of one byte
/// (any value, NUL and high bytes included), 1 drops one
/// whitespace-separated token of one line, 2 duplicates one line, 3 splits
/// one line at a space into a line and a '+' continuation.
std::string mutate(const std::string& text, int kind, std::mt19937_64& gen) {
  if (text.empty()) return text;
  if (kind == 0) {
    std::string out = text;
    out[gen() % out.size()] ^= static_cast<char>(1 + gen() % 255);
    return out;
  }
  std::vector<std::string> lines = split_lines(text);
  if (lines.empty()) return text;
  const size_t li = gen() % lines.size();
  std::string& line = lines[li];
  if (kind == 1) {
    std::vector<std::pair<size_t, size_t>> toks;  // [begin, end)
    for (size_t i = 0; i < line.size();) {
      while (i < line.size() && line[i] == ' ') ++i;
      const size_t b = i;
      while (i < line.size() && line[i] != ' ') ++i;
      if (i > b) toks.emplace_back(b, i);
    }
    if (!toks.empty()) {
      const auto [b, e] = toks[gen() % toks.size()];
      line.erase(b, e - b);
    }
  } else if (kind == 2) {
    lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(li), line);
  } else {
    std::vector<size_t> spaces;
    for (size_t i = 0; i < line.size(); ++i) {
      if (line[i] == ' ') spaces.push_back(i);
    }
    if (!spaces.empty()) {
      const size_t at = spaces[gen() % spaces.size()];
      const std::string tail = "+" + line.substr(at);
      line.erase(at);
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(li) + 1, tail);
    }
  }
  return join_lines(lines);
}

TEST(ParserMutation, EveryMutantParsesOrThrowsAnApeError) {
  constexpr int kPerKind = 25;
  std::mt19937_64 gen(20261018);
  long parsed = 0, rejected = 0;
  for (const NamedNetlist& n : corpus()) {
    for (int kind = 0; kind < 4; ++kind) {
      for (int rep = 0; rep < kPerKind; ++rep) {
        const std::string mutant = mutate(n.text, kind, gen);
        try {
          Circuit ckt = parse_netlist(mutant);
          ++parsed;
        } catch (const Error&) {
          ++rejected;
        } catch (const std::exception& e) {
          ADD_FAILURE() << n.name << " kind " << kind << ": non-ape exception '" << e.what()
                        << "' from:\n" << mutant;
        }
      }
    }
  }
  // Both outcomes occur, so the mutants reach past the first line.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

TEST(ParserMutation, ModelCardMutantsParseOrThrowAnApeError) {
  // parse_model_card on its own, over every .model line of the corpus.
  std::mt19937_64 gen(7);
  long cards = 0;
  for (const NamedNetlist& n : corpus()) {
    for (const std::string& line : split_lines(n.text)) {
      if (line.rfind(".model", 0) != 0 && line.rfind(".MODEL", 0) != 0) continue;
      ++cards;
      for (int rep = 0; rep < 8; ++rep) {
        const std::string mutant = mutate(line, rep % 2 == 0 ? 0 : 1, gen);
        try {
          (void)parse_model_card(mutant);
        } catch (const Error&) {
        } catch (const std::exception& e) {
          ADD_FAILURE() << "non-ape exception '" << e.what() << "' from: " << mutant;
        }
      }
    }
  }
  EXPECT_GT(cards, 40);
}

}  // namespace
}  // namespace ape::spice
