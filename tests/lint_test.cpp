/// Static analyzer tests (DESIGN.md section 9): one deliberately broken
/// circuit per structural rule, the spec/design sanity rules, and the
/// "clean designs lint clean" guarantees for the shipped testbenches.

#include "src/lint/lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/lint/prove.h"
#include "src/runtime/batch.h"
#include "src/spice/analysis.h"
#include "src/stat/corners.h"
#include "src/spice/devices.h"
#include "src/spice/parser.h"
#include "src/util/json.h"

namespace ape::lint {
namespace {

// --- structural rules, one broken circuit each -----------------------------

TEST(LintCircuit, FloatingNodeWarns) {
  const Report rep = lint_netlist(R"(floating
V1 in 0 DC 1
R1 in out 1k
R2 out 0 1k
R3 out stub 1k
)");
  ASSERT_TRUE(rep.has("APE-L001"));
  EXPECT_EQ(rep.first("APE-L001")->severity, Severity::Warn);
  EXPECT_NE(rep.first("APE-L001")->message.find("stub"), std::string::npos);
  EXPECT_TRUE(rep.ok()) << "a dangling node is a warning, not an error";
}

TEST(LintCircuit, VoltageSourceLoopIsError) {
  const Report rep = lint_netlist(R"(vloop
V1 a 0 DC 5
V2 a 0 DC 3
R1 a 0 1k
)");
  ASSERT_TRUE(rep.has("APE-L002"));
  EXPECT_EQ(rep.first("APE-L002")->severity, Severity::Error);
  EXPECT_FALSE(rep.ok());
}

TEST(LintCircuit, InductorClosesVoltageLoop) {
  // V - L - ground is a DC short across the source: two voltage-defined
  // branches around one mesh.
  const Report rep = lint_netlist(R"(vl loop
V1 a 0 DC 1
L1 a 0 1m
)");
  EXPECT_TRUE(rep.has("APE-L002"));
}

TEST(LintCircuit, CurrentSourceCutsetIsError) {
  const Report rep = lint_netlist(R"(cutset
V1 in 0 DC 1
R1 in 0 1k
I1 0 iso DC 1u
C1 iso 0 1p
)");
  ASSERT_TRUE(rep.has("APE-L003"));
  EXPECT_EQ(rep.first("APE-L003")->severity, Severity::Error);
  EXPECT_NE(rep.first("APE-L003")->message.find("I1"), std::string::npos);
}

TEST(LintCircuit, NoGroundPathIsError) {
  // Node held up only by capacitors: no current source involved, so the
  // island classifies as APE-L004 rather than a cutset.
  const Report rep = lint_netlist(R"(capisland
V1 in 0 DC 1
R1 in 0 1k
C1 in mid 1p
C2 mid 0 1p
)");
  ASSERT_TRUE(rep.has("APE-L004"));
  EXPECT_EQ(rep.first("APE-L004")->severity, Severity::Error);
  EXPECT_FALSE(rep.has("APE-L003"));
}

TEST(LintCircuit, SelfLoopIsError) {
  // The parser rejects self-loops at parse time, so build the circuit
  // programmatically to exercise the analyzer's own rule.
  spice::Circuit ckt("selfloop");
  const spice::NodeId a = ckt.node("a");
  ckt.add<spice::Resistor>("r1", a, a, 1e3);
  ckt.add<spice::VSource>("v1", a, spice::kGround, spice::Waveform{});
  const Report rep = lint_circuit(ckt);
  ASSERT_TRUE(rep.has("APE-L005"));
  EXPECT_EQ(rep.first("APE-L005")->severity, Severity::Error);
}

TEST(LintCircuit, DuplicateDeviceNameIsError) {
  spice::Circuit ckt("dup");
  const spice::NodeId a = ckt.node("a");
  ckt.add<spice::Resistor>("r1", a, spice::kGround, 1e3);
  ckt.add<spice::Resistor>("R1", a, spice::kGround, 2e3);
  ckt.add<spice::VSource>("v1", a, spice::kGround, spice::Waveform{});
  const Report rep = lint_circuit(ckt);
  ASSERT_TRUE(rep.has("APE-L006"));
  EXPECT_EQ(rep.first("APE-L006")->severity, Severity::Error);
}

TEST(LintCircuit, EmptyCircuitWarns) {
  spice::Circuit ckt("empty");
  const Report rep = lint_circuit(ckt);
  EXPECT_TRUE(rep.has("APE-L007"));
  EXPECT_TRUE(rep.ok());
}

TEST(LintNetlist, CaseAliasedNodeGetsNote) {
  const Report rep = lint_netlist(R"(alias
V1 Out 0 DC 1
R1 out 0 1k
)");
  ASSERT_TRUE(rep.has("APE-L008"));
  EXPECT_EQ(rep.first("APE-L008")->severity, Severity::Note);
  EXPECT_TRUE(rep.ok());
}

TEST(LintNetlist, AliasBehindParserPunctuationGetsNote) {
  // The parser's tokenizer also splits on '(', ')', '=' and ',', so
  // "(Out)" names node "Out" and is folded into "out".
  const Report rep = lint_netlist(R"(paren alias
V1 (Out) 0 DC 1
R1 out 0 1k
)");
  ASSERT_TRUE(rep.has("APE-L008"));
  EXPECT_NE(rep.first("APE-L008")->message.find("'Out', 'out'"),
            std::string::npos)
      << rep.first("APE-L008")->message;
  EXPECT_TRUE(rep.ok());
}

TEST(LintNetlist, ParseFailureIsSingleFinding) {
  const Report rep = lint_netlist("broken\nQ1 a b c bjt\n");
  ASSERT_TRUE(rep.has("APE-P001"));
  EXPECT_EQ(rep.errors(), 1);
}

TEST(LintCircuit, MosfetGateNeedsNoDcPathButIsCounted) {
  // A MOS gate driven only through a capacitor *is* a missing-ground-path
  // defect; a gate driven by a source is fine. Both gates have degree >= 2
  // so neither is "dangling".
  const Report bad = lint_netlist(R"(floating gate
.model modn nmos (level=1 vto=0.8 kp=80u)
Vdd d 0 DC 5
C1 d g 1p
M1 d g 0 0 modn w=10u l=1u
)");
  EXPECT_TRUE(bad.has("APE-L004"));

  const Report good = lint_netlist(R"(driven gate
.model modn nmos (level=1 vto=0.8 kp=80u)
Vdd d 0 DC 5
Vg g 0 DC 2
M1 d g 0 0 modn w=10u l=1u
)");
  EXPECT_TRUE(good.ok()) << json::dump(good);
}

// --- spec / design rules ----------------------------------------------------

TEST(LintSpec, NonPositiveSpecValueIsError) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.cload = -1e-12;
  const Report rep = lint_spec(spec, proc);
  ASSERT_TRUE(rep.has("APE-S001"));
  EXPECT_FALSE(rep.ok());
}

TEST(LintSpec, ImplausibleMagnitudeWarns) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.ugf_hz = 1e13;  // 10 THz in a 1.2 um process: a unit slip
  const Report rep = lint_spec(spec, proc);
  ASSERT_TRUE(rep.has("APE-S002"));
  EXPECT_EQ(rep.first("APE-S002")->severity, Severity::Warn);
  EXPECT_TRUE(rep.ok());
}

TEST(LintSpec, HeadroomInfeasibleSupplyIsError) {
  est::Process proc = est::Process::default_1u2();
  proc.vdd = 1.8;  // |vto_n| + |vto_p| + 3 x 0.15 = 2.05 V > 1.8 V
  est::OpAmpSpec spec;
  const Report rep = lint_spec(spec, proc);
  ASSERT_TRUE(rep.has("APE-S004"));
  EXPECT_EQ(rep.first("APE-S004")->severity, Severity::Error);

  // The default 5 V supply fits comfortably.
  EXPECT_FALSE(lint_spec(spec, est::Process::default_1u2()).has("APE-S004"));
}

TEST(LintSpec, ZoutWithoutBufferGetsNote) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.zout = 500.0;
  spec.buffer = false;
  const Report rep = lint_spec(spec, proc);
  EXPECT_TRUE(rep.has("APE-S005"));
  EXPECT_TRUE(rep.ok());
}

TEST(LintSpec, ModuleOrderOutOfRangeIsError) {
  const est::Process proc = est::Process::default_1u2();
  est::ModuleSpec spec;
  spec.kind = est::ModuleKind::FlashAdc;
  spec.order = 0;
  EXPECT_TRUE(lint_spec(spec, proc).has("APE-S001"));

  spec.kind = est::ModuleKind::LowPassFilter;
  spec.order = 9;
  EXPECT_TRUE(lint_spec(spec, proc).has("APE-S001"));
}

TEST(LintDesign, WidthOutsideProcessBoundsIsError) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpDesign design;
  est::TransistorDesign t;
  t.w = proc.wmin / 2.0;
  t.l = proc.lmin;
  design.transistors.push_back(t);
  design.roles.push_back("m1_input");
  const Report rep = lint_design(design, proc);
  ASSERT_TRUE(rep.has("APE-S003"));
  EXPECT_NE(rep.first("APE-S003")->message.find("m1_input"), std::string::npos);
}

// --- testbench rules --------------------------------------------------------

TEST(LintTestbench, MissingProbeAndBadSourceRef) {
  est::Testbench tb;
  tb.netlist = "tb\nV1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n";
  tb.out_node = "nosuch";
  tb.in_source = "vmissing";
  tb.supply_source = "r1";  // exists, but is not a voltage source
  const Report rep = lint_testbench(tb);
  EXPECT_TRUE(rep.has("APE-T001"));
  EXPECT_TRUE(rep.has("APE-T002"));
  EXPECT_FALSE(rep.ok());
}

// --- clean designs lint clean ----------------------------------------------

TEST(LintClean, TwoStageOpampTestbenchesLintClean) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec spec;
  spec.gain = 400.0;
  spec.ugf_hz = 2e6;
  spec.source = est::CurrentSourceKind::Wilson;
  const est::OpAmpDesign design = est::OpAmpEstimator(proc).estimate(spec);

  for (const auto mode :
       {est::OpAmpTb::OpenLoop, est::OpAmpTb::CommonMode,
        est::OpAmpTb::ZoutProbe, est::OpAmpTb::UnityStep}) {
    const Report rep = lint_testbench(design.testbench(proc, mode));
    EXPECT_EQ(rep.errors(), 0) << json::dump(rep);
    EXPECT_EQ(rep.warnings(), 0) << json::dump(rep);
  }
  EXPECT_TRUE(lint_spec(spec, proc).ok());
  EXPECT_TRUE(lint_design(design, proc).ok());
}

TEST(LintClean, ModuleTestbenchLintsClean) {
  const est::Process proc = est::Process::default_1u2();
  est::ModuleSpec spec;
  spec.kind = est::ModuleKind::LowPassFilter;
  spec.f0_hz = 10e3;
  spec.order = 2;
  const est::ModuleDesign design = est::ModuleEstimator(proc).estimate(spec);
  const Report rep = lint_testbench(design.testbench(proc));
  EXPECT_EQ(rep.errors(), 0) << json::dump(rep);
}

// --- corner invariance ------------------------------------------------------
// The APE-L/P/S/T rules are structural: their verdicts depend on the
// netlist/spec shape, not on the model skews a PVT corner applies. For
// every rule a corner-realized card can reach, the (rule, severity,
// where) verdict sequence must be identical across tm/wp/ws/wo/wz —
// only the feasibility family (APE-F) is allowed to see skews.

std::vector<std::string> verdict_keys(const Report& rep) {
  std::vector<std::string> keys;
  for (const auto& f : rep.findings) {
    keys.push_back(f.rule + '/' + to_string(f.severity) + '/' + f.where);
  }
  return keys;
}

TEST(LintCornerInvariance, SpecAndTestbenchVerdictsMatchAcrossSkewCards) {
  const est::Process base = est::Process::default_1u2();
  const std::vector<est::Process> cards =
      stat::CornerSet::parse("tm,wp,ws,wo,wz").realize(base);
  ASSERT_EQ(cards.size(), 5u);

  // A battery covering every proc-consuming rule family: clean spec,
  // bad value (S001), unit slip (S002), zout note (S005), W/L bounds
  // (S003), module order (S001), and a dirty testbench (T001/T002).
  std::vector<est::OpAmpSpec> specs(4);
  specs[1].cload = -1e-12;
  specs[2].ugf_hz = 1e13;
  specs[3].zout = 500.0;
  est::ModuleSpec module_spec;
  module_spec.kind = est::ModuleKind::FlashAdc;
  module_spec.order = 0;
  est::OpAmpDesign design;
  est::TransistorDesign t;
  t.w = base.wmin / 2.0;
  t.l = base.lmin;
  design.transistors.push_back(t);
  design.roles.push_back("m1_input");
  est::Testbench tb;
  tb.netlist = "tb\nV1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n";
  tb.out_node = "nosuch";
  tb.in_source = "vmissing";

  std::vector<std::vector<std::string>> baseline;
  for (const est::OpAmpSpec& s : specs) {
    baseline.push_back(verdict_keys(lint_spec(s, cards[0])));
  }
  baseline.push_back(verdict_keys(lint_spec(module_spec, cards[0])));
  baseline.push_back(verdict_keys(lint_design(design, cards[0])));
  baseline.push_back(verdict_keys(lint_testbench(tb)));
  // The battery must actually trip rules for the invariance to bite.
  EXPECT_TRUE(lint_spec(specs[1], cards[0]).has("APE-S001"));
  EXPECT_TRUE(lint_spec(specs[2], cards[0]).has("APE-S002"));
  EXPECT_TRUE(lint_spec(specs[3], cards[0]).has("APE-S005"));
  EXPECT_TRUE(lint_design(design, cards[0]).has("APE-S003"));

  for (size_t c = 1; c < cards.size(); ++c) {
    size_t k = 0;
    for (const est::OpAmpSpec& s : specs) {
      EXPECT_EQ(verdict_keys(lint_spec(s, cards[c])), baseline[k++])
          << "spec verdict drifted at corner " << cards[c].variant;
    }
    EXPECT_EQ(verdict_keys(lint_spec(module_spec, cards[c])), baseline[k++])
        << cards[c].variant;
    EXPECT_EQ(verdict_keys(lint_design(design, cards[c])), baseline[k++])
        << cards[c].variant;
    EXPECT_EQ(verdict_keys(lint_testbench(tb)), baseline[k++])
        << cards[c].variant;
  }
}

// APE-F is the one family that *should* consult the corner card — but
// its verdict on clearly-sided specs must still agree at every skew:
// a budget below minimum geometry is infeasible everywhere, a sane
// default spec feasible everywhere, and the proof names its corner.
TEST(LintCornerInvariance, ApeFVerdictsPerCorner) {
  const est::Process base = est::Process::default_1u2();
  est::OpAmpSpec impossible;
  impossible.area_budget = 1e-11;  // < 8 devices at minimum geometry
  const est::OpAmpSpec sane;
  for (const est::Process& card :
       stat::CornerSet::parse("tm,wp,ws,wo,wz").realize(base)) {
    const FeasibilityProof bad = prove_opamp_feasibility(card, impossible);
    EXPECT_TRUE(bad.infeasible) << card.variant;
    ASSERT_TRUE(bad.report.has("APE-F001")) << card.variant;
    EXPECT_EQ(bad.report.first("APE-F001")->severity, Severity::Error);
    EXPECT_EQ(bad.corner, card.variant);

    const FeasibilityProof good = prove_opamp_feasibility(card, sane);
    EXPECT_FALSE(good.infeasible) << card.variant;
    EXPECT_EQ(good.report.errors(), 0) << card.variant;
  }
}

// --- lint-first integration -------------------------------------------------

TEST(LintFirst, DcPreflightThrowsLintErrorOnSingularTopology) {
  spice::Circuit ckt = spice::parse_netlist(R"(cutset
I1 0 iso DC 1u
C1 iso 0 1p
)");
  bool threw = false;
  try {
    lint_first_dc(ckt);
  } catch (const LintError& e) {
    threw = true;
    EXPECT_TRUE(e.report().has("APE-L003"));
    EXPECT_NE(std::string(e.what()).find("APE-L003"), std::string::npos);
  }
  EXPECT_TRUE(threw);
}

TEST(LintFirst, CleanCircuitSolvesThroughPreflight) {
  spice::Circuit ckt = spice::parse_netlist(R"(divider
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 3k
)");
  const spice::Solution sol = lint_first_dc(ckt);
  EXPECT_NEAR(spice::node_voltage(ckt, sol, "mid"), 7.5, 1e-6);
}

TEST(LintFirst, BatchGateFailsOnlyTheDirtyJob) {
  const est::Process proc = est::Process::default_1u2();
  est::OpAmpSpec good;
  est::OpAmpSpec bad;
  bad.cload = -1.0;
  runtime::BatchOptions opts;
  opts.threads = 1;
  opts.lint_first = true;
  const auto result = runtime::estimate_opamp_batch(proc, {good, bad}, opts);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_TRUE(result.jobs[0].ok);
  EXPECT_FALSE(result.jobs[1].ok);
  EXPECT_NE(result.jobs[1].error.find("APE-S001"), std::string::npos);
  // The per-job provenance frame is stamped on the captured lint error.
  EXPECT_NE(result.jobs[1].error.find("opamp_estimate[1]"), std::string::npos);
}

// --- report plumbing --------------------------------------------------------

TEST(LintReport, JsonAndSummaryCarryTheFindings) {
  Report rep;
  rep.add("APE-L002", Severity::Error, "loop of \"v1\"", "ckt");
  rep.add("APE-L001", Severity::Warn, "dangling", "ckt");
  EXPECT_EQ(rep.errors(), 1);
  EXPECT_EQ(rep.warnings(), 1);
  EXPECT_FALSE(rep.ok());

  const std::string text = json::dump(rep);
  EXPECT_NE(text.find("\"rule\":\"APE-L002\""), std::string::npos);
  EXPECT_NE(text.find("\\\"v1\\\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"errors\":1"), std::string::npos);

  const std::string sum = rep.summary();
  EXPECT_NE(sum.find("1 error"), std::string::npos);
  EXPECT_NE(sum.find("APE-L002"), std::string::npos);

  Report clean;
  EXPECT_EQ(clean.summary(), "clean");
  EXPECT_NO_THROW(require_clean(clean, "noop"));
  EXPECT_THROW(require_clean(rep, "gate"), LintError);
}

}  // namespace
}  // namespace ape::lint
