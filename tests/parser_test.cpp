#include "src/spice/parser.h"

#include <gtest/gtest.h>

#include "src/spice/analysis.h"
#include "src/spice/devices.h"

namespace ape::spice {
namespace {

TEST(Parser, DividerNetlistSolves) {
  const char* net = R"(simple divider
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 3k
.end
)";
  Circuit ckt = parse_netlist(net);
  EXPECT_EQ(ckt.title(), "simple divider");
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "mid"), 7.5, 1e-6);
}

TEST(Parser, BareDcValueAndCaseInsensitivity) {
  const char* net = R"(case test
v1 IN 0 5
r1 in OUT 2K
R2 out 0 2k
)";
  Circuit ckt = parse_netlist(net);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "out"), 2.5, 1e-6);
}

TEST(Parser, ContinuationLines) {
  const char* net = R"(continuation
V1 in 0
+ DC 4
R1 in 0 1k
)";
  Circuit ckt = parse_netlist(net);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "in"), 4.0, 1e-9);
}

TEST(Parser, CommentsAndInlineComments) {
  const char* net = R"(comments
* a full-line comment
V1 in 0 DC 1 $ inline comment
R1 in 0 1k ; another style
)";
  Circuit ckt = parse_netlist(net);
  EXPECT_NE(ckt.find("r1"), nullptr);
  EXPECT_NE(ckt.find("V1"), nullptr);
}

TEST(Parser, ModelCardAndMosfet) {
  const char* net = R"(mos test
.model modn nmos (level=1 vto=0.8 kp=80u lambda=0.02 gamma=0.4 phi=0.6)
Vdd vdd 0 DC 5
Vg g 0 DC 2
Rd vdd d 10k
M1 d g 0 0 modn W=10u L=2u
)";
  Circuit ckt = parse_netlist(net);
  const auto& m1 = ckt.find_as<Mosfet>("m1");
  EXPECT_DOUBLE_EQ(m1.width(), 10e-6);
  EXPECT_DOUBLE_EQ(m1.length(), 2e-6);
  EXPECT_EQ(m1.model().level, 1);
  EXPECT_DOUBLE_EQ(m1.model().kp, 80e-6);
  const auto sol = dc_operating_point(ckt);
  EXPECT_LT(node_voltage(ckt, sol, "d"), 5.0);
}

TEST(Parser, ModelDefinedAfterUse) {
  const char* net = R"(order independence
Vg g 0 DC 2
M1 d g 0 0 late W=5u L=1u
Rd d 0 1k
.model late nmos (vto=0.7 kp=50u)
)";
  Circuit ckt = parse_netlist(net);
  EXPECT_NO_THROW(ckt.find_as<Mosfet>("m1"));
}

TEST(Parser, PmosModelDefaultsNegativeVto) {
  const auto m = parse_model_card(".model mp pmos (kp=28u)");
  EXPECT_EQ(m.type, MosType::Pmos);
  EXPECT_DOUBLE_EQ(m.vto, -0.8);
}

TEST(Parser, PulseSinPwlSources) {
  const char* net = R"(sources
V1 a 0 PULSE(0 5 1u 2n 2n 1m 2m)
V2 b 0 SIN(2.5 0.1 10k)
V3 c 0 PWL(0 0 1m 1 2m 0)
V4 d 0 DC 1 AC 1 90
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
R4 d 0 1k
)";
  Circuit ckt = parse_netlist(net);
  const auto& v1 = ckt.find_as<VSource>("v1");
  EXPECT_EQ(v1.wave().kind, Waveform::Kind::Pulse);
  EXPECT_DOUBLE_EQ(v1.wave().value(0.0), 0.0);
  EXPECT_NEAR(v1.wave().value(1.1e-6), 5.0, 1e-9);
  const auto& v2 = ckt.find_as<VSource>("v2");
  EXPECT_NEAR(v2.wave().value(0.0), 2.5, 1e-12);
  const auto& v3 = ckt.find_as<VSource>("v3");
  EXPECT_NEAR(v3.wave().value(0.5e-3), 0.5, 1e-9);
  const auto& v4 = ckt.find_as<VSource>("v4");
  EXPECT_DOUBLE_EQ(v4.wave().ac_mag, 1.0);
  EXPECT_DOUBLE_EQ(v4.wave().ac_phase_deg, 90.0);
}

TEST(Parser, ControlledSources) {
  const char* net = R"(controlled
V1 in 0 DC 1
E1 e 0 in 0 10
G1 gout 0 in 0 1m
Rg gout 0 1k
Vm m 0 DC 0
Rm in m 100
F1 f 0 Vm 2
Rf f 0 50
H1 h 0 Vm 1000
Rh h 0 1k
Re e 0 1k
)";
  Circuit ckt = parse_netlist(net);
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "e"), 10.0, 1e-6);
  EXPECT_NEAR(node_voltage(ckt, sol, "gout"), -1.0, 1e-6);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_netlist("title\nR1 a 0\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsUnknownElement) {
  EXPECT_THROW(parse_netlist("t\nQ1 a b c qmod\n"), ParseError);
}

TEST(Parser, RejectsUnknownModelParameter) {
  EXPECT_THROW(parse_model_card(".model bad nmos (zzz=1)"), ParseError);
}

TEST(Parser, RejectsUnsupportedLevel) {
  EXPECT_THROW(parse_model_card(".model bad nmos (level=49)"), ParseError);
}

TEST(Parser, RejectsUnknownCard) {
  EXPECT_THROW(parse_netlist("t\n.tran 1n 1u\n"), ParseError);
}

TEST(Parser, NodesetCardsSeedTheCircuit) {
  // Several pairs per card, spaces around '=', engineering suffixes, a
  // continuation line, a card before the devices that create its nodes,
  // and a later entry for the same node replacing the earlier one.
  const char* net = R"(nodeset
.nodeset V(mid)=1 V(Top) = 2.5
V1 top 0 DC 5
R1 top mid 1k
R2 mid 0 1k
.nodeset v(mid)=2500m
+ V(top)=4.9
)";
  Circuit ckt = parse_netlist(net);
  ASSERT_EQ(ckt.nodesets().size(), 2u);
  EXPECT_EQ(ckt.nodesets()[0].node, ckt.find_node("mid"));
  EXPECT_DOUBLE_EQ(ckt.nodesets()[0].volts, 2.5);
  EXPECT_EQ(ckt.nodesets()[1].node, ckt.find_node("top"));
  EXPECT_DOUBLE_EQ(ckt.nodesets()[1].volts, 4.9);
  // A guess is only a starting point: the answer is the circuit's.
  const auto sol = dc_operating_point(ckt);
  EXPECT_NEAR(node_voltage(ckt, sol, "mid"), 2.5, 1e-6);
}

TEST(Parser, NodesetErrorsNameTheLine) {
  auto message = [](const char* net) {
    try {
      parse_netlist(net);
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
    return std::string("no ParseError");
  };
  const std::string unknown =
      message("t\nV1 a 0 DC 1\nR1 a 0 1k\n.nodeset V(a)=1 V(nope)=2\n");
  EXPECT_NE(unknown.find("line 4"), std::string::npos) << unknown;
  EXPECT_NE(unknown.find("nope"), std::string::npos) << unknown;
  EXPECT_NE(message("t\nR1 a 0 1k\n.nodeset I(a)=1\n").find("line 3"),
            std::string::npos);
  EXPECT_NE(message("t\nR1 a 0 1k\n.nodeset V(a)\n").find("line 3"),
            std::string::npos);
  EXPECT_NE(message("t\nR1 a 0 1k\n.nodeset V(a)=high\n").find("line 3"),
            std::string::npos);
}

TEST(Parser, RejectsEmpty) { EXPECT_THROW(parse_netlist(""), ParseError); }

TEST(Parser, MosfetNeedsKnownModel) {
  EXPECT_THROW(parse_netlist("t\nM1 d g 0 0 nosuch W=1u L=1u\n"), LookupError);
}

/// The what() of the ape::Error \p net throws, with its dynamic type
/// checked as \p E ("" and a test failure otherwise).
template <typename E>
std::string error_of(const std::string& net) {
  try {
    parse_netlist(net);
  } catch (const E& e) {
    return e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "wrong exception type: " << e.what();
    return "";
  }
  ADD_FAILURE() << "no exception from:\n" << net;
  return "";
}

TEST(Parser, UnknownMosfetModelNamesTheLine) {
  // Still a LookupError (MosfetNeedsKnownModel), now naming its line.
  const std::string msg =
      error_of<LookupError>("t\nR1 d 0 1k\nM1 d g 0 0 nosuch W=1u L=1u\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("nosuch"), std::string::npos) << msg;
}

TEST(Parser, CccsWithUnknownControlIsAParseErrorNamingItsLine) {
  const std::string msg = error_of<ParseError>("t\nR1 a 0 1k\nF1 f 0 Vnope 2\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("F1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("Vnope"), std::string::npos) << msg;
}

TEST(Parser, CcvsControlledThroughANonSourceIsAParseErrorNamingItsLine) {
  const std::string msg = error_of<ParseError>("t\nR1 a 0 1k\nR2 f 0 1k\nH1 f 0 R1 2\n");
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("H1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'R1'"), std::string::npos) << msg;
}

TEST(Parser, ControlledSourceSelfLoopNamesItsLine) {
  const std::string msg = error_of<ParseError>("t\nV1 a 0 DC 1\nF1 b b v1 2\n");
  EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("both terminals"), std::string::npos) << msg;
}

TEST(Parser, ModelCardErrorsNameTheLine) {
  // A bad value, an unknown parameter and an unsupported type in a
  // netlist's .model card all name the card's line; parse_model_card on
  // its own has no line to name.
  const std::string bad_value = error_of<ParseError>(
      "t\nR1 a 0 1k\n.model m nmos (kp=abc)\n");
  EXPECT_NE(bad_value.find("line 3"), std::string::npos) << bad_value;
  EXPECT_NE(bad_value.find("cannot parse number 'abc' in .model m"), std::string::npos)
      << bad_value;
  const std::string unknown = error_of<ParseError>("t\n.model m nmos (zzz=1)\n");
  EXPECT_NE(unknown.find("line 2: .model m: unknown parameter 'zzz'"), std::string::npos)
      << unknown;
  const std::string type = error_of<ParseError>("t\n.model m xmos\n");
  EXPECT_NE(type.find("line 2"), std::string::npos) << type;
  try {
    parse_model_card(".model m nmos (kp=abc)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()).find("line"), std::string::npos) << e.what();
  }
}

TEST(Parser, ModelLevelOutsideTheIntRangeIsRejected) {
  // Converting 1e300 (or NaN) to int would be undefined; it is simply an
  // unsupported LEVEL.
  EXPECT_THROW(parse_model_card(".model m nmos (level=1e300)"), ParseError);
  EXPECT_THROW(parse_model_card(".model m nmos (level=nan)"), ParseError);
  EXPECT_EQ(parse_model_card(".model m nmos (level=3.9)").level, 3);
}

TEST(Parser, RejectsDuplicateDeviceName) {
  try {
    parse_netlist("t\nR1 a 0 1k\nr1 a 0 2k\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate device name"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Parser, RejectsSelfLoopedTwoTerminalDevices) {
  EXPECT_THROW(parse_netlist("t\nR1 a a 1k\n"), ParseError);
  EXPECT_THROW(parse_netlist("t\nC1 0 gnd 1p\n"), ParseError);  // both ground
  EXPECT_THROW(parse_netlist("t\nV1 x x DC 1\n"), ParseError);
  EXPECT_THROW(parse_netlist("t\nV1 a 0 DC 1\nF1 b b v1 2\n"), ParseError);
  try {
    parse_netlist("t\nL1 n1 N1 1m\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("both terminals"), std::string::npos);
  }
}

}  // namespace
}  // namespace ape::spice
