#pragma once
/// \file netlist_corpus.h
/// The paper's verification netlists as the estimator emits them: every
/// Table 1 opamp testbench in its four modes and the five Table 5 module
/// testbenches. The parser digests (tests/parser_corpus_test.cpp) and the
/// sparse-ordering equivalence suite (tests/sparse_test.cpp) both pin
/// their behaviour on this set.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"

namespace ape::test {

struct NamedNetlist {
  std::string name;  ///< e.g. "oa3/open_loop", "module/flash_adc"
  std::string text;
  bool has_transient = false;  ///< the verification flow runs a transient on it
};

inline std::vector<NamedNetlist> paper_testbenches() {
  const est::Process proc = est::Process::default_1u2();
  struct Mode {
    est::OpAmpTb tb;
    const char* name;
  };
  static constexpr Mode kModes[] = {
      {est::OpAmpTb::OpenLoop, "open_loop"},
      {est::OpAmpTb::CommonMode, "common_mode"},
      {est::OpAmpTb::ZoutProbe, "zout_probe"},
      {est::OpAmpTb::UnityStep, "unity_step"},
  };
  std::vector<NamedNetlist> out;
  const est::OpAmpEstimator oe(proc);
  for (const bench::PaperOpAmpRow& row : bench::table1_specs()) {
    const est::OpAmpDesign d = oe.estimate(bench::to_spec(row));
    for (const Mode& m : kModes) {
      out.push_back({std::string(row.name) + "/" + m.name, d.testbench(proc, m.tb).netlist,
                     m.tb == est::OpAmpTb::UnityStep});
    }
  }
  const est::ModuleEstimator me(proc);
  for (const est::ModuleSpec& spec : bench::table5_specs()) {
    out.push_back({std::string("module/") + est::to_string(spec.kind),
                   me.estimate(spec).testbench(proc).netlist, false});
  }
  return out;
}

}  // namespace ape::test
