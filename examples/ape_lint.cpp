/// \file ape_lint.cpp
/// Static netlist / spec analyzer CLI (DESIGN.md sections 9 and 14).
///
///   ape_lint [options] [netlist.sp ...]           netlist lint mode
///   ape_lint --prove [spec options]               feasibility-proof mode
///
/// Netlist mode reads each netlist file (or stdin when no file is
/// given), runs the full lint rule set (topology + MNA-solvability +
/// case-alias scan) and prints one JSON report. Prove mode builds an
/// opamp spec from the --gain/--ugf/--ibias/--cload flags and proves
/// (or refutes) its feasibility over the sizing box with interval
/// arithmetic, emitting APE-F findings plus the guaranteed metric
/// bounds and the contracted feasible box.
///
/// Exit status contract (documented in --help, enforced by CI):
///   0   clean, or warnings/notes only
///   1   at least one error-severity finding (APE-F001 included)
///   2   warnings present and --werror given (no errors)
///   64  usage error (unknown flag, bad flag value)
///   66  an input file could not be opened / read

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/lint/lint.h"
#include "src/lint/prove.h"
#include "src/stat/corners.h"
#include "src/util/json.h"

namespace {

// sysexits.h-style codes; kept literal so the --help text, the tests and
// the CI job agree without including a platform header.
constexpr int kExitClean = 0;
constexpr int kExitErrors = 1;
constexpr int kExitWerror = 2;
constexpr int kExitUsage = 64;
constexpr int kExitNoInput = 66;

void usage() {
  std::printf(
      "usage: ape_lint [options] [netlist.sp ...]\n"
      "       ape_lint --prove [spec options]\n"
      "\n"
      "Netlist mode (default): lint SPICE netlists (stdin when no file is\n"
      "given) and print one JSON findings report. Repeated findings on the\n"
      "same (rule, location) pair are reported once.\n"
      "\n"
      "Prove mode (--prove): prove opamp-spec feasibility over the sizing\n"
      "box (APE-F rules, interval arithmetic) and print the findings plus\n"
      "guaranteed metric bounds and the contracted feasible box.\n"
      "  --gain X         DC gain target (default 200)\n"
      "  --ugf HZ         unity-gain frequency target [Hz] (default 1e6)\n"
      "  --ibias A        reference current [A] (default 1e-6)\n"
      "  --cload F        load capacitance [F] (default 10e-12)\n"
      "  --area M2        gate-area budget [m^2] (default: none)\n"
      "  --corner NAME    prove at a PVT corner (tm|wp|ws|wo|wz|ts|tf)\n"
      "  --tight-margin F APE-F002 relative threshold (default 0.25)\n"
      "\n"
      "Common options:\n"
      "  --werror         exit 2 when warnings are found (and no errors)\n"
      "  --warnings-as-errors  alias for --werror\n"
      "  --quiet          suppress the JSON, keep only the exit status\n"
      "  --help           this text\n"
      "\n"
      "Exit: 0 clean or warnings-only; 1 error findings; 2 warnings with\n"
      "--werror; 64 usage error; 66 unreadable input file.\n"
      "Rule catalog: src/lint/lint.h + src/lint/prove.h / DESIGN.md 9, 14.\n");
}

[[noreturn]] void die(const std::string& msg, int code) {
  std::fprintf(stderr, "ape_lint: %s\n", msg.c_str());
  std::exit(code);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot open '" + path + "'", kExitNoInput);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string read_stdin() {
  std::ostringstream ss;
  ss << std::cin.rdbuf();
  return ss.str();
}

double parse_double_flag(const std::string& flag, const char* value) {
  if (value == nullptr) die("missing value for " + flag, kExitUsage);
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') {
    die("bad value '" + std::string(value) + "' for " + flag, kExitUsage);
  }
  return v;
}

/// Drop findings that duplicate an earlier one's (rule, where, message)
/// key: merging N files (or one netlist tripping the same rule on the
/// same device through two code paths) reports each defect once.
ape::lint::Report dedupe(const ape::lint::Report& in) {
  ape::lint::Report out;
  std::vector<std::string> seen;
  for (const auto& f : in.findings) {
    const std::string key = f.rule + '\x1f' + f.where + '\x1f' + f.message;
    bool dup = false;
    for (const auto& k : seen) {
      if (k == key) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    seen.push_back(key);
    out.findings.push_back(f);
  }
  return out;
}

int exit_code_for(const ape::lint::Report& report, bool werror) {
  if (report.errors() > 0) return kExitErrors;
  if (werror && report.warnings() > 0) return kExitWerror;
  return kExitClean;
}

}  // namespace

int main(int argc, char** argv) {
  bool werror = false;
  bool quiet = false;
  bool prove = false;
  bool spec_flag_seen = false;
  ape::est::OpAmpSpec spec;
  std::string corner;
  double tight_margin = -1.0;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      return kExitClean;
    } else if (arg == "--werror" || arg == "--warnings-as-errors") {
      werror = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--prove") {
      prove = true;
    } else if (arg == "--gain") {
      spec.gain = parse_double_flag(arg, next);
      spec_flag_seen = true;
      ++i;
    } else if (arg == "--ugf") {
      spec.ugf_hz = parse_double_flag(arg, next);
      spec_flag_seen = true;
      ++i;
    } else if (arg == "--ibias") {
      spec.ibias = parse_double_flag(arg, next);
      spec_flag_seen = true;
      ++i;
    } else if (arg == "--cload") {
      spec.cload = parse_double_flag(arg, next);
      spec_flag_seen = true;
      ++i;
    } else if (arg == "--area") {
      spec.area_budget = parse_double_flag(arg, next);
      spec_flag_seen = true;
      ++i;
    } else if (arg == "--tight-margin") {
      tight_margin = parse_double_flag(arg, next);
      spec_flag_seen = true;
      ++i;
    } else if (arg == "--corner") {
      if (next == nullptr) die("missing value for --corner", kExitUsage);
      corner = next;
      spec_flag_seen = true;
      ++i;
    } else if (!arg.empty() && arg[0] == '-') {
      die("unknown option '" + arg + "' (see --help)", kExitUsage);
    } else {
      files.push_back(arg);
    }
  }
  if (!prove && spec_flag_seen) {
    // Spec flags without --prove are almost certainly a mistyped
    // invocation; refuse instead of silently linting stdin.
    die("spec/corner flags require --prove (see --help)", kExitUsage);
  }

  ape::lint::Report report;
  ape::json::Writer w;
  if (prove) {
    if (!files.empty()) {
      die("--prove takes spec flags, not netlist files", kExitUsage);
    }
    ape::est::Process proc = ape::est::Process::default_1u2();
    if (!corner.empty()) {
      try {
        const ape::stat::CornerSet set = ape::stat::CornerSet::parse(corner);
        if (set.size() != 1) {
          die("--corner takes exactly one corner name", kExitUsage);
        }
        proc = set.realize(proc).at(0);
      } catch (const ape::Error& e) {
        die(std::string("--corner: ") + e.what(), kExitUsage);
      }
    }
    ape::lint::ProveOptions opts;
    if (tight_margin >= 0.0) opts.tight_margin = tight_margin;
    ape::lint::FeasibilityProof proof;
    try {
      proof = ape::lint::prove_opamp_feasibility(proc, spec, opts);
    } catch (const ape::Error& e) {
      die(std::string("prove: ") + e.what(), kExitUsage);
    }
    proof.report = dedupe(proof.report);
    report = proof.report;
    w.begin_object().field("mode", "prove");
    proof.to_json(w);
    w.end_object();
  } else {
    ape::lint::Report merged;
    if (files.empty()) {
      merged = ape::lint::lint_netlist(read_stdin());
    } else {
      for (const std::string& path : files) {
        ape::ErrorContext scope(path);
        merged.merge(ape::lint::lint_netlist(read_file(path)));
      }
    }
    report = dedupe(merged);
    w.value(report);
  }

  if (!quiet) std::printf("%s\n", w.str().c_str());
  const int code = exit_code_for(report, werror);
  if (code != kExitClean && !quiet) {
    std::fprintf(stderr, "ape_lint: %s\n", report.summary().c_str());
  }
  return code;
}
