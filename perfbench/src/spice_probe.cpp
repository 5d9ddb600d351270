#include "spice_probe.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/spice/analysis.h"
#include "src/spice/mos_model.h"
#include "src/spice/noise.h"
#include "src/spice/parser.h"
#include "src/util/error.h"

namespace perfbench {

using ape::est::ModuleKind;
using ape::spice::Circuit;

namespace {

double us_since(int64_t t0) { return double(now_ns() - t0) * 1e-3; }

/// Time a DC solve and record the netlist's dimension and LU path.
void timed_dc(Circuit& ckt, NetlistSplit& s, SpanLog& log) {
  ape::ConvergenceReport report;
  ape::spice::DcOptions opts;
  opts.report = &report;
  const int64_t t0 = now_ns();
  {
    ScopedSpan span(&log, "spice.dc");
    (void)ape::spice::dc_operating_point(ckt, opts);
  }
  s.dc_us = us_since(t0);
  s.dim = ckt.dim();
  s.nnz = report.kernel.sparse_nnz;
  s.sparse = report.kernel.sparse_nnz > 0;
  if (!report.converged) {
    s.ok = false;
    s.error = "dc did not converge";
  }
}

void timed_ac(Circuit& ckt, double f0, double f1, int ppd, NetlistSplit& s,
              SpanLog& log) {
  const int64_t t0 = now_ns();
  ScopedSpan span(&log, "spice.ac");
  (void)ape::spice::ac_analysis(ckt, f0, f1, ppd);
  s.ac_us = us_since(t0);
}

void timed_noise(Circuit& ckt, const std::string& out, double f0, double f1,
                 NetlistSplit& s, SpanLog& log) {
  const int64_t t0 = now_ns();
  ScopedSpan span(&log, "spice.noise");
  (void)ape::spice::noise_analysis(ckt, out, f0, f1, 10);
  s.noise_us = us_since(t0);
}

void timed_tran(Circuit& ckt, double step, double stop, NetlistSplit& s,
                SpanLog& log) {
  const int64_t t0 = now_ns();
  ScopedSpan span(&log, "spice.tran");
  (void)ape::spice::transient(ckt, step, stop);
  s.tran_ms = us_since(t0) * 1e-3;
}

}  // namespace

NetlistSplit split_opamp(const std::string& name,
                         const ape::est::OpAmpDesign& design,
                         const ape::est::Process& proc, SpanLog& log) {
  NetlistSplit s;
  s.name = name;
  try {
    const ape::est::Testbench tb =
        design.testbench(proc, ape::est::OpAmpTb::OpenLoop);
    Circuit ckt = ape::spice::parse_netlist(tb.netlist);
    timed_dc(ckt, s, log);
    timed_ac(ckt, 1.0, 1e9, 20, s, log);
    timed_noise(ckt, tb.out_node, 1.0, 1e9, s, log);

    // The unity-gain step on simulate_opamp's time grid.
    const ape::est::Testbench step =
        design.testbench(proc, ape::est::OpAmpTb::UnityStep);
    Circuit tckt = ape::spice::parse_netlist(step.netlist);
    const double pw = std::clamp(8.0 * 0.8 / std::max(design.perf.slew, 1e3),
                                 2e-6, 5e-3);
    timed_tran(tckt, pw / 200.0, 1e-6 + 2.0 * pw, s, log);
  } catch (const ape::Error& e) {
    s.ok = false;
    s.error = e.what();
  }
  return s;
}

NetlistSplit split_module(const std::string& name,
                          const ape::est::ModuleDesign& design,
                          const ape::est::Process& proc, SpanLog& log) {
  NetlistSplit s;
  s.name = name;
  const ape::est::ModuleSpec& spec = design.spec;
  try {
    const ape::est::Testbench tb = design.testbench(proc);
    Circuit ckt = ape::spice::parse_netlist(tb.netlist);
    timed_dc(ckt, s, log);
    if (spec.kind == ModuleKind::FlashAdc || spec.kind == ModuleKind::Comparator) {
      const double window =
          3.0 * std::max(spec.delay_s, design.perf.delay_s) + 2e-6;
      timed_tran(ckt, window / 600.0, 1e-6 + window, s, log);
      return s;
    }
    const bool amp = spec.kind == ModuleKind::AudioAmp ||
                     spec.kind == ModuleKind::SampleHold ||
                     spec.kind == ModuleKind::InvertingAmp ||
                     spec.kind == ModuleKind::Adder;
    const double fc = amp ? spec.bw_hz : spec.f0_hz;
    const double f_start =
        spec.kind == ModuleKind::Integrator ? fc * 1e-4 : fc * 1e-2;
    timed_ac(ckt, f_start, fc * 300.0, 20, s, log);
    timed_noise(ckt, tb.out_node, f_start, fc * 300.0, s, log);
    if (spec.kind == ModuleKind::SampleHold) {
      const double window =
          std::clamp(8.0 * 0.4 / std::max(design.perf.slew, 1e3), 2e-6, 1e-2);
      timed_tran(ckt, window / 300.0, 1e-6 + window, s, log);
    }
  } catch (const ape::Error& e) {
    s.ok = false;
    s.error = e.what();
  }
  return s;
}

void print_splits(const std::vector<NetlistSplit>& splits) {
  std::printf("%-22s %5s %7s %6s %10s %10s %10s %10s\n", "netlist", "dim",
              "path", "nnz", "dc_us", "ac_us", "noise_us", "tran_ms");
  for (const NetlistSplit& s : splits) {
    std::printf("%-22s %5zu %7s %6zu %10.1f %10.1f %10.1f %10.3f%s%s\n",
                s.name.c_str(), s.dim, s.sparse ? "sparse" : "dense", s.nnz,
                s.dc_us, s.ac_us, s.noise_us, s.tran_ms, s.ok ? "" : "  FAILED: ",
                s.ok ? "" : s.error.c_str());
  }
}

void add_kernel_metrics(const ape::KernelStats& k, RunResult& r) {
  r.add("spice.factorizations", double(k.factorizations), "count");
  r.add("spice.solves", double(k.solves), "count");
  r.add("spice.ac_points", double(k.ac_points_fused + k.ac_points_virtual), "count");
  r.add("spice.refined_ratio",
        k.solves > 0 ? double(k.refinement_solves) / double(k.solves) : 0.0,
        "ratio");
  r.add("spice.symbolic_reuses", double(k.symbolic_reuses), "count");
  r.add("spice.sparse_fallbacks", double(k.sparse_fallbacks), "count");
  r.add("spice.workspace_regrowths", double(k.workspace_regrowths), "count");
}

void collect_bias_points(const ape::est::OpAmpDesign& design,
                         const ape::est::Process& proc,
                         std::deque<ape::spice::MosModelCard>& cards,
                         std::vector<BiasPoint>& points) {
  const ape::est::Testbench tb =
      design.testbench(proc, ape::est::OpAmpTb::OpenLoop);
  Circuit ckt = ape::spice::parse_netlist(tb.netlist);
  ape::spice::Solution sol;
  try {
    sol = ape::spice::dc_operating_point(ckt);
  } catch (const ape::Error&) {
    return;  // no operating point, no bias points (the split reports it)
  }
  auto volt = [&](const std::string& node) {
    return sol.at(ckt.find_node(node));
  };
  // Device lines read "Mname drain gate source bulk model W=.. L=..".
  std::istringstream lines(tb.netlist);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || (line[0] != 'M' && line[0] != 'm')) continue;
    std::istringstream f(line);
    std::string dev, d, g, src, b, model, wtok, ltok;
    f >> dev >> d >> g >> src >> b >> model >> wtok >> ltok;
    if (wtok.rfind("W=", 0) != 0 || ltok.rfind("L=", 0) != 0) continue;
    cards.push_back(*ckt.model(model));
    BiasPoint p;
    p.card = &cards.back();
    const double vs = volt(src);
    p.vgs = volt(g) - vs;
    p.vds = volt(d) - vs;
    p.vbs = volt(b) - vs;
    p.w = std::stod(wtok.substr(2));
    p.l = std::stod(ltok.substr(2));
    points.push_back(p);
  }
}

double time_mos_eval_ns(const std::vector<BiasPoint>& points) {
  if (points.empty()) return 0.0;
  // About 100k calls per repetition, whatever the number of points.
  const size_t sweeps = std::max<size_t>(1, 100000 / points.size());
  std::vector<double> per_call;
  double sink = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const int64_t t0 = now_ns();
    for (size_t k = 0; k < sweeps; ++k) {
      for (const BiasPoint& p : points) {
        sink += ape::spice::mos_eval_signed(*p.card, p.vgs, p.vds, p.vbs, p.w,
                                            p.l)
                    .ids;
      }
    }
    per_call.push_back(double(now_ns() - t0) /
                       double(sweeps * points.size()));
  }
  // Keep the evaluations observable so they cannot be optimized away.
  if (sink == 42.0) std::printf("#\n");
  return median(per_call);
}

}  // namespace perfbench
