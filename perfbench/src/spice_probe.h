#pragma once
/// \file spice_probe.h
/// Per-analysis timing of the MNA kernel on the workloads' own netlists,
/// and the MOS-model microbenchmark over the bias points they visit. Both
/// drive only public simulator entry points (parse_netlist,
/// dc_operating_point, ac_analysis, noise_analysis, transient, mos_eval).

#include <deque>
#include <string>
#include <vector>

#include "src/estimator/modules.h"
#include "src/estimator/opamp.h"
#include "src/estimator/process.h"
#include "src/spice/mos_model.h"
#include "src/util/diagnostics.h"
#include "trace.h"

namespace perfbench {

/// One netlist's analyses, timed separately. A time of 0 means the
/// analysis does not apply to that netlist.
struct NetlistSplit {
  std::string name;
  size_t dim = 0;         ///< MNA dimension
  bool sparse = false;    ///< the kernel routed it to the sparse LU
  size_t nnz = 0;         ///< structural nonzeros on the sparse path
  double dc_us = 0.0;
  double ac_us = 0.0;
  double noise_us = 0.0;
  double tran_ms = 0.0;
  bool ok = true;         ///< every analysis converged
  std::string error;
};

/// Open-loop testbench (DC, AC and noise, on simulate_opamp's sweep) and
/// the unity-gain step testbench (transient) of an opamp design. Each
/// analysis is recorded as a span in \p log.
NetlistSplit split_opamp(const std::string& name,
                         const ape::est::OpAmpDesign& design,
                         const ape::est::Process& proc, SpanLog& log);

/// A module's transistor-level testbench: DC, plus AC and noise on
/// verify_module's sweep (filters and amplifiers) and the transient it
/// runs (converters, sample & hold).
NetlistSplit split_module(const std::string& name,
                          const ape::est::ModuleDesign& design,
                          const ape::est::Process& proc, SpanLog& log);

void print_splits(const std::vector<NetlistSplit>& splits);

/// Add the MNA counters of \p k (one batch or pass) as the spice.* count
/// metrics.
void add_kernel_metrics(const ape::KernelStats& k, RunResult& r);

/// One MOSFET at its DC operating point.
struct BiasPoint {
  const ape::spice::MosModelCard* card = nullptr;
  double vgs = 0.0, vds = 0.0, vbs = 0.0, w = 0.0, l = 0.0;
};

/// Solve the open-loop testbench of \p design and append every MOSFET's
/// bias point (none when the DC solve fails). Cards are copied into
/// \p cards (stable addresses).
void collect_bias_points(const ape::est::OpAmpDesign& design,
                         const ape::est::Process& proc,
                         std::deque<ape::spice::MosModelCard>& cards,
                         std::vector<BiasPoint>& points);

/// Median over repetitions of the mean mos_eval_signed time per call
/// over \p points [ns].
double time_mos_eval_ns(const std::vector<BiasPoint>& points);

}  // namespace perfbench
