#pragma once
/// \file workloads.h
/// The three workloads. Each builds its inputs from the seed, measures
/// for opts.seconds, checks its outputs, and returns the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run).

#include "common.h"

namespace perfbench {

/// Closed batch of APE-seeded opamp synthesis jobs through
/// runtime::run_opamp_batch (estimate -> prove -> anneal -> SPICE verify).
RunResult run_synth_batch(const Options& opts);

/// Single-thread estimate + full simulator verification of opamps
/// (simulate_opamp) and Table 5 modules (verify_module).
RunResult run_verify_sweep(const Options& opts);

/// In-process serve::Server on a Unix socket, two serve::Client
/// connections in closed loops over a mixed request stream.
RunResult run_serve_mixed(const Options& opts);

}  // namespace perfbench
