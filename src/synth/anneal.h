#pragma once
/// \file anneal.h
/// Generic simulated-annealing minimizer - the search paradigm of
/// ASTRX/OBLX (paper section 3: "the optimization engine is based on a
/// simulated annealing algorithm").

#include <functional>
#include <utility>
#include <vector>

#include "src/util/diagnostics.h"
#include "src/util/rng.h"

namespace ape::synth {

/// The cooling schedule and move sizes are fixed (anneal.cpp): only the
/// length of the search and its random stream are the caller's.
struct AnnealOptions {
  int iterations = 4000;      ///< total cost evaluations
  uint64_t seed = 1;
};

struct AnnealResult {
  std::vector<double> best_x;
  double best_cost = 0.0;
  double start_cost = 0.0;
  int evaluations = 0;
  int accepted = 0;
  /// Candidates whose cost came back NaN/inf: always rejected (the
  /// acceptance test and best-point tracking only ever see finite
  /// costs), counted here so callers can spot a sick cost function.
  int rejected_nonfinite = 0;
  bool budget_exhausted = false;  ///< stopped early on an expired RunBudget
};

/// Minimize \p cost over the box \p bounds starting from \p x0 (clamped
/// into the box). The cost function should be finite and return large
/// values for infeasible points; NaN/inf costs are tolerated by treating
/// the candidate as rejected (see AnnealResult::rejected_nonfinite), and
/// a cost throwing ape::Error propagates (synthesis drivers wrap their
/// cost functions to absorb per-candidate failures).
///
/// The job context's budget (JobContext::budget, installed by
/// ScopedBudget) bounds the search: each cost evaluation charges it one
/// unit and it is polled once per iteration. When it expires the search
/// stops and returns its best-so-far point with evaluations < iterations
/// and budget_exhausted set.
AnnealResult anneal(const std::function<double(const std::vector<double>&)>& cost,
                    const std::vector<std::pair<double, double>>& bounds,
                    std::vector<double> x0, const AnnealOptions& opts = {});

}  // namespace ape::synth
