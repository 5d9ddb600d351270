#include "src/synth/anneal.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/error.h"

namespace ape::synth {

AnnealResult anneal(const std::function<double(const std::vector<double>&)>& cost,
                    const std::vector<std::pair<double, double>>& bounds,
                    std::vector<double> x0, const AnnealOptions& opts) {
  const size_t n = bounds.size();
  if (x0.size() != n) throw SpecError("anneal: x0/bounds size mismatch");
  for (size_t i = 0; i < n; ++i) {
    if (bounds[i].second < bounds[i].first) {
      throw SpecError("anneal: inverted bound at index " + std::to_string(i));
    }
    x0[i] = std::clamp(x0[i], bounds[i].first, bounds[i].second);
  }

  // The job's stop signal: charged per evaluation, polled per iteration.
  const RunBudget* budget = job_context().budget;
  Rng rng(opts.seed);
  AnnealResult res;
  std::vector<double> x = x0;
  double c = cost(x);
  res.start_cost = c;
  res.evaluations = 1;
  if (budget != nullptr) budget->charge(1);

  // Finite-cost contract: a NaN/inf cost is never accepted and never
  // stored as best_cost. A non-finite start is treated as +inf so the
  // first finite candidate always displaces it; until one shows up
  // best_cost is +inf (a deliberate "no feasible point seen" sentinel).
  res.best_x = x;
  if (std::isfinite(c)) {
    res.best_cost = c;
  } else {
    ++res.rejected_nonfinite;
    c = std::numeric_limits<double>::infinity();
    res.best_cost = c;
  }

  // Geometric cooling from t_start to t_end over the iteration budget.
  const double c_scale = std::isfinite(c) ? std::fabs(c) : 1.0;
  const double t_start = std::max(c_scale, 1e-6) * opts.t_start_frac;
  const double t_end = std::max(c_scale, 1e-6) * opts.t_end_frac;
  const double alpha =
      std::pow(t_end / t_start, 1.0 / std::max(opts.iterations - 1, 1));

  double t = t_start;
  std::vector<double> cand = x;
  for (int it = 1; it < opts.iterations; ++it, t *= alpha) {
    // A deadline, cancellation or evaluation cap stops the search
    // between moves with best-so-far intact.
    if (budget != nullptr && budget->exhausted()) {
      res.budget_exhausted = true;
      break;
    }
    // Move: perturb one coordinate; the move range shrinks with T.
    cand = x;
    const size_t j = rng.index(n);
    const double range = bounds[j].second - bounds[j].first;
    if (range > 0.0) {
      const double scale =
          opts.move_frac * (0.1 + 0.9 * (t - t_end) / (t_start - t_end + 1e-300));
      cand[j] = std::clamp(cand[j] + rng.gauss() * scale * range,
                           bounds[j].first, bounds[j].second);
    }
    const double cc = cost(cand);
    ++res.evaluations;
    if (budget != nullptr) budget->charge(1);
    if (!std::isfinite(cc)) {
      // Reject outright: a NaN delta would otherwise poison the
      // acceptance test (NaN comparisons are all false, so the uphill
      // branch could accept an infeasible point as the new state).
      ++res.rejected_nonfinite;
      continue;
    }
    const double dc = cc - c;
    if (dc <= 0.0 || rng.uniform() < std::exp(-dc / std::max(t, 1e-300))) {
      x = cand;
      c = cc;
      ++res.accepted;
      if (c < res.best_cost) {
        res.best_cost = c;
        res.best_x = x;
      }
    }
  }
  return res;
}

}  // namespace ape::synth
