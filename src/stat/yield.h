#pragma once
/// \file yield.h
/// Yield accounting for corner sweeps and Monte-Carlo runs (DESIGN.md
/// section 12): per-criterion pass counts per corner, pooled yield with
/// a Wilson score confidence interval, and worst-corner identification.
///
/// Everything here is plain integer/double bookkeeping over outcomes
/// the sweep runner (runtime/sweep.h) computed — aggregation happens in
/// job/corner/sample index order, so reports are bit-identical at any
/// thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/json.h"

namespace ape::stat {

/// Pass/fail of one (design, corner, sample) evaluation point. The
/// overall pass requires a functional bias point and the gain/UGF
/// criteria (the same 0.9x acceptance band the synthesis diagnosis
/// uses); phase margin is tracked per criterion but does not gate pass
/// — an opamp with soft margin still works, it just rings.
struct PointOutcome {
  bool evaluated = false;   ///< evaluation completed (false: it threw)
  bool functional = false;  ///< bias point exists
  bool gain_ok = false;     ///< gain >= 0.9 x spec
  bool ugf_ok = false;      ///< UGF >= 0.9 x spec
  bool pm_ok = false;       ///< phase margin >= 45 deg (informational)

  bool pass() const { return evaluated && functional && gain_ok && ugf_ok; }
};

/// Per-criterion pass counters over a set of points.
struct CriteriaCounts {
  long samples = 0;
  long functional = 0;
  long gain = 0;
  long ugf = 0;
  long phase_margin = 0;
  long pass = 0;

  void add(const PointOutcome& p);
  CriteriaCounts& operator+=(const CriteriaCounts& o);
  double pass_rate() const {
    return samples > 0 ? double(pass) / double(samples) : 0.0;
  }
};

/// Wilson score interval for a binomial proportion — well-behaved at
/// small n and at pass rates near 0/1, unlike the normal approximation.
struct WilsonInterval {
  double lo = 0.0;
  double hi = 1.0;
};

/// The interval for \p passes successes out of \p samples at normal
/// quantile \p z (default: 95% two-sided). samples == 0 returns the
/// vacuous [0, 1].
WilsonInterval wilson_interval(long passes, long samples, double z = 1.96);

/// Yield over a (corner x sample) grid. Construct with the corner names
/// (slot order = CornerSet order), feed points with add(), then
/// finalize() to compute the worst corner.
struct YieldReport {
  /// Per-corner accounting; corners[c].first is the corner name.
  std::vector<std::pair<std::string, CriteriaCounts>> corners;
  CriteriaCounts total;
  /// Index of the corner with the lowest pass rate (lowest index wins
  /// ties — deterministic); -1 until finalize() or when empty.
  int worst_corner = -1;

  explicit YieldReport(const std::vector<std::string>& corner_names = {});

  /// Record one point under corner slot \p corner_index.
  void add(size_t corner_index, const PointOutcome& p);

  /// Pool another report with the same corner layout (throws SpecError
  /// on a layout mismatch). Used for the run-level aggregate.
  void merge(const YieldReport& o);

  /// Compute worst_corner from the counters.
  void finalize();

  double yield() const { return total.pass_rate(); }
  WilsonInterval ci(double z = 1.96) const {
    return wilson_interval(total.pass, total.samples, z);
  }
  const std::string& worst_corner_name() const;

  /// Pooled yield, its interval and a per-corner "corners" array (json.h).
  void to_json(json::Writer& w) const;
};

}  // namespace ape::stat
