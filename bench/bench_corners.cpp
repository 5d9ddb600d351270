/// Corner-sweep / Monte-Carlo throughput bench -> BENCH_corners.json.
///
/// Drives the ten Table-1 specs through runtime::run_monte_carlo over
/// the full 7-corner set and records the three numbers the stat
/// subsystem's trajectory cares about:
///
///  - grid throughput (points/s) and the per-thread scaling curve
///    (1, 2, 4, ... hardware threads) — the sweep grid is
///    embarrassingly parallel, so this curve is the purest view of the
///    Executor's overhead;
///  - cache sharing across corners: every duplicate (spec, corner)
///    re-estimate after the first is a hit on the shared EstimateCache,
///    so hit_rate > 0 is a structural property of the sweep, not luck;
///  - the determinism check: the 1-thread and N-thread aggregate
///    YieldReports must serialize bit-identically (exit 1 when not —
///    the bench doubles as an acceptance gate).
///
/// Estimate-only phase A (no synthesis): the bench isolates the sweep
/// machinery itself, the anneal has its own bench in bench_ape_speed.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_meta.h"
#include "bench/bench_util.h"
#include "src/runtime/sweep.h"
#include "src/stat/corners.h"

using namespace ape;

namespace {

runtime::SweepOptions sweep_options(int threads, int mc_samples,
                                    runtime::EstimateCache* cache) {
  runtime::SweepOptions o;
  o.supervisor.batch.threads = threads;
  o.supervisor.batch.seed = 42;
  o.supervisor.batch.cache = cache;
  o.corners = stat::CornerSet::all();
  o.mc_samples = mc_samples;
  return o;
}

}  // namespace

int main() {
  const auto rows = bench::table1_specs();
  std::vector<est::OpAmpSpec> specs;
  for (const auto& row : rows) specs.push_back(bench::to_spec(row));
  const est::Process proc = est::Process::default_1u2();
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int mc = 32;

  std::printf("-- corner sweep: %zu specs x 7 corners x %d samples --\n",
              specs.size(), mc);

  std::vector<int> curve_threads{1};
  for (int t = 2; t < hw; t *= 2) curve_threads.push_back(t);
  if (hw > 1) curve_threads.push_back(hw);

  json::Writer w;
  w.begin_object();
  bench::write_meta(w);
  w.key("scaling").begin_array();
  stat::YieldReport serial_report, final_report;
  double serial_wall = 0.0, final_wall = 0.0;
  long points = 0;
  runtime::CacheStats final_cache;
  for (size_t i = 0; i < curve_threads.size(); ++i) {
    const int t = curve_threads[i];
    runtime::EstimateCache cache;
    const auto t0 = std::chrono::steady_clock::now();
    const runtime::SweepResult r =
        runtime::run_monte_carlo(proc, specs, sweep_options(t, mc, &cache));
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    points = r.aggregate.total.samples;
    const double pps = wall > 0.0 ? double(points) / wall : 0.0;
    if (t == 1) {
      serial_report = r.aggregate;
      serial_wall = wall;
    }
    if (i + 1 == curve_threads.size()) {
      final_report = r.aggregate;
      final_wall = wall;
      final_cache = r.stats.cache;
    }
    std::printf("scaling: %2d threads -> %.3f s (%.0f points/s)\n", t, wall,
                pps);
    w.begin_object()
        .field("threads", t)
        .field("wall_seconds", wall)
        .field("points_per_second", pps)
        .end_object();
  }
  w.end_array();

  const bool identical = json::dump(serial_report) == json::dump(final_report);
  std::printf("deterministic match (1 vs %d threads): %s\n", hw,
              identical ? "yes" : "NO");
  std::printf("cache: %ld hits / %ld misses (rate %.3f)\n", final_cache.hits,
              final_cache.misses, final_cache.hit_rate());
  const double speedup = final_wall > 0.0 ? serial_wall / final_wall : 0.0;

  w.field("specs", specs.size())
      .field("corners", 7)
      .field("mc_samples", mc)
      .field("grid_points", points)
      .field("hardware_threads", hw)
      .field("serial_seconds", serial_wall)
      .field("pooled_seconds", final_wall)
      .field("speedup", speedup)
      .field("parallel_speedup_valid", hw > 1)
      .field("deterministic_match", identical)
      .field("cache_hits", final_cache.hits)
      .field("cache_misses", final_cache.misses)
      .field("cache_hit_rate", final_cache.hit_rate())
      .field("aggregate", final_report)
      .end_object();
  if (!bench::write_record("BENCH_corners.json", w)) return 1;
  return identical ? 0 : 1;
}
