#pragma once
/// \file common.h
/// Shared plumbing of the benchmark binary: command-line options, the
/// result record every workload fills, clocks and order statistics.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one run (see main.cpp for the flags).
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Set up the workload, print the steady-clock time at which the first
  /// job could be issued, tear down and exit (run.py times process start
  /// to that moment several times and reports the median as setup_s).
  bool setup_probe = false;
  /// Directory (relative to the checkout root) for the serve socket and
  /// the span files of traced runs.
  std::string workdir = ".";
};

/// Steady-clock nanoseconds (CLOCK_MONOTONIC on Linux, the clock
/// Python's time.monotonic_ns() reads).
inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Moves the calling thread over the CPUs the process may use, one CPU
/// per next(), so a single-thread measurement samples every CPU instead
/// of the one the scheduler happened to pick. On a shared host the CPUs
/// differ in speed by tens of percent, and which one is slow changes over
/// minutes. release() restores the original mask; call it before starting
/// threads, which inherit the mask. The destructor releases too.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next();
  void release();

private:
  std::vector<int> cpus_;  ///< the original mask, as CPU ids
  size_t next_ = 0;
  bool pinned_ = false;
};

/// Print the setup probe's answer: the moment the first job is issuable,
/// and how long the benchmark spent generating its inputs (run.py leaves
/// that out of setup_s: it is the benchmark's work, not the program's).
void report_ready(int64_t inputs_ns);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts operations that
/// errored, were shed, or failed a check; a failed output check also
/// clears `correct`.
struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a failed output check (printed to stderr).
  void check(bool ok, const std::string& what);
};

/// Median (mean of the two middle values for even sizes); 0 when empty.
double median(std::vector<double> v);
/// Median over items of each item's mean over repetitions. \p v holds
/// whole repetitions back to back, \p items values each. Averaging each
/// item over its repetitions first spreads it over every CPU and moment
/// of the run, which a plain median of the raw samples does not.
double median_of_means(const std::vector<double>& v, size_t items);
/// Nearest-rank percentile, q in [0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);
/// Print "label: p50 .. p90 .. p99 .. (n=..)" with the sample count, the
/// tail percentiles that are printed but not gated.
void print_latency(const char* label, const std::vector<double>& samples,
                   const char* unit);
/// Peak resident set size of this process [MiB].
double peak_rss_mb();

/// Append |est/sim - 1| in percent: one term of est_sim_err_pct, the
/// median over designs and {gain, UGF, power}.
inline void add_est_sim_error(std::vector<double>& pct, double est, double sim) {
  pct.push_back(100.0 * (est / sim > 1.0 ? est / sim - 1.0 : 1.0 - est / sim));
}

}  // namespace perfbench
