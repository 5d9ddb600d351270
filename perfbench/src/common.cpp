#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

void CpuRotation::release() {
  if (!pinned_) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : cpus_) CPU_SET(c, &all);
  pinned_ = sched_setaffinity(0, sizeof all, &all) != 0;
}

void report_ready(int64_t inputs_ns) {
  std::printf("ready_ns %lld inputs_ns %lld\n", static_cast<long long>(now_ns()),
              static_cast<long long>(inputs_ns));
  std::fflush(stdout);
}

void RunResult::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

double median_of_means(const std::vector<double>& v, size_t items) {
  if (items == 0) return 0.0;
  const size_t reps = v.size() / items;
  if (reps == 0) return 0.0;
  std::vector<double> means(items, 0.0);
  for (size_t r = 0; r < reps; ++r) {
    for (size_t i = 0; i < items; ++i) means[i] += v[r * items + i];
  }
  for (double& m : means) m /= double(reps);
  return median(means);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

void print_latency(const char* label, const std::vector<double>& samples,
                   const char* unit) {
  std::printf("%-28s p50 %10.3f  p90 %10.3f  p99 %10.3f %s  (n=%zu)\n", label,
              median(samples), percentile(samples, 0.90),
              percentile(samples, 0.99), unit, samples.size());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
