#pragma once
/// Provenance stamp for the committed BENCH_*.json trajectory files:
/// every record carries the git SHA and compiler it was produced with
/// (injected by bench/CMakeLists.txt at configure time) plus the UTC
/// date of the run, so a regression flagged by check_bench can always
/// be traced to the exact build that recorded the baseline.

#include <cstdio>
#include <ctime>

#include "src/util/json.h"

#ifndef APE_BENCH_GIT_SHA
#define APE_BENCH_GIT_SHA "unknown"
#endif
#ifndef APE_BENCH_COMPILER
#define APE_BENCH_COMPILER "unknown"
#endif

namespace ape::bench {

/// Writes the "meta" member: {"git_sha": ..., "date": ..., "compiler": ...}.
inline void write_meta(json::Writer& w) {
  const std::time_t now = std::time(nullptr);
  char date[32] = "unknown";
  if (const std::tm* tm = std::gmtime(&now)) {
    std::strftime(date, sizeof date, "%Y-%m-%d", tm);
  }
  w.key("meta")
      .begin_object()
      .field("git_sha", APE_BENCH_GIT_SHA)
      .field("date", date)
      .field("compiler", APE_BENCH_COMPILER)
      .end_object();
}

/// Writes the finished record to \p path; false (reported on stderr)
/// when the file cannot be written.
inline bool write_record(const char* path, const json::Writer& w) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "%s\n", w.str().c_str());
  std::fclose(f);
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace ape::bench
