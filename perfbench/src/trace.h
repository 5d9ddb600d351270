#pragma once
/// \file trace.h
/// Span recorder of the traced runs. Spans are recorded from the
/// benchmark's own code, around each call into a library layer: name,
/// start, end, the span that caused it, and the job it belongs to. Each
/// worker thread owns one SpanLog (no locking on the hot path); logs stay
/// in memory and are merged and written out when the run ends.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: the layer call
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index in the same log, -1 = root
  int32_t job = -1;       ///< job / request id, -1 = none
};

class SpanLog {
public:
  /// Open a span under the innermost open one; returns its index.
  int32_t open(const char* name, int32_t job) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close() {
    spans_[static_cast<size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Append \p other's spans (re-indexing their parents).
  void merge(const SpanLog& other);

private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

/// RAII span: open on construction, close on scope exit. A null log
/// records nothing, so the untraced run shares the code path.
class ScopedSpan {
public:
  ScopedSpan(SpanLog* log, const char* name, int32_t job = -1) : log_(log) {
    if (log_ != nullptr) log_->open(name, job);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  SpanLog* log_;
};

/// Per-name aggregate: call count, total and self time (duration minus
/// the part its direct children cover), and every duration for
/// percentiles.
struct LayerTime {
  long calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;
};

std::map<std::string, LayerTime> layer_times(const SpanLog& log);

/// Median duration of the spans named \p name, times \p scale (0 when
/// there are none).
double span_p50(const std::map<std::string, LayerTime>& layers,
                const char* name, double scale);

/// Print the self-time table, one row per span name.
void print_layer_table(const std::map<std::string, LayerTime>& layers);

/// Write every span as one JSON object per line to \p path; returns false
/// when the file cannot be written.
bool write_spans(const SpanLog& log, const std::string& path);

}  // namespace perfbench
