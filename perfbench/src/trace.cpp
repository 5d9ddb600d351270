#include "trace.h"

#include <cstdio>

namespace perfbench {

void SpanLog::merge(const SpanLog& other) {
  const int32_t base = static_cast<int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

std::map<std::string, LayerTime> layer_times(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += double(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double d = double(spans[i].end_ns - spans[i].start_ns);
    LayerTime& t = out[spans[i].name];
    ++t.calls;
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
    t.durations_ns.push_back(d);
  }
  return out;
}

double span_p50(const std::map<std::string, LayerTime>& layers,
                const char* name, double scale) {
  auto it = layers.find(name);
  return it == layers.end() ? 0.0 : median(it->second.durations_ns) * scale;
}

void print_layer_table(const std::map<std::string, LayerTime>& layers) {
  std::printf("%-28s %10s %12s %12s %12s\n", "span", "calls", "total_ms",
              "self_ms", "p50_us");
  for (const auto& [name, t] : layers) {
    std::printf("%-28s %10ld %12.3f %12.3f %12.3f\n", name.c_str(), t.calls,
                t.total_ns * 1e-6, t.self_ns * 1e-6,
                median(t.durations_ns) * 1e-3);
  }
}

bool write_spans(const SpanLog& log, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"job\":%d}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.job);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
