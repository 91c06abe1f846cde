#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

std::int32_t SpanLog::open(const char* name, std::uint64_t request) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.request = request != 0 || stack_.empty()
                     ? request
                     : spans_[static_cast<std::size_t>(stack_.back())].request;
  const auto index = static_cast<std::int32_t>(spans_.size());
  stack_.push_back(index);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return index;
}

void SpanLog::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes nest, so the closing span is the innermost open one.
  stack_.pop_back();
}

double SpanLog::child_coverage(std::int32_t index) const {
  const Span& span = spans_[static_cast<std::size_t>(index)];
  std::int64_t covered = 0;
  for (std::size_t i = static_cast<std::size_t>(index) + 1; i < spans_.size();
       ++i)
    if (spans_[i].parent == index)
      covered += spans_[i].end_ns - spans_[i].start_ns;
  const std::int64_t duration = span.end_ns - span.start_ns;
  return duration > 0 ? static_cast<double>(covered) /
                            static_cast<double>(duration)
                      : 0.0;
}

namespace {

/// Per-span time covered by its direct children, for one log.
std::vector<std::int64_t> child_time(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  return covered;
}

}  // namespace

std::map<std::string, LayerTimes> summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, LayerTimes> layers;
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> covered = child_time(*log);
    for (std::size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      LayerTimes& layer = layers[s.name];
      const std::int64_t duration = s.end_ns - s.start_ns;
      layer.durations_s.push_back(static_cast<double>(duration) * 1e-9);
      layer.self_s += static_cast<double>(duration - covered[i]) * 1e-9;
    }
  }
  return layers;
}

bool write_trace(const std::string& path, const std::string& header_json,
                 const std::vector<const SpanLog*>& logs) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> out(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!out) return false;
  std::fprintf(out.get(), "%s\n", header_json.c_str());
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<std::int64_t> covered = child_time(*logs[t]);
    const auto& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out.get(),
                   "{\"name\":\"%s\",\"thread\":%zu,\"id\":%zu,"
                   "\"parent\":%d,\"request\":%llu,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                   s.name, t, i, s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.end_ns - s.start_ns - covered[i]));
    }
  }
  return std::fflush(out.get()) == 0 && !std::ferror(out.get());
}

}  // namespace perfbench
