// Span recorder of the benchmark driver.
//
// Spans are recorded from the driver's own code, around its calls into the
// program's modules (BmfFitter, basis::design_matrix, serve::Client, ...);
// nothing inside the program is instrumented. A span has a name, a start
// and an end on the steady clock, the span that was open around it on the
// same thread (its parent), and a request id shared by every span of one
// operation. Each recording thread owns one SpanLog, so recording takes no
// lock; the logs are kept in memory and written out when the run ends.
//
// A disabled log records nothing: a Scope on it costs one branch, so the
// untraced runs execute the same code as the traced ones.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
std::int64_t now_ns();

/// Seconds elapsed since `start_ns`.
double seconds_since(std::int64_t start_ns);

struct Span {
  const char* name = "";     // static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same SpanLog; -1 = root
  std::uint64_t request = 0;
};

/// One thread's spans. Externally synchronized: one recording thread each.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; a zero `request` inherits the enclosing span's id.
  /// Returns its index, or -1 when the log is disabled.
  std::int32_t open(const char* name, std::uint64_t request);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Share of span `index`'s duration that its direct children cover.
  double child_coverage(std::int32_t index) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;  // currently open spans
};

/// RAII span: open in the constructor, close in the destructor.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t request = 0)
      : log_(log), index_(log.enabled() ? log.open(name, request) : -1) {}
  ~Scope() {
    if (index_ >= 0) log_.close(index_);
  }
  /// The span's index in its log; -1 when the log is disabled.
  std::int32_t index() const { return index_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Per-name aggregate over the spans of several logs.
struct LayerTimes {
  std::vector<double> durations_s;  // one per span
  double self_s = 0.0;  // total duration minus the time direct children cover
};

std::map<std::string, LayerTimes> summarize(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as one JSON object per line, after a first line
/// holding `header_json` (the run context). Returns false on I/O failure.
bool write_trace(const std::string& path, const std::string& header_json,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
