// In-memory span tracer of the benchmark. Spans are recorded only by the
// benchmark's own code, around calls into rmsyn's public API; the library
// itself is never instrumented. Each thread keeps its own buffer and span
// stack, so parallel replays record without contention; buffers are
// merged once, when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rmbench {

struct SpanRecord {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0; ///< 0 = root span
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Monotonic clock in nanoseconds (steady_clock).
uint64_t now_ns();

/// Turns recording on or off for the calling thread. Off by default: a
/// disabled Span reads the clock once and records nothing.
void set_tracing(bool on);
bool tracing();

/// Turns recording on for the calling thread while in scope.
struct TracingOn {
  TracingOn() { set_tracing(true); }
  ~TracingOn() { set_tracing(false); }
  TracingOn(const TracingOn&) = delete;
  TracingOn& operator=(const TracingOn&) = delete;
};

/// RAII span. Nested spans on the same thread become children.
class Span {
public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Seconds since the span opened.
  double seconds() const;

private:
  std::size_t slot_ = 0;
  bool active_ = false;
  uint64_t start_ns_ = 0;
};

/// Thread-safe counters recorded at the same boundaries as the spans (only
/// while tracing is on).
void count(const std::string& name, double delta);
void count_max(const std::string& name, double value);
std::map<std::string, double> counters();

/// Every span recorded so far, from every thread. Call after all
/// recording threads have finished.
std::vector<SpanRecord> collect_spans();

struct SpanSummary {
  /// Per span name: total self time (duration minus the time covered by
  /// its child spans), in seconds.
  std::map<std::string, double> self_s;
  /// Per span name: total duration, children included, in seconds.
  std::map<std::string, double> total_s;
};
SpanSummary summarize(const std::vector<SpanRecord>& spans);

} // namespace rmbench
