// Span tracer — the "where does the time go" half of the obs subsystem.
//
// RMSYN_SPAN("fprm-search") opens an RAII scope that, when tracing is
// enabled, records one completed span (name, start, duration, nesting
// depth) into a lock-free thread-local buffer: the recording path is a
// clock read plus a plain store published with one release-store of the
// buffer index — no mutex, no allocation, no cross-thread traffic. Buffers
// from every thread that ever recorded (pool workers included) are merged
// at export time into a single Chrome trace-event JSON that chrome://tracing
// and Perfetto load directly; `rmsyn_cli ... --trace out.json` is the
// user-facing entry point.
//
// One recorder, two exports. Each thread that opens a captured span gets
// one record (obs/span_record.hpp) holding the span depth, this tracer's
// event buffer and the profiler's frame tree (obs/profile.hpp); Tracer and
// Profiler are two views over that one registry. A span reads one consumer
// mask at open and looks its thread's record up once.
//
// Cost model. Tracing is OFF by default: a disabled RMSYN_SPAN is one
// relaxed load of the consumer mask and a branch (bench_obs measures it
// and gates the extrapolated flow overhead at < 1%, BENCH_obs.json).
// Compiling with -DRMSYN_NO_OBS removes the sites entirely. Enabled spans
// cost two clock reads and one 64-byte store; per-thread buffers are
// bounded (kThreadCapacity), allocated on the thread's first traced span
// (a profile-only run allocates none), and overflow by *dropping* new
// spans, counted in `dropped`, never by blocking or reallocating.
//
// Lifecycle. enable()/reset() are run-scoped operations for the main
// thread between runs; they must not race recording threads. Thread
// records are owned by the registry and survive their thread, so pool
// workers that exited before export still contribute their spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rmsyn::obs {

/// Monotonic nanoseconds (steady clock), shared by tracer and stage timers.
uint64_t now_ns();

namespace detail {
/// Span consumers, one bit each in the mask every span reads at open.
enum : unsigned { kTrace = 1u, kProfile = 2u };
inline std::atomic<unsigned> span_consumers{0};
inline bool consumer_on(unsigned bit) {
  return (span_consumers.load(std::memory_order_relaxed) & bit) != 0;
}
struct ThreadRecord;
} // namespace detail

/// One completed span. `name` is an owned, truncated copy so callers may
/// pass transient strings (e.g. "flow:" + circuit).
struct SpanEvent {
  char name[48] = {0};
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint16_t depth = 0; ///< nesting depth on the recording thread (0 = top)
};

class Tracer {
public:
  static Tracer& instance();

  /// Turns recording on (idempotent). The first enable stamps the trace
  /// origin; ts values in the export are relative to it.
  void enable();
  void disable();
  static bool enabled() { return detail::consumer_on(detail::kTrace); }

  /// Drops every recorded event (the profiler's frames stay) and re-stamps
  /// the origin. Must not run concurrently with recording threads (call
  /// between runs).
  void reset();

  struct ThreadTrace {
    int tid = 0;
    uint64_t dropped = 0;
    std::vector<SpanEvent> events;
  };
  struct Snapshot {
    uint64_t origin_ns = 0;
    std::vector<ThreadTrace> threads;
  };
  /// Consistent per-thread prefixes of everything recorded so far.
  Snapshot snapshot() const;

  /// Roll-up for run reports (the `trace` section of the report schema).
  struct Summary {
    uint64_t events = 0;
    uint64_t dropped = 0;
    int threads = 0;        ///< threads that recorded at least one span
    double span_seconds = 0.0; ///< sum of top-level (depth 0) durations
    double wall_seconds = 0.0; ///< last span end - first span start
  };
  Summary summary() const;

  /// Chrome trace-event JSON ("X" complete events + thread-name metadata);
  /// loadable by chrome://tracing and Perfetto.
  std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() to `path`; throws std::runtime_error on I/O
  /// failure.
  void write_chrome_trace(const std::string& path) const;

  /// Per-thread span capacity; further spans are dropped (and counted).
  static constexpr std::size_t kThreadCapacity = std::size_t{1} << 15;

private:
  Tracer() = default;

  std::atomic<uint64_t> origin_ns_{0};
};

/// RAII span; prefer the RMSYN_SPAN macro, which compiles out under
/// -DRMSYN_NO_OBS. The same site feeds both consumers: the tracer's flat
/// event log and the profiler's attribution tree, each gated by the
/// consumer mask at open time. A span that opened while a consumer was
/// enabled records at close even if the mask changed meanwhile (the
/// records outlive the flip; reset() is what discards them).
class Span {
public:
  explicit Span(const char* name) {
    const unsigned mask =
        detail::span_consumers.load(std::memory_order_relaxed);
    if (mask != 0) open(name, mask);
  }
  explicit Span(const std::string& name) : Span(name.c_str()) {}
  ~Span() {
    if (mask_ != 0) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  void open(const char* name, unsigned mask);
  void close();

  char name_[48] = {0};
  uint64_t start_ns_ = 0;
  detail::ThreadRecord* rec_ = nullptr;
  unsigned mask_ = 0; ///< consumers that captured this span at open
};

} // namespace rmsyn::obs

#ifndef RMSYN_NO_OBS
#define RMSYN_OBS_CONCAT_IMPL(a, b) a##b
#define RMSYN_OBS_CONCAT(a, b) RMSYN_OBS_CONCAT_IMPL(a, b)
/// Opens a trace span covering the rest of the enclosing scope.
#define RMSYN_SPAN(name) \
  ::rmsyn::obs::Span RMSYN_OBS_CONCAT(rmsyn_obs_span_, __LINE__)(name)
#else
#define RMSYN_SPAN(name) static_cast<void>(0)
#endif
