// Scoped self-profiler — per-pass attribution trees over the span machinery.
//
// Where the tracer (obs/trace.hpp) answers "what happened when" with a flat
// event log, the profiler answers "who owns the time": every RMSYN_SPAN /
// ScopedStage that opens while profiling is enabled becomes a frame in a
// per-thread call tree keyed by the span-name path ("table2" -> "flow:f2"
// -> "polarity-search"). Each tree node accumulates calls, inclusive
// nanoseconds and the sum of its children's inclusive time, so exclusive
// time falls out as incl - child at export; peak-RSS and live-DD-node
// gauges are sampled at shallow frame exits (stage boundaries, not hot
// paths). Export formats: folded stacks ("a;b;c <excl_us>" — feed straight
// to flamegraph.pl or speedscope) and the nested `profile` block of the run
// report (obs/report.cpp); `rmsyn_cli ... --profile out.folded` is the user
// entry point.
//
// The frame tree lives in the same per-thread record as the tracer's event
// buffer (obs/span_record.hpp); Profiler is the second export over that
// one registry, so enabling it flips a bit in the consumer mask every span
// already reads (bench_obs gates that one load under the <1% flow-overhead
// gate). Enabled adds a child lookup (linear over siblings — stage trees
// have tens of distinct names) and two counter bumps per span; no
// allocation after a node exists, no locks on the recording path.
// Per-thread trees are capped at kMaxNodes; once full, new frames
// attribute their time to the nearest existing ancestor.
//
// Lifecycle matches the tracer: enable()/reset()/merged() are run-scoped
// main-thread operations and must not race recording threads (pool workers
// are joined at flow boundaries, which is where reports are built).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace rmsyn::obs {

class Profiler {
public:
  static Profiler& instance();

  void enable();
  void disable();
  static bool enabled() { return detail::consumer_on(detail::kProfile); }

  /// Drops every recorded frame (the tracer's events stay). Must not run
  /// concurrently with recording threads (call between runs, like
  /// Tracer::reset).
  void reset();

  /// Merged attribution tree across every recording thread. The root is a
  /// synthetic frame named "root" whose incl_ns is the sum of its
  /// children's; excl_ns is always incl minus children (>= 0).
  struct Node {
    std::string name;
    uint64_t calls = 0;
    uint64_t incl_ns = 0;
    uint64_t excl_ns = 0;
    double peak_rss_mb = 0.0;   ///< max RSS sampled at this frame's exits
    double dd_live_nodes = 0.0; ///< max live-DD gauge sampled at exits
    std::vector<Node> children;
  };
  Node merged() const;

  /// Folded-stack export: one "path;to;frame <exclusive_us>" line per
  /// node with nonzero exclusive time, ready for flamegraph.pl.
  std::string folded() const;
  /// Writes folded() to `path`; throws std::runtime_error on I/O failure.
  void write_folded(const std::string& path) const;

  /// Per-thread frame-tree capacity; overflow attributes to the parent.
  static constexpr std::size_t kMaxNodes = 4096;

private:
  Profiler() = default;
};

} // namespace rmsyn::obs
