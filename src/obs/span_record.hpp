// The per-thread span record behind both span consumers (obs/trace.hpp,
// obs/profile.hpp). Internal to src/obs.
//
// Every thread that opens a captured span gets exactly one record, found
// through one thread_local pointer and registered under one mutex. The
// record carries the state of both exports side by side: the tracer's
// bounded event buffer (allocated on the thread's first traced span) and
// the profiler's frame tree and stack. Tracer::reset clears only the
// events, Profiler::reset only the frames. Records are owned by the
// registry and never freed, so exited pool workers still export and
// thread_local pointers into them stay valid across resets.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/trace.hpp"

namespace rmsyn::obs::detail {

/// One node of a thread's profiler attribution tree, keyed by span name
/// under its parent.
struct Frame {
  char name[48] = {0};
  int32_t parent = -1;
  int32_t first_child = -1;
  int32_t next_sibling = -1;
  uint64_t calls = 0;
  uint64_t incl_ns = 0;
  uint64_t child_ns = 0;
  double peak_rss_mb = 0.0;
  double dd_live_nodes = 0.0;
};

/// Owner-thread writes, export-time reads. The tracer part is a
/// single-producer buffer: the owner writes events[count] and publishes
/// with a release store of count; Tracer::snapshot reads count with
/// acquire and copies that prefix. The profiler part and `depth` are
/// owner-thread-only state, read at export after recording threads have
/// quiesced.
struct ThreadRecord {
  int tid = 0;
  uint32_t depth = 0; ///< open traced spans on this thread

  std::atomic<uint32_t> count{0};
  std::atomic<uint64_t> dropped{0};
  std::vector<SpanEvent> events; ///< sized on the first traced span

  std::vector<Frame> frames; ///< frames[0] is the synthetic root
  std::vector<int32_t> stack;

  ThreadRecord() { clear_frames(); }

  void clear_events() {
    count.store(0, std::memory_order_relaxed);
    dropped.store(0, std::memory_order_relaxed);
  }
  void clear_frames();

  /// Profiler hooks (obs/profile.cpp), called from Span::open/close.
  void frame_enter(const char* name);
  void frame_exit(uint64_t dur_ns);
};

struct Registry {
  std::mutex mu; ///< guards `records` only, never the recording path
  std::vector<std::unique_ptr<ThreadRecord>> records;
};
Registry& registry();

/// The calling thread's record, registered on first use.
ThreadRecord& this_thread_record();

} // namespace rmsyn::obs::detail
