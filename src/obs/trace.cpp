#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/report.hpp"
#include "obs/span_record.hpp"

namespace rmsyn::obs {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

Registry& registry() {
  static Registry r;
  return r;
}

ThreadRecord& this_thread_record() {
  thread_local ThreadRecord* tl = nullptr;
  if (tl == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.records.push_back(std::make_unique<ThreadRecord>());
    tl = r.records.back().get();
    tl->tid = static_cast<int>(r.records.size());
  }
  return *tl;
}

} // namespace detail

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  uint64_t expected = 0;
  origin_ns_.compare_exchange_strong(expected, now_ns(),
                                     std::memory_order_relaxed);
  detail::span_consumers.fetch_or(detail::kTrace, std::memory_order_relaxed);
}

void Tracer::disable() {
  detail::span_consumers.fetch_and(~detail::kTrace, std::memory_order_relaxed);
}

void Tracer::reset() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& rec : r.records) rec->clear_events();
  origin_ns_.store(now_ns(), std::memory_order_relaxed);
}

void Span::open(const char* name, unsigned mask) {
  std::strncpy(name_, name, sizeof name_ - 1);
  rec_ = &detail::this_thread_record();
  mask_ = mask;
  if ((mask & detail::kTrace) != 0) {
    if (rec_->events.empty()) rec_->events.resize(Tracer::kThreadCapacity);
    ++rec_->depth;
  }
  if ((mask & detail::kProfile) != 0) rec_->frame_enter(name_);
  start_ns_ = now_ns(); // last: exclude our own bookkeeping from the span
}

void Span::close() {
  const uint64_t end = now_ns();
  const uint64_t dur = end > start_ns_ ? end - start_ns_ : 0;
  if ((mask_ & detail::kProfile) != 0) rec_->frame_exit(dur);
  if ((mask_ & detail::kTrace) == 0) return;
  --rec_->depth;
  const uint32_t n = rec_->count.load(std::memory_order_relaxed);
  if (n >= Tracer::kThreadCapacity) {
    rec_->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanEvent& e = rec_->events[n];
  std::memcpy(e.name, name_, sizeof e.name);
  e.start_ns = start_ns_;
  e.dur_ns = dur;
  e.depth = static_cast<uint16_t>(rec_->depth);
  rec_->count.store(n + 1, std::memory_order_release);
}

Tracer::Snapshot Tracer::snapshot() const {
  Snapshot snap;
  snap.origin_ns = origin_ns_.load(std::memory_order_relaxed);
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& rec : r.records) {
    const uint32_t n = rec->count.load(std::memory_order_acquire);
    const uint64_t dropped = rec->dropped.load(std::memory_order_relaxed);
    if (n == 0 && dropped == 0) continue; // never traced, or reset since
    ThreadTrace t;
    t.tid = rec->tid;
    t.dropped = dropped;
    t.events.assign(rec->events.begin(), rec->events.begin() + n);
    snap.threads.push_back(std::move(t));
  }
  return snap;
}

Tracer::Summary Tracer::summary() const {
  const Snapshot snap = snapshot();
  Summary s;
  uint64_t first = UINT64_MAX, last = 0;
  for (const ThreadTrace& t : snap.threads) {
    if (!t.events.empty() || t.dropped > 0) ++s.threads;
    s.dropped += t.dropped;
    for (const SpanEvent& e : t.events) {
      ++s.events;
      if (e.depth == 0) s.span_seconds += 1e-9 * static_cast<double>(e.dur_ns);
      first = std::min(first, e.start_ns);
      last = std::max(last, e.start_ns + e.dur_ns);
    }
  }
  if (last > first) s.wall_seconds = 1e-9 * static_cast<double>(last - first);
  return s;
}

std::string Tracer::chrome_trace_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const ThreadTrace& t : snap.threads) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"rmsyn-%d\"}}",
                  first ? "" : ",", t.tid, t.tid);
    out += buf;
    first = false;
    for (const SpanEvent& e : t.events) {
      const double ts =
          1e-3 * static_cast<double>(e.start_ns - snap.origin_ns);
      const double dur = 1e-3 * static_cast<double>(e.dur_ns);
      out += ",\n{\"name\":\"";
      out += Json::escape(e.name);
      std::snprintf(buf, sizeof buf,
                    "\",\"cat\":\"rmsyn\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                    t.tid, ts, dur);
      out += buf;
    }
  }
  out += "\n]}\n";
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  write_text_file(path, chrome_trace_json());
}

} // namespace rmsyn::obs
