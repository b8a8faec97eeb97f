#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace rmbench {

namespace {

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open; ///< indices into spans
};

thread_local bool t_tracing = false;
std::atomic<uint64_t> g_next_id{1};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers; // guarded by g_buffers_mu

std::mutex g_counters_mu;
std::map<std::string, double> g_counters; // guarded by g_counters_mu

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_unique<ThreadBuffer>();
    ThreadBuffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
    return raw;
  }();
  return *buf;
}

} // namespace

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_tracing(bool on) { t_tracing = on; }
bool tracing() { return t_tracing; }

Span::Span(const char* name) : start_ns_(now_ns()) {
  if (!tracing()) return;
  ThreadBuffer& buf = local_buffer();
  SpanRecord rec;
  rec.name = name;
  rec.id = g_next_id.fetch_add(1);
  rec.parent = buf.open.empty() ? 0 : buf.spans[buf.open.back()].id;
  rec.start_ns = start_ns_;
  slot_ = buf.spans.size();
  buf.spans.push_back(std::move(rec));
  buf.open.push_back(slot_);
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  ThreadBuffer& buf = local_buffer();
  buf.spans[slot_].end_ns = now_ns();
  buf.open.pop_back();
}

double Span::seconds() const {
  return 1e-9 * static_cast<double>(now_ns() - start_ns_);
}

void count(const std::string& name, double delta) {
  if (!tracing()) return;
  std::lock_guard<std::mutex> lock(g_counters_mu);
  g_counters[name] += delta;
}

void count_max(const std::string& name, double value) {
  if (!tracing()) return;
  std::lock_guard<std::mutex> lock(g_counters_mu);
  auto [it, inserted] = g_counters.emplace(name, value);
  if (!inserted) it->second = std::max(it->second, value);
}

std::map<std::string, double> counters() {
  std::lock_guard<std::mutex> lock(g_counters_mu);
  return g_counters;
}

std::vector<SpanRecord> collect_spans() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<SpanRecord> all;
  for (const auto& buf : g_buffers)
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  return all;
}

SpanSummary summarize(const std::vector<SpanRecord>& spans) {
  // Children of one parent run on the parent's thread and nest inside it,
  // so their durations never overlap and can simply be summed.
  std::unordered_map<uint64_t, uint64_t> child_ns;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  SpanSummary sum;
  for (const SpanRecord& s : spans) {
    const uint64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const uint64_t covered = it == child_ns.end() ? 0 : it->second;
    sum.self_s[s.name] += 1e-9 * static_cast<double>(dur - covered);
    sum.total_s[s.name] += 1e-9 * static_cast<double>(dur);
  }
  return sum;
}

} // namespace rmbench
