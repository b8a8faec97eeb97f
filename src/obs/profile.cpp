#include "obs/profile.hpp"

#include <cstdio>
#include <cstring>

#include "obs/report.hpp"
#include "obs/span_record.hpp"
#include "util/osinfo.hpp"
#include "util/progress.hpp"

namespace rmsyn::obs {

namespace detail {

void ThreadRecord::clear_frames() {
  Frame root;
  std::strncpy(root.name, "root", sizeof root.name - 1);
  frames.assign(1, root);
  stack.assign(1, 0);
}

void ThreadRecord::frame_enter(const char* name) {
  const int32_t parent = stack.back();
  int32_t child = frames[static_cast<std::size_t>(parent)].first_child;
  while (child >= 0) {
    Frame& f = frames[static_cast<std::size_t>(child)];
    if (std::strncmp(f.name, name, sizeof f.name - 1) == 0) break;
    child = f.next_sibling;
  }
  if (child < 0) {
    if (frames.size() >= Profiler::kMaxNodes) {
      // Tree full: attribute this frame's time to the nearest ancestor.
      stack.push_back(parent);
      return;
    }
    child = static_cast<int32_t>(frames.size());
    Frame f;
    std::strncpy(f.name, name, sizeof f.name - 1);
    f.parent = parent;
    Frame& p = frames[static_cast<std::size_t>(parent)];
    f.next_sibling = p.first_child;
    p.first_child = child;
    frames.push_back(f);
  }
  stack.push_back(child);
}

void ThreadRecord::frame_exit(uint64_t dur_ns) {
  if (stack.size() <= 1) return; // unbalanced exit; ignore
  const int32_t idx = stack.back();
  stack.pop_back();
  Frame& f = frames[static_cast<std::size_t>(idx)];
  const int32_t parent = stack.back();
  if (idx == parent) return; // overflow frame: time already in the ancestor
  ++f.calls;
  f.incl_ns += dur_ns;
  frames[static_cast<std::size_t>(parent)].child_ns += dur_ns;
  if (stack.size() <= 2) {
    // Shallow frame (a stage or flow boundary, never a kernel hot path):
    // sample the process gauges here so the tree carries memory context.
    const double rss = peak_rss_mb();
    if (rss > f.peak_rss_mb) f.peak_rss_mb = rss;
    const double dd = static_cast<double>(
        ProgressBoard::instance().live_nodes.load(std::memory_order_relaxed));
    if (dd > f.dd_live_nodes) f.dd_live_nodes = dd;
  }
}

} // namespace detail

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::enable() {
  detail::span_consumers.fetch_or(detail::kProfile, std::memory_order_relaxed);
}

void Profiler::disable() {
  detail::span_consumers.fetch_and(~detail::kProfile,
                                   std::memory_order_relaxed);
}

void Profiler::reset() {
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (auto& rec : r.records) rec->clear_frames();
}

namespace {

/// Recursively merges a per-thread subtree into the output node, matching
/// children by name so identical stage paths from different threads (pool
/// workers running the same stage) fold together.
void merge_subtree(const std::vector<detail::Frame>& frames, int32_t idx,
                   Profiler::Node& out) {
  const detail::Frame& f = frames[static_cast<std::size_t>(idx)];
  out.calls += f.calls;
  out.incl_ns += f.incl_ns;
  if (f.peak_rss_mb > out.peak_rss_mb) out.peak_rss_mb = f.peak_rss_mb;
  if (f.dd_live_nodes > out.dd_live_nodes) out.dd_live_nodes = f.dd_live_nodes;
  for (int32_t c = f.first_child; c >= 0;
       c = frames[static_cast<std::size_t>(c)].next_sibling) {
    const detail::Frame& cf = frames[static_cast<std::size_t>(c)];
    Profiler::Node* slot = nullptr;
    for (Profiler::Node& n : out.children)
      if (n.name == cf.name) {
        slot = &n;
        break;
      }
    if (slot == nullptr) {
      out.children.emplace_back();
      slot = &out.children.back();
      slot->name = cf.name;
    }
    merge_subtree(frames, c, *slot);
  }
}

/// excl = incl - sum(children incl), clamped at 0; the root's inclusive
/// time is defined as the sum of its children (it never runs itself).
void finish_excl(Profiler::Node& n) {
  uint64_t child = 0;
  for (Profiler::Node& c : n.children) {
    finish_excl(c);
    child += c.incl_ns;
  }
  if (n.name == "root" && n.incl_ns == 0) n.incl_ns = child;
  n.excl_ns = n.incl_ns > child ? n.incl_ns - child : 0;
}

void fold_lines(const Profiler::Node& n, const std::string& prefix,
                std::string& out) {
  const std::string path =
      prefix.empty() ? n.name : prefix + ";" + n.name;
  if (n.excl_ns > 0 && n.name != "root") {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %llu\n",
                  static_cast<unsigned long long>(n.excl_ns / 1000));
    out += path;
    out += buf;
  }
  for (const Profiler::Node& c : n.children)
    fold_lines(c, n.name == "root" ? std::string() : path, out);
}

} // namespace

Profiler::Node Profiler::merged() const {
  Node root;
  root.name = "root";
  detail::Registry& r = detail::registry();
  std::lock_guard<std::mutex> lk(r.mu);
  for (const auto& rec : r.records) merge_subtree(rec->frames, 0, root);
  finish_excl(root);
  return root;
}

std::string Profiler::folded() const {
  const Node root = merged();
  std::string out;
  fold_lines(root, std::string(), out);
  return out;
}

void Profiler::write_folded(const std::string& path) const {
  write_text_file(path, folded());
}

} // namespace rmsyn::obs
