#include "sched/pool.hpp"

#include "obs/metrics.hpp"

#include <chrono>
#include <cstdio>

namespace rmsyn {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Which pool (if any) the current thread is a worker of, and its slot.
struct SlotTag {
  const ThreadPool* pool = nullptr;
  int slot = -1;
};
thread_local SlotTag tls_slot;

} // namespace

// --- SchedStats -------------------------------------------------------------

uint64_t SchedStats::total_tasks() const {
  uint64_t n = 0;
  for (const auto& w : per_worker) n += w.tasks_run;
  return n;
}
uint64_t SchedStats::total_steals() const {
  uint64_t n = 0;
  for (const auto& w : per_worker) n += w.steals;
  return n;
}
uint64_t SchedStats::total_tasks_stolen() const {
  uint64_t n = 0;
  for (const auto& w : per_worker) n += w.tasks_stolen;
  return n;
}
double SchedStats::total_busy_seconds() const {
  double s = 0;
  for (const auto& w : per_worker) s += w.busy_seconds;
  return s;
}
double SchedStats::total_idle_seconds() const {
  double s = 0;
  for (const auto& w : per_worker) s += w.idle_seconds;
  return s;
}
std::size_t SchedStats::max_queue_depth() const {
  std::size_t d = 0;
  for (const auto& w : per_worker)
    if (w.peak_queue_depth > d) d = w.peak_queue_depth;
  return d;
}

void SchedStats::accumulate(const SchedStats& o) {
  if (o.workers > workers) workers = o.workers;
  if (per_worker.size() < o.per_worker.size())
    per_worker.resize(o.per_worker.size());
  for (std::size_t i = 0; i < o.per_worker.size(); ++i) {
    const WorkerStats& a = o.per_worker[i];
    WorkerStats& b = per_worker[i];
    b.tasks_run += a.tasks_run;
    b.steals += a.steals;
    b.tasks_stolen += a.tasks_stolen;
    b.steal_attempts += a.steal_attempts;
    b.busy_seconds += a.busy_seconds;
    b.idle_seconds += a.idle_seconds;
    if (a.peak_queue_depth > b.peak_queue_depth)
      b.peak_queue_depth = a.peak_queue_depth;
  }
}

std::string format_sched_summary(const SchedStats& s) {
  // Thin wrapper over the obs metrics registry (the dedup point for every
  // summary printer): absorb the stats, render the sched.* group.
  obs::MetricsRegistry m;
  m.absorb_sched(s);
  return obs::format_metrics_summary(m);
}

// --- ThreadPool -------------------------------------------------------------

ThreadPool::ThreadPool(int workers) {
  if (workers < 0) workers = 0;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.push_back(std::make_unique<Worker>());
  for (int i = 0; i < workers; ++i)
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_main(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(sleep_m_);
    stop_.store(true, std::memory_order_relaxed);
  }
  sleep_cv_.notify_all();
  for (auto& w : workers_)
    if (w->thread.joinable()) w->thread.join();
}

int ThreadPool::current_slot() const {
  return tls_slot.pool == this ? tls_slot.slot : worker_count();
}

void ThreadPool::note_depth(int slot) {
  // Caller holds the corresponding mutex.
  if (slot < worker_count()) {
    Worker& w = *workers_[static_cast<std::size_t>(slot)];
    if (w.deque.size() > w.stats.peak_queue_depth)
      w.stats.peak_queue_depth = w.deque.size();
  } else if (inject_.size() > peak_inject_depth_) {
    peak_inject_depth_ = inject_.size();
  }
}

void ThreadPool::enqueue(TaskRef t) {
  const int slot = current_slot();
  if (slot < worker_count()) {
    Worker& w = *workers_[static_cast<std::size_t>(slot)];
    std::lock_guard<std::mutex> lk(w.m);
    w.deque.push_back(std::move(t));
    note_depth(slot);
  } else {
    std::lock_guard<std::mutex> lk(inject_m_);
    inject_.push_back(std::move(t));
    note_depth(slot);
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  sleep_cv_.notify_one();
}

ThreadPool::TaskRef ThreadPool::steal_into(int thief_slot) {
  const int n = worker_count();
  WorkerStats* tstats = nullptr;
  // Deterministic round-robin victim scan starting after the thief; the
  // pool needs no RNG (and stays reproducible to profile).
  for (int k = 0; k < n; ++k) {
    const int victim = (thief_slot + 1 + k) % (n == 0 ? 1 : n);
    if (victim == thief_slot || victim >= n) continue;
    Worker& v = *workers_[static_cast<std::size_t>(victim)];
    std::vector<TaskRef> loot;
    {
      std::lock_guard<std::mutex> lk(v.m);
      const std::size_t have = v.deque.size();
      if (have > 0) {
        // Steal half (at least one), oldest first.
        const std::size_t take = (have + 1) / 2;
        for (std::size_t i = 0; i < take; ++i) {
          loot.push_back(std::move(v.deque.front()));
          v.deque.pop_front();
        }
      }
    }
    // Attribute the probe/steal to the thief.
    if (thief_slot < n) {
      Worker& t = *workers_[static_cast<std::size_t>(thief_slot)];
      std::lock_guard<std::mutex> lk(t.m);
      tstats = &t.stats;
      ++tstats->steal_attempts;
      if (!loot.empty()) {
        ++tstats->steals;
        tstats->tasks_stolen += loot.size();
        // First stolen task runs now; the rest join the thief's deque.
        for (std::size_t i = 1; i < loot.size(); ++i)
          t.deque.push_back(std::move(loot[i]));
        note_depth(thief_slot);
      }
    } else {
      std::lock_guard<std::mutex> lk(inject_m_);
      ++external_stats_.steal_attempts;
      if (!loot.empty()) {
        ++external_stats_.steals;
        external_stats_.tasks_stolen += loot.size();
        for (std::size_t i = 1; i < loot.size(); ++i)
          inject_.push_back(std::move(loot[i]));
        note_depth(worker_count());
      }
    }
    if (!loot.empty()) return std::move(loot[0]);
  }
  return nullptr;
}

ThreadPool::TaskRef ThreadPool::acquire(int slot) {
  // 1. Own deque, newest first (locality for nested fan-outs).
  if (slot < worker_count()) {
    Worker& w = *workers_[static_cast<std::size_t>(slot)];
    std::lock_guard<std::mutex> lk(w.m);
    if (!w.deque.empty()) {
      TaskRef t = std::move(w.deque.back());
      w.deque.pop_back();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return t;
    }
  }
  // 2. Injection queue, oldest first.
  {
    std::lock_guard<std::mutex> lk(inject_m_);
    if (!inject_.empty()) {
      TaskRef t = std::move(inject_.front());
      inject_.pop_front();
      pending_.fetch_sub(1, std::memory_order_relaxed);
      return t;
    }
  }
  // 3. Steal half of someone else's deque.
  if (TaskRef t = steal_into(slot)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    return t;
  }
  return nullptr;
}

void ThreadPool::run_task(const TaskRef& t, int slot) {
  const auto t0 = Clock::now();
  std::exception_ptr err = t->body();
  t->body = nullptr; // release captures promptly
  const double busy = seconds_since(t0);
  if (slot < worker_count()) {
    Worker& w = *workers_[static_cast<std::size_t>(slot)];
    std::lock_guard<std::mutex> lk(w.m);
    ++w.stats.tasks_run;
    w.stats.busy_seconds += busy;
  } else {
    std::lock_guard<std::mutex> lk(inject_m_);
    ++external_stats_.tasks_run;
    external_stats_.busy_seconds += busy;
  }
  // Fulfil the future only after the task is counted: a waiter that
  // returns and reads stats() must see it.
  t->finish(std::move(err));
}

void ThreadPool::worker_main(int slot) {
  tls_slot = SlotTag{this, slot};
  for (;;) {
    if (TaskRef t = acquire(slot)) {
      run_task(t, slot);
      continue;
    }
    std::unique_lock<std::mutex> lk(sleep_m_);
    if (stop_.load(std::memory_order_relaxed)) return;
    const auto t0 = Clock::now();
    sleep_cv_.wait(lk, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             pending_.load(std::memory_order_relaxed) > 0;
    });
    const double idle = seconds_since(t0);
    lk.unlock();
    {
      Worker& w = *workers_[static_cast<std::size_t>(slot)];
      std::lock_guard<std::mutex> slk(w.m);
      w.stats.idle_seconds += idle;
    }
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

void ThreadPool::help_until(sched_detail::TaskCore* core) {
  const int slot = current_slot();
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(core->m);
      if (core->done) return;
    }
    if (TaskRef t = acquire(slot)) {
      run_task(t, slot);
      continue;
    }
    // Nothing runnable here; park briefly on the future. The timed wait
    // re-scans the queues so work submitted by *other* threads (which
    // notifies sleep_cv_, not this future) is picked up promptly.
    std::unique_lock<std::mutex> lk(core->m);
    core->cv.wait_for(lk, std::chrono::microseconds(200),
                      [&] { return core->done; });
  }
}

SchedStats ThreadPool::stats() const {
  SchedStats s;
  s.workers = worker_count();
  s.per_worker.resize(static_cast<std::size_t>(slot_count()));
  for (int i = 0; i < worker_count(); ++i) {
    const Worker& w = *workers_[static_cast<std::size_t>(i)];
    std::lock_guard<std::mutex> lk(w.m);
    s.per_worker[static_cast<std::size_t>(i)] = w.stats;
  }
  {
    std::lock_guard<std::mutex> lk(inject_m_);
    WorkerStats ext = external_stats_;
    ext.peak_queue_depth = peak_inject_depth_;
    s.per_worker.back() = ext;
  }
  return s;
}

} // namespace rmsyn
