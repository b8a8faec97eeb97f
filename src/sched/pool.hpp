// Work-stealing thread pool — the repo's first concurrency layer.
//
// Design (substrate for the parallel synthesis scheduler, see DESIGN.md §8):
//  * Fixed worker threads created up front; no std::async, no thread churn.
//  * One deque per worker. The owner pushes and pops at the back (LIFO, for
//    locality of nested fan-outs); thieves steal *half* the queue from the
//    front (FIFO — the oldest, typically largest tasks migrate first).
//    External (non-worker) submitters go through a global injection queue
//    that workers drain before stealing.
//  * Lightweight futures: a Future<T> is a shared completion record; no
//    std::future, no allocation beyond the one shared state per task.
//  * Helping wait. ThreadPool::wait(fut) RUNS queued tasks while the future
//    is pending instead of blocking, so (a) a pool with zero worker threads
//    degenerates to exact serial execution on the caller, and (b) nested
//    fan-outs (a level-1 flow task fanning level-2 polarity chunks onto the
//    same pool) cannot deadlock: the waiter works the queue it waits on.
//  * Observability: per-worker tasks run, steal operations and tasks
//    stolen, busy/idle seconds, peak queue depth — aggregated into
//    SchedStats and printed by format_sched_summary next to the DD-kernel
//    summary block.
//
// Determinism contract: the pool itself imposes no ordering; determinism is
// the *callers'* responsibility and is achieved by reduction, not by
// scheduling — every parallel site in rmsyn reduces worker results in a
// canonical order ((cost, polarity-vector) lexicographic, row index, ...)
// so `--jobs N` output is bit-identical to serial. See sched/batch.hpp and
// the fan-outs in fdd/fprm.cpp, fdd/kfdd.cpp.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace rmsyn {

/// Per-worker observability counters. The last slot of
/// SchedStats::per_worker belongs to external helper threads (a caller
/// inside ThreadPool::wait runs tasks too and is accounted separately).
struct WorkerStats {
  uint64_t tasks_run = 0;
  uint64_t steals = 0;         ///< successful steal operations (batches)
  uint64_t tasks_stolen = 0;   ///< tasks acquired by stealing
  uint64_t steal_attempts = 0; ///< victim probes, successful or not
  double busy_seconds = 0.0;   ///< time spent inside task bodies
  double idle_seconds = 0.0;   ///< time spent parked waiting for work
  std::size_t peak_queue_depth = 0;
};

/// Pool-wide scheduler statistics (see ThreadPool::stats).
struct SchedStats {
  int workers = 0; ///< worker threads (excludes the external helper slot)
  std::vector<WorkerStats> per_worker; ///< size workers+1; last = external

  uint64_t total_tasks() const;
  uint64_t total_steals() const;
  uint64_t total_tasks_stolen() const;
  double total_busy_seconds() const;
  double total_idle_seconds() const;
  std::size_t max_queue_depth() const;
  void accumulate(const SchedStats& o);
};

/// Multi-line human-readable block, printed beside
/// format_dd_kernel_summary by the CLI and bench harnesses.
std::string format_sched_summary(const SchedStats& s);

namespace sched_detail {
/// Shared completion record of one submitted task.
struct TaskCore {
  /// Runs the task, returning its exception if any; the pool counts the
  /// task before it calls finish(). Cleared after execution.
  std::function<std::exception_ptr()> body;
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;

  bool ready() {
    std::lock_guard<std::mutex> lk(m);
    return done;
  }
  void finish(std::exception_ptr err) {
    {
      std::lock_guard<std::mutex> lk(m);
      done = true;
      error = std::move(err);
    }
    cv.notify_all();
  }
};
} // namespace sched_detail

/// Lightweight one-shot future; wait through ThreadPool::wait (helping) or
/// block with wait_blocking(). Movable and copyable (shared state).
template <typename T>
class Future {
public:
  Future() = default;
  bool valid() const { return core_ != nullptr; }
  bool ready() const { return core_ != nullptr && core_->ready(); }

  /// Blocks without helping; prefer ThreadPool::wait.
  void wait_blocking() {
    std::unique_lock<std::mutex> lk(core_->m);
    core_->cv.wait(lk, [&] { return core_->done; });
  }

  /// Moves the result out (rethrows the task's exception). The future must
  /// be done — i.e. after ThreadPool::wait/wait_blocking returned.
  T take() {
    if (core_->error) std::rethrow_exception(core_->error);
    return std::move(**value_);
  }

private:
  friend class ThreadPool;
  std::shared_ptr<sched_detail::TaskCore> core_;
  std::shared_ptr<std::optional<T>> value_;
};

class ThreadPool {
public:
  /// Spawns `workers` threads (0 is valid: every task then runs inside
  /// helping waits on the calling thread — exact serial execution).
  explicit ThreadPool(int workers);
  /// Joins the workers. All submitted futures must have been waited; tasks
  /// still queued at destruction are abandoned (their futures never
  /// complete).
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }
  /// Distinct execution slots: workers + the external helper slot. Useful
  /// for sizing per-slot scratch state (e.g. per-worker DD manager clones).
  int slot_count() const { return worker_count() + 1; }
  /// Slot of the calling thread: 0..workers-1 on a worker of THIS pool,
  /// slot_count()-1 (the external slot) on any other thread.
  int current_slot() const;

  /// Submits a callable; returns its future. Worker threads push onto
  /// their own deque (stolen by others when they fall idle); external
  /// threads go through the injection queue.
  template <typename F>
  auto submit(F&& fn) -> Future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    static_assert(!std::is_void_v<R>,
                  "submit a callable returning a value (use a bool for "
                  "pure-effect tasks)");
    Future<R> fut;
    fut.core_ = std::make_shared<sched_detail::TaskCore>();
    fut.value_ = std::make_shared<std::optional<R>>();
    auto core = fut.core_;
    auto value = fut.value_;
    core->body = [value, fn = std::forward<F>(fn)]() mutable {
      try {
        value->emplace(fn());
      } catch (...) {
        return std::current_exception();
      }
      return std::exception_ptr();
    };
    enqueue(core);
    return fut;
  }

  /// Helping wait: runs queued tasks while `fut` is pending, then moves the
  /// result out (rethrowing the task's exception).
  template <typename T>
  T wait(Future<T>& fut) {
    help_until(fut.core_.get());
    return fut.take();
  }

  /// Snapshot of the per-worker counters (consistent per worker; safe to
  /// call while the pool runs).
  SchedStats stats() const;

private:
  using TaskRef = std::shared_ptr<sched_detail::TaskCore>;

  struct Worker {
    mutable std::mutex m; ///< guards deque + stats
    std::deque<TaskRef> deque;
    WorkerStats stats;
    std::thread thread;
  };

  void enqueue(TaskRef t);
  void worker_main(int slot);
  void help_until(sched_detail::TaskCore* core);
  /// Own deque (workers only) → injection queue → steal-half. Returns null
  /// when no work is visible anywhere.
  TaskRef acquire(int slot);
  TaskRef steal_into(int thief_slot);
  void run_task(const TaskRef& t, int slot);
  void note_depth(int slot);

  std::vector<std::unique_ptr<Worker>> workers_;
  mutable std::mutex inject_m_; ///< guards injection queue + external stats
  std::deque<TaskRef> inject_;
  WorkerStats external_stats_;
  std::size_t peak_inject_depth_ = 0;

  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<int64_t> pending_{0}; ///< queued-but-not-yet-acquired tasks
  std::atomic<bool> stop_{false};
};

} // namespace rmsyn
