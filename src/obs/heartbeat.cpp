#include "obs/heartbeat.hpp"

#include <chrono>
#include <cstdio>

#include "obs/trace.hpp"
#include "util/progress.hpp"

namespace rmsyn::obs {

Heartbeat::Heartbeat(OutputSink& sink, double period_seconds) : sink_(sink) {
  ProgressBoard::instance().set_enabled(true);
  thread_ = std::thread([this, period_seconds] { run(period_seconds); });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  ProgressBoard::instance().set_enabled(false);
}

void Heartbeat::run(double period_seconds) {
  const uint64_t start_ns = now_ns();
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(period_seconds));
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    if (cv_.wait_for(lk, period, [this] { return stopping_; })) return;
    ProgressBoard& board = ProgressBoard::instance();
    const double elapsed = 1e-9 * static_cast<double>(now_ns() - start_ns);
    const uint64_t done = board.rows_done.load(std::memory_order_relaxed);
    const uint64_t total = board.rows_total.load(std::memory_order_relaxed);
    const std::size_t live = board.live_nodes.load(std::memory_order_relaxed);
    const std::string circuit = board.circuit();
    const std::string stage = board.stage();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "[hb %.1fs] rows %llu/%llu  circuit=%s  stage=%s  "
                  "live nodes %zu\n",
                  elapsed, static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(total),
                  circuit.empty() ? "-" : circuit.c_str(),
                  stage.empty() ? "-" : stage.c_str(), live);
    beats_.fetch_add(1, std::memory_order_relaxed);
    lk.unlock();
    sink_.write(buf);
    lk.lock();
  }
}

} // namespace rmsyn::obs
