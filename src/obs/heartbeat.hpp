// Heartbeat: a background thread that prints one progress line per period
// while a long run is in flight —
//
//   [hb 12.0s] rows 3/8  circuit=alu4  stage=fprm-extract  live nodes 48211
//
// The data comes from the ProgressBoard (util/progress.hpp): starting the
// heartbeat flips the board on, which is what tells the batch runner,
// obs::ScopedStage, and the governor's note_nodes() to start publishing.
// Output goes through an OutputSink so heartbeat lines can never shear the
// per-row status lines they interleave with. `rmsyn_cli table2/batch
// --heartbeat <seconds>` is the user-facing switch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "obs/sink.hpp"

namespace rmsyn::obs {

class Heartbeat {
public:
  /// Starts the background thread; a line is emitted every `period_seconds`
  /// until stop(). `sink` must outlive the heartbeat.
  Heartbeat(OutputSink& sink, double period_seconds);
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Joins the thread (idempotent) and switches the ProgressBoard off.
  void stop();

  /// Lines emitted so far (for tests).
  uint64_t beats() const { return beats_.load(std::memory_order_relaxed); }

private:
  void run(double period_seconds);

  OutputSink& sink_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::atomic<uint64_t> beats_{0}; // written by the monitor thread
  std::thread thread_;
};

} // namespace rmsyn::obs
