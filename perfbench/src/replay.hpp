// Stage-by-stage replays of rmsyn's flows, built only from public entry
// points, with a span around every call. A replay must produce exactly
// what the one-call API produces (the benchmark's replay-identity gate
// checks this), so the per-layer times it reports belong to the same
// program the end-to-end metrics measure.
#pragma once

#include <cstddef>
#include <string>

#include "benchgen/spec.hpp"
#include "flow/flow.hpp"
#include "network/network.hpp"

namespace rmbench {

/// The Table-2 columns of one row: the deterministic part of a FlowRow.
struct Columns {
  std::size_t ours_lits = 0;
  std::size_t ours_gates = 0;
  std::size_t ours_map_lits = 0;
  double ours_power = 0.0;
  std::size_t base_lits = 0;
  std::size_t base_gates = 0;
  std::size_t base_map_lits = 0;
  double base_power = 0.0;
  bool operator==(const Columns&) const = default;
};
Columns columns_of(const rmsyn::FlowRow& row);

/// synthesize(spec) with default SynthOptions, replayed stage by stage:
/// the ungoverned full rung (both PI orders, both factoring methods,
/// resub, redundancy removal, verification).
rmsyn::Network replay_synthesize(const rmsyn::Network& spec);

/// The power column run_flow reports for `net` of circuit `circuit`.
double flow_power(const rmsyn::Network& net, const std::string& circuit);

struct ReplayedRow {
  Columns cols;
  rmsyn::Network ours;
  rmsyn::Network base;
};

/// run_flow(bench) with default FlowOptions, replayed call by call.
ReplayedRow replay_flow(const rmsyn::Benchmark& bench);

/// Times the baseline's flatten and first simplify pass of `spec` on the
/// side, under a "baseline.probe" root span: the rest of the baseline
/// script is private. This is extra work that run_flow does not do.
void baseline_probe(const rmsyn::Network& spec);

} // namespace rmbench
