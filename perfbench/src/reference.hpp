// Independent reference for every output the benchmark checks. It reads a
// Network only through its structural accessors (gate type, fanins, PIs,
// POs) and evaluates it with its own topological sort and gate semantics,
// 64 patterns per machine word. rmsyn's own simulators and equivalence
// checker are deliberately not used, so a bug there cannot hide a wrong
// result here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "network/network.hpp"

namespace rmbench {

struct RefCheck {
  bool ok = true;
  std::string reason;
};

/// Compares `impl` with `spec` output by output: exhaustively when there
/// are at most 16 PIs, otherwise on 4096 seeded random patterns (among
/// them all-zero and all-one).
RefCheck check_against_spec(const rmsyn::Network& spec,
                            const rmsyn::Network& impl, uint64_t seed);

/// Compares `impl` with integer arithmetic for the generated families:
/// "adderN" (PIs a0 b0 a1 b1 ... cin; POs s0..s(N-1) cout) and "multN"
/// (PIs a0..a(N-1) b0..b(N-1); POs p0..p(2N-1)), on 1024 operand pairs:
/// carry-propagation corner cases, then seeded random ones.
RefCheck check_arithmetic(const std::string& circuit,
                          const rmsyn::Network& impl, uint64_t seed);

} // namespace rmbench
