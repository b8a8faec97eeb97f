// Portable SIMD layer for the bit-parallel hot paths (DESIGN.md §15).
//
// Everything performance-critical in rmsyn is word-parallel Boolean
// algebra over arrays of 64-bit pattern words: good-value simulation,
// fault probing, signature compares and the packed cut truth-table
// kernels. This header exposes those inner loops as a small fixed set of
// kernels — and/or/xor (with fused complement), accumulate variants for
// n-ary gates, andnot, mux, any-bit / all-bits tests, an early-exit
// "do these differ" compare and a popcount — behind one dispatch table.
//
// Each kernel is written once, over a lane of one word or one 256-bit
// block (kBlockWords x 64, a GCC/Clang vector type), and compiled once per
// target: AVX2 maps a block onto one ymm op, NEON onto two 128-bit ops,
// scalar works one word per operation (auto-vectorization disabled: it is
// the honesty baseline of the bench_sim throughput gate). Arrays need no
// alignment, and tails shorter than a block fall back to word ops.
//
// Dispatch: the best target the host supports (AVX2 on x86-64, NEON on
// aarch64, scalar everywhere else) is selected once and can be overridden
// with RMSYN_SIMD=scalar|avx2|neon for testing, CI legs and benchmarking.
// All targets are bit-identical by contract: a kernel is a pure word-wise
// function, so the only thing a target changes is speed.
//
// Thread safety: ops() is safe to call from any thread after the first
// call. force_dispatch() swaps the active table and must only be called
// while no other thread is inside a kernel (tests and benches call it
// between phases).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rmsyn::simd {

/// Words per logical SIMD block (256 bits).
inline constexpr std::size_t kBlockWords = 4;

/// The kernel table. `invert` fuses the trailing complement (NAND/NOR/
/// XNOR gates) into the same pass over memory. dst may alias a or b in
/// every kernel (pure word-wise operations).
struct Ops {
  // dst[i] = a[i] OP b[i], complemented when invert.
  void (*v_and)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                std::size_t n, bool invert);
  void (*v_or)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
               std::size_t n, bool invert);
  void (*v_xor)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                std::size_t n, bool invert);
  // dst[i] OP= a[i] (n-ary gate folds).
  void (*v_and_acc)(uint64_t* dst, const uint64_t* a, std::size_t n);
  void (*v_or_acc)(uint64_t* dst, const uint64_t* a, std::size_t n);
  void (*v_xor_acc)(uint64_t* dst, const uint64_t* a, std::size_t n);
  // dst[i] = ~a[i] (callers re-mask the tail word).
  void (*v_not)(uint64_t* dst, const uint64_t* a, std::size_t n);
  // dst[i] = a[i] & ~b[i].
  void (*v_andnot)(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                   std::size_t n);
  // dst[i] = (m[i] & a[i]) | (~m[i] & b[i]) — lane select, used by the
  // batched cut truth-table kernel to splice leaf projections in.
  void (*v_mux)(uint64_t* dst, const uint64_t* m, const uint64_t* a,
                const uint64_t* b, std::size_t n);
  // True when any bit of a[0..n) is set (early exit per block).
  bool (*v_any)(const uint64_t* a, std::size_t n);
  // True when every bit of every word is set (tail handling is the
  // caller's problem — pass full words only).
  bool (*v_all)(const uint64_t* a, std::size_t n);
  // True when a and b differ anywhere: fused XOR + any-bit with early
  // exit, the fault-detection primitive.
  bool (*v_any_diff)(const uint64_t* a, const uint64_t* b, std::size_t n);
  // Population count over the array (signature stats, fault coverage).
  uint64_t (*v_popcount)(const uint64_t* a, std::size_t n);
};

/// The active kernel table. First call selects the best target the host
/// supports, honoring RMSYN_SIMD=scalar|avx2|neon (an unavailable request
/// falls back to the best available and warns once on stderr).
const Ops& ops();

/// Name of the active dispatch target: "scalar", "avx2" or "neon".
const char* dispatch_name();

/// Targets reachable on this host, best first (always contains "scalar").
std::vector<std::string> available_dispatches();

/// Forces a specific target (for tests and benches). Returns false and
/// leaves the dispatch unchanged when the target is unknown or the host
/// cannot run it. Not safe concurrently with running kernels.
bool force_dispatch(const std::string& name);

} // namespace rmsyn::simd
