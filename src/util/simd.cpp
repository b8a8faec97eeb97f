#include "util/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>

namespace rmsyn::simd {
namespace {

// A kernel body is written once over W, the words one operation acts on:
// W = 1 is a plain word, W = kBlockWords a 256-bit GCC/Clang vector,
// unaligned and may_alias like the compilers' own __m256i_u, so at<W>()
// works on word arrays in place. The vector is only named through LaneOf:
// a template argument would drop its aligned/may_alias attributes.
template <std::size_t W> struct LaneOf { using type = uint64_t; };
template <>
struct LaneOf<kBlockWords> {
  typedef uint64_t type __attribute__((vector_size(kBlockWords * 8),
                                       aligned(8), may_alias));
};
template <std::size_t W> using Lane = typename LaneOf<W>::type;

// Helpers and bodies inline into the per-target entry points below, so they
// compile for that target; no lane crosses a call by value.
#define RMSYN_INLINE inline __attribute__((always_inline))

template <std::size_t W>
RMSYN_INLINE Lane<W>& at(uint64_t* p) {
  return *reinterpret_cast<Lane<W>*>(p);
}
template <std::size_t W>
RMSYN_INLINE const Lane<W>& at(const uint64_t* p) {
  return *reinterpret_cast<const Lane<W>*>(p);
}

static_assert(kBlockWords == 4, "the reductions and kFlip spell out 4 words");

// any_bit folds the halves in the vector unit: one shuffle, not 4 extracts.
template <std::size_t W>
RMSYN_INLINE bool any_bit(const Lane<W>& v) {
  if constexpr (W == 1) return v != 0;
  else {
    const Lane<W> h = v | __builtin_shufflevector(v, v, 2, 3, 0, 1);
    return (h[0] | h[1]) != 0;
  }
}

template <std::size_t W>
RMSYN_INLINE uint64_t bit_count(const Lane<W>& v) {
  if constexpr (W == 1) return static_cast<uint64_t>(std::popcount(v));
  else return bit_count<1>(v[0]) + bit_count<1>(v[1]) + bit_count<1>(v[2]) +
              bit_count<1>(v[3]);
}

// The fused complement's operand, indexed by `invert` so no branch picks
// it; kernels copy it to a local lane, or every may_alias store through
// dst would force a reload.
constexpr uint64_t kFlip[2][kBlockWords] = {{}, {~0ull, ~0ull, ~0ull, ~0ull}};

// The scalar instance processes one word per operation (bench_sim's 1.5x
// gate compares against it): an attribute on GCC's scalar entry points, a
// pragma on every kernel loop for clang, which also keeps clang from
// interleaving the block loops (clang builds are not measured).
#if defined(__clang__)
#define RMSYN_NO_AUTOVEC \
  _Pragma("clang loop vectorize(disable) interleave(disable)")
#define RMSYN_SCALAR_FN
#else
#define RMSYN_NO_AUTOVEC
#define RMSYN_SCALAR_FN \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#endif

// The kernels. The loop covers the whole lanes; a block instance hands the
// tail to its own word instance. Each lane is read before it is written, so
// dst may alias any input.

// The tail's length, n - i. Telling the compiler it is below W lets it
// unroll the word loop that follows a block loop.
template <std::size_t W>
RMSYN_INLINE std::size_t tail(std::size_t n, std::size_t i) {
  if (n - i >= W) __builtin_unreachable();
  return n - i;
}

// The binary and accumulate kernels share one body, parameterized by the
// operator: d = (x OP y) ^ flip. Lanes pass by reference (a vector by value
// through a helper built without AVX changes the ABI, -Wpsabi) and as
// Lane<W>, never as a deduced type (see LaneOf).
enum class Op { And, Or, Xor };

template <Op O, std::size_t W>
RMSYN_INLINE void apply(Lane<W>& d, const Lane<W>& x, const Lane<W>& y,
                        const Lane<W>& flip) {
  if constexpr (O == Op::And) d = (x & y) ^ flip;
  else if constexpr (O == Op::Or) d = (x | y) ^ flip;
  else d = (x ^ y) ^ flip;
}

template <Op O, std::size_t W>
RMSYN_INLINE void k_op(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                       std::size_t n, bool invert) {
  const Lane<W> flip = at<W>(kFlip[invert]);
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W)
    apply<O, W>(at<W>(dst + i), at<W>(a + i), at<W>(b + i), flip);
  if constexpr (W > 1)
    k_op<O, 1>(dst + i, a + i, b + i, tail<W>(n, i), invert);
}

// dst OP= a is dst = dst OP a, uncomplemented.
template <Op O, std::size_t W>
RMSYN_INLINE void k_acc(uint64_t* dst, const uint64_t* a, std::size_t n) {
  k_op<O, W>(dst, dst, a, n, false);
}

template <std::size_t W>
RMSYN_INLINE void k_not(uint64_t* dst, const uint64_t* a, std::size_t n) {
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W) at<W>(dst + i) = ~at<W>(a + i);
  if constexpr (W > 1) k_not<1>(dst + i, a + i, tail<W>(n, i));
}

template <std::size_t W>
RMSYN_INLINE void k_andnot(uint64_t* dst, const uint64_t* a,
                           const uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W)
    at<W>(dst + i) = at<W>(a + i) & ~at<W>(b + i);
  if constexpr (W > 1) k_andnot<1>(dst + i, a + i, b + i, tail<W>(n, i));
}

template <std::size_t W>
RMSYN_INLINE void k_mux(uint64_t* dst, const uint64_t* m, const uint64_t* a,
                        const uint64_t* b, std::size_t n) {
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W)
    at<W>(dst + i) =
        (at<W>(m + i) & at<W>(a + i)) | (~at<W>(m + i) & at<W>(b + i));
  if constexpr (W > 1) k_mux<1>(dst + i, m + i, a + i, b + i, tail<W>(n, i));
}

template <std::size_t W>
RMSYN_INLINE bool k_any(const uint64_t* a, std::size_t n) {
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W)
    if (any_bit<W>(at<W>(a + i))) return true;
  if constexpr (W > 1) return k_any<1>(a + i, tail<W>(n, i));
  return false;
}

template <std::size_t W>
RMSYN_INLINE bool k_all(const uint64_t* a, std::size_t n) {
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W)
    if (any_bit<W>(~at<W>(a + i))) return false;
  if constexpr (W > 1) return k_all<1>(a + i, tail<W>(n, i));
  return true;
}

template <std::size_t W>
RMSYN_INLINE bool k_any_diff(const uint64_t* a, const uint64_t* b,
                             std::size_t n) {
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W)
    if (any_bit<W>(at<W>(a + i) ^ at<W>(b + i))) return true;
  if constexpr (W > 1) return k_any_diff<1>(a + i, b + i, tail<W>(n, i));
  return false;
}

template <std::size_t W>
RMSYN_INLINE uint64_t k_popcount(const uint64_t* a, std::size_t n) {
  uint64_t total = 0;
  std::size_t i = 0;
  RMSYN_NO_AUTOVEC for (; i + W <= n; i += W)
    total += bit_count<W>(at<W>(a + i));
  if constexpr (W > 1) total += k_popcount<1>(a + i, tail<W>(n, i));
  return total;
}

// One Ops table per target: On<K>::call is kernel K compiled with the
// target's attribute. AVX2's lets the file build without -mavx2 (it runs
// only after the CPUID check) and names popcnt, which clang's avx2 does not
// imply; NEON is baseline on aarch64.
template <template <auto> class On, std::size_t W>
constexpr Ops make_ops() {
  return {On<&k_op<Op::And, W>>::call,  On<&k_op<Op::Or, W>>::call,
          On<&k_op<Op::Xor, W>>::call,  On<&k_acc<Op::And, W>>::call,
          On<&k_acc<Op::Or, W>>::call,  On<&k_acc<Op::Xor, W>>::call,
          On<&k_not<W>>::call,          On<&k_andnot<W>>::call,
          On<&k_mux<W>>::call,    On<&k_any<W>>::call,
          On<&k_all<W>>::call,    On<&k_any_diff<W>>::call,
          On<&k_popcount<W>>::call};
}

#define RMSYN_TARGET(On, ATTR)                           \
  template <auto K>                                      \
  struct On;                                             \
  template <class R, class... A, R (*K)(A...)>           \
  struct On<K> {                                         \
    ATTR static R call(A... args) { return K(args...); } \
  };

RMSYN_TARGET(OnScalar, RMSYN_SCALAR_FN)
#if defined(__x86_64__)
RMSYN_TARGET(OnAvx2, __attribute__((target("avx2,popcnt"))))
#endif
#if defined(__aarch64__)
RMSYN_TARGET(OnNeon, )
#endif

// Every target, best first. One this build or host cannot run keeps its
// name with runs = false, so RMSYN_SIMD tells "unknown" from "not here".
// The table sits in the entry by value: ops() costs no extra load.
struct Target { const char* name; bool runs; Ops ops; };

std::span<const Target> targets() {
  static const Target list[] = {
#if defined(__x86_64__)
      {"avx2",
       __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt"),
       make_ops<OnAvx2, kBlockWords>()},
#else
      {"avx2", false, {}},
#endif
#if defined(__aarch64__)
      {"neon", true, make_ops<OnNeon, kBlockWords>()},
#else
      {"neon", false, {}},
#endif
      {"scalar", true, make_ops<OnScalar, 1>()},
  };
  return list;
}

/// The target named `name`, runnable or not; null when unknown.
const Target* find(const char* name) {
  for (const Target& t : targets())
    if (std::strcmp(t.name, name) == 0) return &t;
  return nullptr;
}

// Out of line, so ops() (called per gate evaluation) stays a load and a
// test instead of inheriting this function's register saves.
__attribute__((noinline, cold)) const Target* select_initial() {
  const Target* best = targets().data();
  while (!best->runs) ++best; // scalar always runs
  const char* env = std::getenv("RMSYN_SIMD");
  if (!env) return best;
  const Target* want = find(env);
  if (want && want->runs) return want;
  std::fprintf(stderr, "rmsyn: RMSYN_SIMD=%s is %s; using %s\n", env,
               want ? "not available on this host"
                    : "not a known target (scalar|avx2|neon)",
               best->name);
  return best;
}

std::atomic<const Target*> g_target{nullptr};

const Target* active() {
  if (const Target* t = g_target.load(std::memory_order_acquire)) return t;
  // Benign race: every thread computes the same answer from the same
  // env/CPUID inputs, so last-writer-wins is fine.
  const Target* t = select_initial();
  g_target.store(t, std::memory_order_release);
  return t;
}

} // namespace

const Ops& ops() { return active()->ops; }

const char* dispatch_name() { return active()->name; }

std::vector<std::string> available_dispatches() {
  std::vector<std::string> out;
  for (const Target& t : targets())
    if (t.runs) out.emplace_back(t.name);
  return out;
}

bool force_dispatch(const std::string& name) {
  const Target* want = find(name.c_str());
  if (!want || !want->runs) return false;
  g_target.store(want, std::memory_order_release);
  return true;
}

} // namespace rmsyn::simd
