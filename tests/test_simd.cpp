// SIMD kernel layer tests (util/simd.hpp): every kernel must be
// bit-identical to a plain word-loop reference under EVERY dispatch
// target reachable on the host — the whole contract of the layer is that
// a target only changes speed, never a single bit. Sizes sweep across
// block boundaries (0, sub-block tails, exact blocks, long arrays), and
// every writing kernel also runs with dst aliasing each of its inputs,
// since the kernels promise aliasing safety.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace rmsyn {
namespace {

using simd::Ops;

std::vector<uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<uint64_t> v(n);
  for (auto& w : v) w = rng.next();
  return v;
}

const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 64, 100};

/// Runs `check` once per reachable dispatch target, with the target
/// forced, and restores the default dispatch afterwards.
void for_each_dispatch(const std::function<void(const std::string&)>& check) {
  const std::string saved = simd::dispatch_name();
  for (const std::string& target : simd::available_dispatches()) {
    ASSERT_TRUE(simd::force_dispatch(target));
    ASSERT_EQ(target, simd::dispatch_name());
    check(target);
  }
  ASSERT_TRUE(simd::force_dispatch(saved));
}

/// Runs a writing kernel over copies of `in`: once into a separate dst,
/// then once with dst aliasing each input in turn. Every run must
/// produce `want`.
void expect_with_aliasing(
    const std::vector<std::vector<uint64_t>>& in,
    const std::vector<uint64_t>& want,
    const std::function<void(uint64_t*, const std::vector<uint64_t*>&)>& run,
    const std::string& what) {
  for (std::size_t alias = 0; alias <= in.size(); ++alias) {
    std::vector<std::vector<uint64_t>> copy = in;
    std::vector<uint64_t*> ptrs;
    for (auto& v : copy) ptrs.push_back(v.data());
    std::vector<uint64_t> separate(want.size(), 0);
    uint64_t* dst = alias < in.size() ? ptrs[alias] : separate.data();
    run(dst, ptrs);
    EXPECT_EQ(std::vector<uint64_t>(dst, dst + want.size()), want)
        << what << " n=" << want.size()
        << (alias < in.size() ? " dst aliases input " + std::to_string(alias)
                              : std::string());
  }
}

TEST(Simd, BinaryKernelsMatchReferenceUnderEveryDispatch) {
  for_each_dispatch([](const std::string& target) {
    Rng rng(0x51AD ^ target.size());
    for (const std::size_t n : kSizes) {
      const auto a = random_words(n, rng);
      const auto b = random_words(n, rng);
      std::vector<uint64_t> want(n, 0);
      const Ops& k = simd::ops();
      using Ptrs = const std::vector<uint64_t*>&;
      for (const bool inv : {false, true}) {
        const std::string suffix = " inv=" + std::to_string(inv);
        for (std::size_t i = 0; i < n; ++i)
          want[i] = inv ? ~(a[i] & b[i]) : (a[i] & b[i]);
        expect_with_aliasing({a, b}, want, [&](uint64_t* d, Ptrs in) {
          k.v_and(d, in[0], in[1], n, inv);
        }, target + " v_and" + suffix);

        for (std::size_t i = 0; i < n; ++i)
          want[i] = inv ? ~(a[i] | b[i]) : (a[i] | b[i]);
        expect_with_aliasing({a, b}, want, [&](uint64_t* d, Ptrs in) {
          k.v_or(d, in[0], in[1], n, inv);
        }, target + " v_or" + suffix);

        for (std::size_t i = 0; i < n; ++i)
          want[i] = inv ? ~(a[i] ^ b[i]) : (a[i] ^ b[i]);
        expect_with_aliasing({a, b}, want, [&](uint64_t* d, Ptrs in) {
          k.v_xor(d, in[0], in[1], n, inv);
        }, target + " v_xor" + suffix);
      }
      for (std::size_t i = 0; i < n; ++i) want[i] = a[i] & ~b[i];
      expect_with_aliasing({a, b}, want, [&](uint64_t* d, Ptrs in) {
        k.v_andnot(d, in[0], in[1], n);
      }, target + " v_andnot");

      for (std::size_t i = 0; i < n; ++i) want[i] = ~a[i];
      expect_with_aliasing({a}, want, [&](uint64_t* d, Ptrs in) {
        k.v_not(d, in[0], n);
      }, target + " v_not");

      const auto m = random_words(n, rng);
      for (std::size_t i = 0; i < n; ++i)
        want[i] = (m[i] & a[i]) | (~m[i] & b[i]);
      expect_with_aliasing({m, a, b}, want, [&](uint64_t* d, Ptrs in) {
        k.v_mux(d, in[0], in[1], in[2], n);
      }, target + " v_mux");
    }
  });
}

TEST(Simd, AccumulateKernelsMatchReferenceAndTolerateAliasing) {
  for_each_dispatch([](const std::string& target) {
    Rng rng(0xACC ^ target.size());
    for (const std::size_t n : kSizes) {
      const auto a = random_words(n, rng);
      const auto base = random_words(n, rng);
      std::vector<uint64_t> dst, want(n);
      const Ops& k = simd::ops();

      // dst OP= a, then dst OP= dst (a aliasing dst).
      dst = base;
      k.v_and_acc(dst.data(), a.data(), n);
      for (std::size_t i = 0; i < n; ++i) want[i] = base[i] & a[i];
      EXPECT_EQ(dst, want) << target << " v_and_acc n=" << n;
      dst = base;
      k.v_and_acc(dst.data(), dst.data(), n);
      EXPECT_EQ(dst, base) << target << " aliased v_and_acc n=" << n;

      dst = base;
      k.v_or_acc(dst.data(), a.data(), n);
      for (std::size_t i = 0; i < n; ++i) want[i] = base[i] | a[i];
      EXPECT_EQ(dst, want) << target << " v_or_acc n=" << n;
      dst = base;
      k.v_or_acc(dst.data(), dst.data(), n);
      EXPECT_EQ(dst, base) << target << " aliased v_or_acc n=" << n;

      dst = base;
      k.v_xor_acc(dst.data(), a.data(), n);
      for (std::size_t i = 0; i < n; ++i) want[i] = base[i] ^ a[i];
      EXPECT_EQ(dst, want) << target << " v_xor_acc n=" << n;
      dst = base;
      k.v_xor_acc(dst.data(), dst.data(), n);
      EXPECT_EQ(dst, std::vector<uint64_t>(n, 0))
          << target << " aliased v_xor_acc n=" << n;

      // dst aliasing both inputs at once.
      dst = base;
      k.v_xor(dst.data(), dst.data(), dst.data(), n, false);
      EXPECT_EQ(dst, std::vector<uint64_t>(n, 0))
          << target << " aliased self-xor n=" << n;
    }
  });
}

TEST(Simd, PredicatesAndPopcountMatchReference) {
  for_each_dispatch([](const std::string& target) {
    Rng rng(0xB17 ^ target.size());
    for (const std::size_t n : kSizes) {
      const Ops& k = simd::ops();
      // All-zero / all-ones baselines.
      const std::vector<uint64_t> zero(n, 0), ones(n, ~uint64_t{0});
      EXPECT_FALSE(k.v_any(zero.data(), n)) << target << " n=" << n;
      EXPECT_EQ(k.v_any(ones.data(), n), n > 0) << target << " n=" << n;
      EXPECT_TRUE(k.v_all(ones.data(), n)) << target << " n=" << n;
      EXPECT_EQ(k.v_all(zero.data(), n), n == 0) << target << " n=" << n;
      EXPECT_EQ(k.v_popcount(ones.data(), n), 64u * n) << target;

      // A single bit planted at every word position must be seen by
      // v_any / v_any_diff / v_all regardless of which block it's in.
      for (std::size_t at = 0; at < n; ++at) {
        auto one = zero;
        one[at] = uint64_t{1} << (at % 64);
        EXPECT_TRUE(k.v_any(one.data(), n)) << target << " at=" << at;
        EXPECT_TRUE(k.v_any_diff(one.data(), zero.data(), n))
            << target << " at=" << at;
        auto hole = ones;
        hole[at] &= ~(uint64_t{1} << (at % 64));
        EXPECT_FALSE(k.v_all(hole.data(), n)) << target << " at=" << at;
        EXPECT_EQ(k.v_popcount(hole.data(), n), 64u * n - 1) << target;
      }

      const auto a = random_words(n, rng);
      EXPECT_FALSE(k.v_any_diff(a.data(), a.data(), n)) << target;
      uint64_t pc = 0;
      for (const uint64_t w : a) pc += static_cast<uint64_t>(__builtin_popcountll(w));
      EXPECT_EQ(k.v_popcount(a.data(), n), pc) << target << " n=" << n;
    }
  });
}

TEST(Simd, ForceDispatchRejectsUnknownAndUnavailableTargets) {
  const std::string saved = simd::dispatch_name();
  EXPECT_FALSE(simd::force_dispatch("avx512"));
  EXPECT_FALSE(simd::force_dispatch(""));
  EXPECT_FALSE(simd::force_dispatch("SCALAR")); // names are lowercase
  EXPECT_EQ(saved, simd::dispatch_name()) << "failed force must not switch";
#if defined(__x86_64__)
  EXPECT_FALSE(simd::force_dispatch("neon"));
#elif defined(__aarch64__)
  EXPECT_FALSE(simd::force_dispatch("avx2"));
#endif
  EXPECT_EQ(saved, simd::dispatch_name());
  ASSERT_TRUE(simd::force_dispatch(saved));
}

TEST(Simd, AvailableDispatchesAlwaysContainScalar) {
  const auto targets = simd::available_dispatches();
  ASSERT_FALSE(targets.empty());
  bool has_scalar = false;
  for (const auto& t : targets) {
    has_scalar = has_scalar || t == "scalar";
    EXPECT_TRUE(simd::force_dispatch(t)) << t;
  }
  EXPECT_TRUE(has_scalar);
  // Best target first: the default selection matches the head of the list.
  ASSERT_TRUE(simd::force_dispatch(targets.front()));
}

} // namespace
} // namespace rmsyn
