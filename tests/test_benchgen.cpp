// Benchmark-generator tests: Table-2 interface compliance and functional
// oracles for the exactly-regenerated arithmetic circuits.
#include "benchgen/spec.hpp"

#include <gtest/gtest.h>

#include "sim/sim.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

struct Io {
  const char* name;
  int in, out;
};

// The I/O column of Table 2.
constexpr Io kTable2Io[] = {
    {"5xp1", 7, 10},   {"9sym", 9, 1},    {"adr4", 8, 5},    {"add6", 12, 7},
    {"addm4", 9, 8},   {"bcd-div3", 4, 4},{"cc", 21, 20},    {"co14", 14, 1},
    {"cm163a", 16, 5}, {"cm82a", 5, 3},   {"cm85a", 11, 3},  {"cmb", 16, 4},
    {"f2", 4, 4},      {"f51m", 8, 8},    {"frg1", 28, 3},   {"i1", 25, 13},
    {"i3", 132, 6},    {"i4", 192, 6},    {"i5", 133, 66},   {"m181", 15, 9},
    {"majority", 5, 1},{"misg", 56, 23},  {"mish", 94, 34},  {"mlp4", 8, 8},
    {"my_adder", 33, 17}, {"parity", 16, 1}, {"pcle", 19, 9},
    {"pcler8", 27, 17},{"pm1", 16, 13},   {"radd", 8, 5},    {"rd53", 5, 3},
    {"rd73", 7, 3},    {"rd84", 8, 4},    {"shift", 19, 16}, {"sqr6", 6, 12},
    {"squar5", 5, 8},  {"sym10", 10, 1},  {"t481", 16, 1},   {"tcon", 17, 16},
    {"xor10", 10, 1},  {"z4ml", 7, 4},
};

TEST(Benchgen, RegistryCoversAllOfTable2) {
  EXPECT_EQ(benchmark_names().size(), std::size(kTable2Io));
  for (const auto& io : kTable2Io) EXPECT_TRUE(has_benchmark(io.name)) << io.name;
  EXPECT_FALSE(has_benchmark("nonexistent"));
  EXPECT_THROW(make_benchmark("nonexistent"), RmsynError);
}

class BenchgenIo : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BenchgenIo, InterfaceMatchesTable2) {
  const Io& io = kTable2Io[GetParam()];
  const Benchmark b = make_benchmark(io.name);
  EXPECT_EQ(b.num_inputs, io.in) << io.name;
  EXPECT_EQ(b.num_outputs, io.out) << io.name;
  EXPECT_FALSE(b.description.empty());
  EXPECT_EQ(b.spec.pi_count(), static_cast<std::size_t>(io.in));
  EXPECT_EQ(b.spec.po_count(), static_cast<std::size_t>(io.out));
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, BenchgenIo,
                         ::testing::Range<std::size_t>(0, std::size(kTable2Io)));

uint64_t eval_bus(const Network& net, uint64_t input_bits, int first_out,
                  int num_out) {
  std::vector<bool> pis(net.pi_count());
  for (std::size_t i = 0; i < pis.size(); ++i)
    pis[i] = ((input_bits >> i) & 1) != 0;
  const auto outs = net.eval(pis);
  uint64_t v = 0;
  for (int k = 0; k < num_out; ++k)
    if (outs[static_cast<std::size_t>(first_out + k)]) v |= uint64_t{1} << k;
  return v;
}

TEST(Benchgen, RippleAdderAdds) {
  // adr4: PIs interleaved a0 b0 a1 b1 ...; outputs s0..s3, cout.
  const Benchmark b = make_benchmark("adr4");
  Rng rng(1);
  for (int iter = 0; iter < 50; ++iter) {
    const uint64_t a = rng.below(16), bb = rng.below(16);
    uint64_t input = 0;
    for (int k = 0; k < 4; ++k) {
      if ((a >> k) & 1) input |= uint64_t{1} << (2 * k);
      if ((bb >> k) & 1) input |= uint64_t{1} << (2 * k + 1);
    }
    EXPECT_EQ(eval_bus(b.spec, input, 0, 5), a + bb);
  }
}

TEST(Benchgen, Z4mlAddsWithCarryIn) {
  const Benchmark b = make_benchmark("z4ml");
  for (uint64_t a = 0; a < 8; ++a)
    for (uint64_t bb = 0; bb < 8; ++bb)
      for (uint64_t cin = 0; cin < 2; ++cin) {
        uint64_t input = cin << 6;
        for (int k = 0; k < 3; ++k) {
          if ((a >> k) & 1) input |= uint64_t{1} << (2 * k);
          if ((bb >> k) & 1) input |= uint64_t{1} << (2 * k + 1);
        }
        EXPECT_EQ(eval_bus(b.spec, input, 0, 4), a + bb + cin);
      }
}

TEST(Benchgen, MultiplierMultiplies) {
  const Benchmark b = make_benchmark("mlp4");
  for (uint64_t a = 0; a < 16; ++a)
    for (uint64_t bb = 0; bb < 16; ++bb) {
      const uint64_t input = a | (bb << 4);
      EXPECT_EQ(eval_bus(b.spec, input, 0, 8), a * bb);
    }
}

TEST(Benchgen, SquarerSquares) {
  const Benchmark b = make_benchmark("sqr6");
  for (uint64_t x = 0; x < 64; ++x)
    EXPECT_EQ(eval_bus(b.spec, x, 0, 12), x * x);
  const Benchmark s5 = make_benchmark("squar5");
  for (uint64_t x = 0; x < 32; ++x)
    EXPECT_EQ(eval_bus(s5.spec, x, 0, 8), (x * x) & 0xFF);
}

TEST(Benchgen, OnesCountersCount) {
  for (const auto& [name, n, bits] :
       {std::tuple{"rd53", 5, 3}, {"rd73", 7, 3}, {"rd84", 8, 4}}) {
    const Benchmark b = make_benchmark(name);
    for (uint64_t x = 0; x < (uint64_t{1} << n); ++x)
      EXPECT_EQ(eval_bus(b.spec, x, 0, bits),
                static_cast<uint64_t>(__builtin_popcountll(x)))
          << name;
  }
}

TEST(Benchgen, SymmetricBands) {
  const Benchmark b9 = make_benchmark("9sym");
  for (uint64_t x = 0; x < 512; ++x) {
    const int w = __builtin_popcountll(x);
    EXPECT_EQ(eval_bus(b9.spec, x, 0, 1), static_cast<uint64_t>(w >= 3 && w <= 6));
  }
}

TEST(Benchgen, ParityIsParity) {
  const Benchmark b = make_benchmark("xor10");
  Rng rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    const uint64_t x = rng.below(1 << 10);
    EXPECT_EQ(eval_bus(b.spec, x, 0, 1),
              static_cast<uint64_t>(__builtin_popcountll(x) & 1));
  }
}

TEST(Benchgen, MajorityIsMajority) {
  const Benchmark b = make_benchmark("majority");
  for (uint64_t x = 0; x < 32; ++x)
    EXPECT_EQ(eval_bus(b.spec, x, 0, 1),
              static_cast<uint64_t>(__builtin_popcountll(x) >= 3));
}

TEST(Benchgen, T481HasPaperFprmScale) {
  // The function printed in the paper has 481 primes in SOP but a 16-cube
  // FPRM — sanity: it is a real 16-input function depending on all inputs.
  const Benchmark b = make_benchmark("t481");
  const auto patterns = random_patterns(16, 4096, 99);
  const auto values = simulate(b.spec, patterns);
  const auto& out = values[b.spec.po(0)];
  const auto cnt = out.count();
  EXPECT_GT(cnt, 0u);
  EXPECT_LT(cnt, patterns.num_patterns);
}

TEST(Benchgen, MyAdder16BitSpotChecks) {
  const Benchmark b = make_benchmark("my_adder");
  Rng rng(7);
  for (int iter = 0; iter < 30; ++iter) {
    const uint64_t a = rng.below(uint64_t{1} << 16);
    const uint64_t bb = rng.below(uint64_t{1} << 16);
    const uint64_t cin = rng.below(2);
    uint64_t input = cin << 32;
    for (int k = 0; k < 16; ++k) {
      if ((a >> k) & 1) input |= uint64_t{1} << (2 * k);
      if ((bb >> k) & 1) input |= uint64_t{1} << (2 * k + 1);
    }
    EXPECT_EQ(eval_bus(b.spec, input, 0, 17), a + bb + cin);
  }
}

TEST(Benchgen, I5IsMuxBank) {
  const Benchmark b = make_benchmark("i5");
  Rng rng(11);
  std::vector<bool> pis(133);
  for (int iter = 0; iter < 20; ++iter) {
    for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = rng.flip();
    const auto outs = b.spec.eval(pis);
    for (int k = 0; k < 66; ++k) {
      const bool expect = pis[0] ? pis[static_cast<std::size_t>(1 + k)]
                                 : pis[static_cast<std::size_t>(67 + k)];
      EXPECT_EQ(outs[static_cast<std::size_t>(k)], expect);
    }
  }
}

TEST(Benchgen, ShiftShifts) {
  const Benchmark b = make_benchmark("shift");
  Rng rng(13);
  std::vector<bool> pis(19);
  for (int iter = 0; iter < 50; ++iter) {
    uint64_t data = 0;
    for (int i = 0; i < 16; ++i) {
      pis[static_cast<std::size_t>(i)] = rng.flip();
      if (pis[static_cast<std::size_t>(i)]) data |= uint64_t{1} << i;
    }
    const unsigned amt = static_cast<unsigned>(rng.below(8));
    for (int i = 0; i < 3; ++i)
      pis[static_cast<std::size_t>(16 + i)] = ((amt >> i) & 1) != 0;
    const auto outs = b.spec.eval(pis);
    const uint64_t shifted = (data << amt) & 0xFFFF;
    for (int k = 0; k < 16; ++k)
      EXPECT_EQ(outs[static_cast<std::size_t>(k)], ((shifted >> k) & 1) != 0);
  }
}

TEST(Benchgen, Cm85aBehavesLikeA7485Comparator) {
  const Benchmark b = make_benchmark("cm85a");
  Rng rng(17);
  std::vector<bool> pis(11, false);
  for (int iter = 0; iter < 100; ++iter) {
    uint64_t av = rng.below(16), bv = rng.below(16);
    for (int i = 0; i < 4; ++i) {
      pis[static_cast<std::size_t>(i)] = ((av >> i) & 1) != 0;
      pis[static_cast<std::size_t>(4 + i)] = ((bv >> i) & 1) != 0;
    }
    // Cascade inputs: i_lt=0, i_eq=1, i_gt=0 (the standalone configuration).
    pis[8] = false;
    pis[9] = true;
    pis[10] = false;
    const auto out = b.spec.eval(pis); // ogt, oeq, olt
    EXPECT_EQ(out[0], av > bv);
    EXPECT_EQ(out[1], av == bv);
    EXPECT_EQ(out[2], av < bv);
  }
}

TEST(Benchgen, T481MatchesItsOwnClosedForm) {
  // Evaluate the paper's equation independently and compare.
  const Benchmark b = make_benchmark("t481");
  Rng rng(5);
  std::vector<bool> v(16);
  for (int iter = 0; iter < 200; ++iter) {
    for (auto&& bit : v) bit = rng.flip();
    const auto t1 = (!v[0] && v[1]) != (v[2] && !v[3]);
    const auto t2 = (!v[4] && v[5]) != (!v[6] || v[7]);
    const auto t3 = (v[8] || !v[9]) != (v[10] && !v[11]);
    const auto t4 = (!v[12] && v[13]) != (v[14] && !v[15]);
    const bool expect = (t1 && t2) != (t3 && t4);
    EXPECT_EQ(b.spec.eval(v)[0], expect);
  }
}

TEST(Benchgen, SyntheticCircuitsAreDeterministic) {
  const Benchmark a = make_benchmark("cc");
  const Benchmark b = make_benchmark("cc");
  const auto pa = random_patterns(21, 256, 5);
  const auto va = simulate(a.spec, pa);
  const auto vb = simulate(b.spec, pa);
  for (std::size_t i = 0; i < a.spec.po_count(); ++i)
    EXPECT_EQ(va[a.spec.po(i)], vb[b.spec.po(i)]);
}

TEST(Benchgen, ArithmeticFlagsAndExactness) {
  EXPECT_TRUE(make_benchmark("z4ml").arithmetic);
  EXPECT_TRUE(make_benchmark("z4ml").exact);
  EXPECT_TRUE(make_benchmark("t481").exact);
  EXPECT_FALSE(make_benchmark("cc").exact);
  EXPECT_FALSE(make_benchmark("cc").arithmetic);
  EXPECT_FALSE(make_benchmark("5xp1").exact); // documented substitution
  EXPECT_TRUE(make_benchmark("5xp1").arithmetic);
}

} // namespace
} // namespace rmsyn
