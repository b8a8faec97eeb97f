// Property tests for the theoretical claims of Sections 2 and 4:
//  * exhaustive flow correctness over ALL 3-variable functions;
//  * Properties 1, 8 and 9 (the pattern-set guarantees) on factored
//    all-positive-polarity tree networks, exactly under the paper's
//    assumptions (1)-(3);
//  * idempotence/monotonicity of the structural passes.
#include <gtest/gtest.h>

#include "benchgen/spec.hpp"
#include "core/factor_cubes.hpp"
#include "core/redundancy.hpp"
#include "core/resub.hpp"
#include "core/synth.hpp"
#include "equiv/equiv.hpp"
#include "network/stats.hpp"
#include "network/transform.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

TEST(Exhaustive, AllThreeVariableFunctions) {
  // Every one of the 256 3-input functions must synthesize correctly.
  for (uint32_t code = 0; code < 256; ++code) {
    TruthTable f(3);
    for (uint64_t m = 0; m < 8; ++m)
      if ((code >> m) & 1) f.set(m);
    const Network spec = network_from_tts({f});
    const Network out = synthesize(spec, {}, nullptr);
    const auto check = check_against_tts(out, {f});
    ASSERT_TRUE(check.equivalent) << "function code " << code << ": "
                                  << check.reason;
  }
}

TEST(Exhaustive, SampledFourVariableFunctions) {
  Rng rng(0xF00D);
  for (int iter = 0; iter < 64; ++iter) {
    TruthTable f(4);
    for (uint64_t m = 0; m < 16; ++m)
      if (rng.flip()) f.set(m);
    const Network spec = network_from_tts({f});
    const Network out = synthesize(spec, {}, nullptr);
    ASSERT_TRUE(check_against_tts(out, {f}).equivalent);
  }
}

/// Builds the paper's N_x: a positive-polarity FPRM factored by the cube
/// method (assumptions (1)-(3): positive polarities, no constant-1 cube,
/// algebraic factorization only). Returns the network and the form.
struct TreeCase {
  Network net;
  FprmForm form;
};

TreeCase make_tree_case(const TruthTable& f) {
  TreeCase tc;
  BddManager mgr(f.nvars());
  const BddRef fb = mgr.from_cover(Cover::from_truth_table(f));
  BitVec pol(static_cast<std::size_t>(f.nvars()));
  pol.set_all();
  const Ofdd o = build_ofdd(mgr, fb, pol);
  tc.form = extract_fprm(mgr, o, f.nvars());
  std::vector<NodeId> pis;
  for (int v = 0; v < f.nvars(); ++v) pis.push_back(tc.net.add_pi());
  tc.net.add_po(factor_cubes(tc.net, pis, tc.form));
  tc.net = decompose2(tc.net);
  return tc;
}

TEST(PaperProperties, Property1AllZeroPatternZerosEveryXor) {
  // With positive polarities and no constant-1 cube, the AZ pattern sets
  // the inputs and output of every XOR gate to 0.
  Rng rng(808);
  for (int iter = 0; iter < 40; ++iter) {
    TruthTable f(5);
    for (uint64_t m = 1; m < 32; ++m)
      if (rng.flip()) f.set(m);
    f.set(0, false); // no constant-1 cube in the PPRM (f(0) = coefficient of 1)
    const TreeCase tc = make_tree_case(f);
    PatternSet az(tc.net.pi_count(), 0);
    az.append(BitVec(tc.net.pi_count()));
    const auto values = simulate(tc.net, az);
    for (NodeId n = 0; n < tc.net.node_count(); ++n) {
      if (tc.net.type(n) != GateType::Xor) continue;
      EXPECT_FALSE(values[n].get(0));
      for (const NodeId fi : tc.net.fanins(n)) EXPECT_FALSE(values[fi].get(0));
    }
  }
}

TEST(PaperProperties, Property8OcSetDerivesOneAtEveryXor) {
  // At least one OC pattern drives every XOR gate's output to 1.
  Rng rng(909);
  for (int iter = 0; iter < 40; ++iter) {
    TruthTable f(5);
    for (uint64_t m = 1; m < 32; ++m)
      if (rng.flip()) f.set(m);
    f.set(0, false);
    const TreeCase tc = make_tree_case(f);
    if (tc.form.cube_count() < 2) continue;
    const PatternSet oc = fprm_pattern_set(tc.net.pi_count(), {tc.form},
                                           /*include_sa1=*/false, 4096);
    const auto values = simulate(tc.net, oc);
    for (NodeId n = 0; n < tc.net.node_count(); ++n) {
      if (tc.net.type(n) != GateType::Xor) continue;
      EXPECT_TRUE(values[n].any())
          << "XOR gate " << n << " never 1 under the OC set";
    }
  }
}

TEST(PaperProperties, Property9AtLeastTwoInputPatternsFromOc) {
  // The OC/AZ/AO set derives at least two of the three nonzero input
  // patterns at every 2-input XOR gate.
  Rng rng(1010);
  for (int iter = 0; iter < 40; ++iter) {
    TruthTable f(5);
    for (uint64_t m = 1; m < 32; ++m)
      if (rng.flip()) f.set(m);
    f.set(0, false);
    const TreeCase tc = make_tree_case(f);
    if (tc.form.cube_count() < 2) continue;
    const PatternSet oc = fprm_pattern_set(tc.net.pi_count(), {tc.form},
                                           /*include_sa1=*/false, 4096);
    const auto values = simulate(tc.net, oc);
    for (NodeId n = 0; n < tc.net.node_count(); ++n) {
      if (tc.net.type(n) != GateType::Xor || tc.net.fanins(n).size() != 2)
        continue;
      const BitVec& g = values[tc.net.fanins(n)[0]];
      const BitVec& h = values[tc.net.fanins(n)[1]];
      bool saw[4] = {false, false, false, false};
      for (std::size_t p = 0; p < oc.num_patterns; ++p)
        saw[(g.get(p) ? 2 : 0) + (h.get(p) ? 1 : 0)] = true;
      const int nonzero = (saw[1] ? 1 : 0) + (saw[2] ? 1 : 0) + (saw[3] ? 1 : 0);
      EXPECT_GE(nonzero, 2) << "XOR gate " << n;
    }
  }
}

TEST(Passes, RedundancyRemovalIsIdempotent) {
  Rng rng(3030);
  for (int iter = 0; iter < 10; ++iter) {
    TruthTable f(5);
    for (uint64_t m = 0; m < 32; ++m)
      if (rng.flip()) f.set(m);
    const Network spec = network_from_tts({f});
    const Network once = synthesize(spec, {}, nullptr);
    const Network twice = remove_xor_redundancy(once, {}, {}, nullptr);
    EXPECT_EQ(network_stats(strash(twice)).gates2,
              network_stats(strash(once)).gates2);
  }
}

TEST(Passes, ResubMergeNeverGrowsAndPreserves) {
  Rng rng(4040);
  for (int iter = 0; iter < 10; ++iter) {
    Network net;
    std::vector<NodeId> pool;
    for (int i = 0; i < 5; ++i) pool.push_back(net.add_pi());
    for (int g = 0; g < 25; ++g) {
      const NodeId a = pool[rng.below(pool.size())];
      const NodeId b = pool[rng.below(pool.size())];
      switch (rng.below(3)) {
        case 0: pool.push_back(net.add_and(a, b)); break;
        case 1: pool.push_back(net.add_or(a, b)); break;
        default: pool.push_back(net.add_xor(a, b)); break;
      }
    }
    net.add_po(pool.back());
    net.add_po(pool[pool.size() - 3]);
    const Network merged = resub_merge(net);
    EXPECT_TRUE(check_equivalence(net, merged).equivalent);
    EXPECT_LE(network_stats(merged).gates2, network_stats(strash(net)).gates2);
  }
}

TEST(Passes, ResubMergesFunctionalDuplicatesAcrossStructures) {
  // a⊕b built two structurally different ways must merge to one node.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId x1 = net.add_xor(a, b);
  const NodeId x2 = net.add_or(net.add_and(a, net.add_not(b)),
                               net.add_and(net.add_not(a), b));
  net.add_po(net.add_and(x1, net.add_pi()));
  net.add_po(net.add_and(x2, net.add_pi()));
  const Network merged = resub_merge(net);
  // After merging, only one XOR-like structure should remain.
  const auto s = network_stats(merged);
  EXPECT_LE(s.gates2, 5u); // one xor (3) + two ANDs
}

} // namespace
} // namespace rmsyn
