// Section 3 tests: both factorization methods build networks equivalent to
// the FPRM form, and the Reduction-rule shapes (a) and (b) produce the
// expected gate structures.
#include <gtest/gtest.h>

#include <functional>
#include <numeric>

#include "core/factor_cubes.hpp"
#include "core/factor_ofdd.hpp"
#include "core/xor_expr.hpp"
#include "equiv/equiv.hpp"
#include "network/stats.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

TruthTable random_tt(int n, Rng& rng) {
  TruthTable f(n);
  for (uint64_t m = 0; m < f.size(); ++m)
    if (rng.flip()) f.set(m);
  return f;
}

struct Built {
  Network net;
};

Built build_with(const TruthTable& f, const BitVec& pol, bool use_cubes) {
  BddManager mgr(f.nvars());
  const BddRef fb = mgr.from_cover(Cover::from_truth_table(f));
  const Ofdd o = build_ofdd(mgr, fb, pol);
  Built b;
  std::vector<NodeId> pis;
  for (int v = 0; v < f.nvars(); ++v) pis.push_back(b.net.add_pi());
  NodeId root;
  if (use_cubes) {
    const FprmForm form = extract_fprm(mgr, o, f.nvars());
    root = factor_cubes(b.net, pis, form);
  } else {
    root = factor_ofdd(b.net, pis, mgr, o);
  }
  b.net.add_po(root);
  return b;
}

class FactorRandom
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, bool>> {};

TEST_P(FactorRandom, BuildsEquivalentNetwork) {
  const auto [n, seed, use_cubes] = GetParam();
  Rng rng(seed);
  for (int iter = 0; iter < 8; ++iter) {
    const TruthTable f = random_tt(n, rng);
    BitVec pol(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v)
      if (rng.flip()) pol.set(static_cast<std::size_t>(v));
    const Built b = build_with(f, pol, use_cubes);
    const auto r = check_against_tts(b.net, {f});
    EXPECT_TRUE(r.equivalent) << r.reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FactorRandom,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6), ::testing::Values(11, 22),
                       ::testing::Bool()));

TEST(FactorCubes, RuleA_ProducesAndNotInsteadOfXor) {
  // f = a ⊕ ab = a·b̄ — one AND and one inverter, no XOR.
  Network net;
  std::vector<NodeId> pis{net.add_pi(), net.add_pi()};
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec c1(2);
  c1.set(0); // a
  BitVec c2(2);
  c2.set(0);
  c2.set(1); // ab
  form.cubes = {c1, c2};
  net.add_po(factor_cubes(net, pis, form));
  const auto s = network_stats(net);
  EXPECT_EQ(s.num_xor2, 0u);
  EXPECT_EQ(s.gates2, 1u);
  // And the function is right: a AND NOT b.
  const auto tt = TruthTable::variable(2, 0) & ~TruthTable::variable(2, 1);
  EXPECT_TRUE(check_against_tts(net, {tt}).equivalent);
}

TEST(FactorCubes, RuleB_ProducesOr) {
  // f = a ⊕ b ⊕ ab = a + b.
  Network net;
  std::vector<NodeId> pis{net.add_pi(), net.add_pi()};
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec a(2), b(2), ab(2);
  a.set(0);
  b.set(1);
  ab.set(0);
  ab.set(1);
  form.cubes = {a, b, ab};
  net.add_po(factor_cubes(net, pis, form));
  const auto s = network_stats(net);
  EXPECT_EQ(s.num_xor2, 0u);
  EXPECT_EQ(s.gates2, 1u);
  const auto tt = TruthTable::variable(2, 0) | TruthTable::variable(2, 1);
  EXPECT_TRUE(check_against_tts(net, {tt}).equivalent);
}

TEST(FactorCubes, DisjointGroupsJoinedByXorTree) {
  // f = ab ⊕ cd: two disjoint groups.
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 4; ++i) pis.push_back(net.add_pi());
  FprmForm form;
  form.nvars = 4;
  form.support = {0, 1, 2, 3};
  form.polarity = BitVec(4);
  form.polarity.set_all();
  BitVec ab(4), cd(4);
  ab.set(0);
  ab.set(1);
  cd.set(2);
  cd.set(3);
  form.cubes = {ab, cd};
  net.add_po(factor_cubes(net, pis, form));
  const auto s = network_stats(net);
  EXPECT_EQ(s.num_xor2, 1u);
  EXPECT_EQ(s.gates2, 5u); // 2 ANDs + XOR(3)
}

TEST(FactorCubes, DuplicateCubesCancel) {
  Network net;
  std::vector<NodeId> pis{net.add_pi(), net.add_pi()};
  FprmForm form;
  form.nvars = 2;
  form.support = {0, 1};
  form.polarity = BitVec(2);
  form.polarity.set_all();
  BitVec ab(2);
  ab.set(0);
  ab.set(1);
  form.cubes = {ab, ab}; // C ⊕ C = 0
  const NodeId root = factor_cubes(net, pis, form);
  EXPECT_EQ(root, Network::kConst0);
}

TEST(FactorOfdd, NegativePolarityLiteralsAreInverted) {
  // f with all-negative polarity: f = x̄0·x̄1 (single cube).
  const TruthTable f = ~TruthTable::variable(2, 0) & ~TruthTable::variable(2, 1);
  BitVec pol(2); // all negative
  const Built b = build_with(f, pol, /*use_cubes=*/false);
  EXPECT_TRUE(check_against_tts(b.net, {f}).equivalent);
  EXPECT_EQ(network_stats(b.net).num_xor2, 0u);
}

TEST(SharedOfdd, CrossOutputSharingOnAdder) {
  // A 4-bit adder built per-output with the shared builder must be much
  // smaller than the sum of independent per-output constructions, because
  // the carry spectra are shared.
  const int nbits = 4;
  const int n = 2 * nbits; // a,b interleaved per bit, no carry-in
  BddManager mgr(n);
  // MSB-first order benefits sharing (reach-heuristic order); construct
  // directly in that order: var 2k = a_{nbits-1-k}, var 2k+1 = b_...
  std::vector<BddRef> sums;
  {
    // Build with BDD arithmetic: carries LSB-up. LSB vars are the last.
    std::vector<BddRef> av(nbits), bv(nbits);
    for (int k = 0; k < nbits; ++k) {
      av[static_cast<std::size_t>(k)] = mgr.var(2 * (nbits - 1 - k));
      bv[static_cast<std::size_t>(k)] = mgr.var(2 * (nbits - 1 - k) + 1);
    }
    BddRef carry = mgr.bdd_false();
    for (int k = 0; k < nbits; ++k) {
      const BddRef a = av[static_cast<std::size_t>(k)];
      const BddRef b = bv[static_cast<std::size_t>(k)];
      sums.push_back(mgr.bdd_xor(mgr.bdd_xor(a, b), carry));
      carry = mgr.bdd_or(mgr.bdd_and(a, b),
                         mgr.bdd_and(carry, mgr.bdd_xor(a, b)));
    }
    sums.push_back(carry);
  }
  BitVec pol(static_cast<std::size_t>(n));
  pol.set_all();
  std::vector<int> all_vars;
  for (int v = 0; v < n; ++v) all_vars.push_back(v);

  Network shared_net;
  std::vector<NodeId> pis;
  for (int v = 0; v < n; ++v) pis.push_back(shared_net.add_pi());
  SharedOfddBuilder builder(shared_net, pis, mgr, pol);
  for (const BddRef s : sums)
    shared_net.add_po(builder.build(rm_spectrum(mgr, s, all_vars, pol)));

  Network indep_net;
  std::vector<NodeId> pis2;
  for (int v = 0; v < n; ++v) pis2.push_back(indep_net.add_pi());
  for (const BddRef s : sums)
    indep_net.add_po(factor_ofdd(indep_net, pis2, mgr, build_ofdd(mgr, s, pol)));

  EXPECT_TRUE(check_equivalence(shared_net, indep_net).equivalent);
  EXPECT_LT(network_stats(shared_net).gates2,
            network_stats(indep_net).gates2);
}

TEST(XorExpr, GroupByDisjointSupport) {
  std::vector<BitVec> cubes(4, BitVec(6));
  cubes[0].set(0);
  cubes[0].set(1); // {0,1}
  cubes[1].set(1);
  cubes[1].set(2); // {1,2} — connects to cube 0
  cubes[2].set(4); // {4}
  cubes[3].set(5); // {5}
  const auto groups = group_by_disjoint_support(cubes);
  EXPECT_EQ(groups.size(), 3u);
}

// Reference oracle: the original bit-walking grouping, kept here to pin the
// word-level one in src/core/xor_expr.cpp to the same groups in the same
// order.
std::vector<std::vector<std::size_t>> ref_group_by_disjoint_support(
    const std::vector<BitVec>& cubes) {
  std::vector<std::size_t> parent(cubes.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  if (!cubes.empty()) {
    const std::size_t width = cubes[0].size();
    std::vector<std::size_t> owner(width, BitVec::npos);
    for (std::size_t i = 0; i < cubes.size(); ++i) {
      for (std::size_t b = cubes[i].first_set(); b != BitVec::npos;
           b = cubes[i].next_set(b + 1)) {
        if (owner[b] == BitVec::npos) owner[b] = i;
        else parent[find(i)] = find(owner[b]);
      }
    }
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> root_to_group(cubes.size(), BitVec::npos);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    const std::size_t r = find(i);
    if (root_to_group[r] == BitVec::npos) {
      root_to_group[r] = groups.size();
      groups.emplace_back();
    }
    groups[root_to_group[r]].push_back(i);
  }
  return groups;
}

TEST(XorExpr, GroupByDisjointSupportMatchesTheReference) {
  // Sparse cubes over a handful of positions spread across every mask word,
  // so groups split and join at word boundaries.
  for (const std::size_t width : {1u, 64u, 65u, 128u, 130u}) {
    std::vector<std::size_t> spots;
    for (const std::size_t b : {0u, 1u, 62u, 63u, 64u, 65u, 127u, 128u, 129u})
      if (b < width) spots.push_back(b);
    Rng rng(width);
    for (int iter = 0; iter < 40; ++iter) {
      std::vector<BitVec> cubes(rng.below(24), BitVec(width));
      for (auto& c : cubes)
        for (const std::size_t b : spots)
          if (rng.chance(1, 5)) c.set(b);
      EXPECT_EQ(group_by_disjoint_support(cubes),
                ref_group_by_disjoint_support(cubes));
    }
  }
  EXPECT_TRUE(group_by_disjoint_support({}).empty());
}

TEST(XorExpr, BalancedTreeNeutralElements) {
  Network net;
  EXPECT_EQ(balanced_gate_tree(net, GateType::And, {}), Network::kConst1);
  EXPECT_EQ(balanced_gate_tree(net, GateType::Xor, {}), Network::kConst0);
  const NodeId a = net.add_pi();
  EXPECT_EQ(balanced_gate_tree(net, GateType::Or, {a}), a);
}

} // namespace
} // namespace rmsyn
