// SopNetwork (the SIS network model) tests: conversion round-trips,
// collapse/flatten semantics and factoring.
#include "baseline/sop_network.hpp"

#include <gtest/gtest.h>

#include "baseline/factor.hpp"
#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/transform.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

Network small_multilevel() {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  const NodeId t = net.add_and(a, b);
  net.add_po(net.add_or(t, c), "f");
  net.add_po(net.add_xor(t, c), "g");
  return net;
}

TEST(SopNetwork, FromNetworkRoundTrip) {
  const Network net = small_multilevel();
  const SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  const Network back = sn.to_network();
  EXPECT_TRUE(check_equivalence(net, back).equivalent);
  EXPECT_GT(sn.literal_count(), 0);
}

TEST(SopNetwork, CollapseNodePreservesFunction) {
  const Network net = small_multilevel();
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  // Collapse the first internal non-PO node we can find.
  for (const int n : sn.topo_nodes()) {
    bool is_po = false;
    for (const int po : sn.po_vars()) is_po |= po == n;
    if (!is_po) {
      EXPECT_TRUE(sn.collapse_node(n));
      break;
    }
  }
  EXPECT_TRUE(check_equivalence(net, sn.to_network()).equivalent);
}

TEST(SopNetwork, FlattenReachesTwoLevel) {
  const Network net = small_multilevel();
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  EXPECT_TRUE(sn.flatten(1000));
  for (const int po : sn.po_vars())
    for (const int f : sn.fanins(po)) EXPECT_TRUE(sn.is_pi(f));
  EXPECT_TRUE(check_equivalence(net, sn.to_network()).equivalent);
}

TEST(SopNetwork, FlattenBailsOnCubeCap) {
  // A 12-input parity chain explodes exponentially when flattened.
  const Network net = decompose2(strash(make_benchmark("parity").spec));
  SopNetwork sn = SopNetwork::from_network(net);
  EXPECT_FALSE(sn.flatten(64));
}

TEST(SopNetwork, FlattenCapTripsOnAnEarlierReader) {
  // g = x0·x1 + x2·x3 + x4·x5 feeds two PO readers: r1 = ḡ (8 cubes once
  // substituted) and, after it, r2 = g (3 cubes). With a cap of 4 the
  // collapse of g stops at r1 and leaves r2 reading g, so the network is
  // still consistent and computes the same function.
  SopNetwork sn(6);
  Cover g(6);
  for (const char* cube : {"11----", "--11--", "----11"}) g.add(Cube::parse(cube));
  const int gv = sn.add_node(g);
  const auto reader = [&](bool positive) {
    Cover r(sn.num_vars());
    Cube c(sn.num_vars());
    if (positive) c.add_pos(gv); else c.add_neg(gv);
    r.add(std::move(c));
    return sn.add_node(std::move(r));
  };
  const int r1 = reader(false);
  const int r2 = reader(true);
  sn.add_po(r1, "r1");
  sn.add_po(r2, "r2");
  const Network before = sn.to_network();

  SopNetwork roomy = sn;
  EXPECT_TRUE(roomy.flatten(64));

  EXPECT_FALSE(sn.flatten(4));
  EXPECT_GT(sn.cover_of(r1).size(), 4u);
  const auto r2_fanins = sn.fanins(r2);
  EXPECT_EQ(r2_fanins, std::vector<int>{gv});
  EXPECT_TRUE(check_equivalence(before, sn.to_network()).equivalent);
}

TEST(SopNetwork, FanoutCountsIncludePos) {
  const Network net = small_multilevel();
  const SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  const auto fo = sn.fanout_counts();
  for (const int po : sn.po_vars()) EXPECT_GE(fo[static_cast<std::size_t>(po)], 1);
}

TEST(SopNetwork, ConstantOutputs) {
  Network net;
  const NodeId a = net.add_pi();
  net.add_po(Network::kConst1, "one");
  net.add_po(net.add_and(a, net.add_not(a)), "zero");
  const SopNetwork sn = SopNetwork::from_network(strash(net));
  const Network back = sn.to_network();
  EXPECT_TRUE(check_equivalence(strash(net), back).equivalent);
}

TEST(SopNetwork, CollapseGrowthPredictsXorBlowup) {
  // An XOR node feeding an XOR reader: collapsing doubles the cubes, so
  // the growth value must be positive (keep the node) — this is what
  // preserves parity chains in the baseline.
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId c = net.add_pi();
  net.add_po(net.add_xor(net.add_xor(a, b), c));
  SopNetwork sn = SopNetwork::from_network(decompose2(strash(net)));
  int inner = -1;
  for (const int n : sn.topo_nodes()) {
    bool is_po = false;
    for (const int po : sn.po_vars()) is_po |= po == n;
    if (!is_po) inner = n;
  }
  ASSERT_GE(inner, 0);
  EXPECT_GT(sn.collapse_growth(inner), 0);

  // A buffer-like single-literal node must have non-positive growth.
  Cover wire(sn.num_vars());
  Cube cb(sn.num_vars());
  cb.add_pos(0);
  wire.add(cb);
  const int w = sn.add_node(wire);
  Cover reader(sn.num_vars());
  Cube rc(sn.num_vars());
  rc.add_pos(w);
  reader.add(rc);
  sn.add_po(sn.add_node(reader), "p");
  EXPECT_LE(sn.collapse_growth(w), 0);
}

TEST(Factor, BuildFactoredMatchesCover) {
  Rng rng(777);
  for (int iter = 0; iter < 30; ++iter) {
    const int n = 5;
    Cover f(n);
    const int ncubes = 1 + static_cast<int>(rng.below(7));
    for (int c = 0; c < ncubes; ++c) {
      Cube cube(n);
      for (int v = 0; v < n; ++v) {
        const auto r = rng.below(3);
        if (r == 0) cube.add_pos(v);
        else if (r == 1) cube.add_neg(v);
      }
      f.add(std::move(cube));
    }
    Network net;
    std::vector<NodeId> vars;
    for (int v = 0; v < n; ++v) vars.push_back(net.add_pi());
    net.add_po(build_factored(net, f, vars));
    EXPECT_TRUE(check_against_tts(net, {f.to_truth_table()}).equivalent);
  }
}

TEST(Factor, FactoredLiteralsNoWorseThanFlat) {
  // (ab + ac) factors to a(b+c): 3 factored literals vs 4 flat.
  Cover f(3);
  f.add(Cube::parse("11-"));
  f.add(Cube::parse("1-1"));
  EXPECT_EQ(factored_literals(f), 3);
  EXPECT_LE(factored_literals(f), f.literal_count());
}

TEST(Factor, ConstantsAndEmptyCovers) {
  Network net;
  std::vector<NodeId> vars{net.add_pi()};
  EXPECT_EQ(build_factored(net, Cover(1), vars), Network::kConst0);
  EXPECT_EQ(build_factored(net, Cover::constant(1, true), vars),
            Network::kConst1);
  EXPECT_EQ(factored_literals(Cover(1)), 0);
  EXPECT_EQ(factored_literals(Cover::constant(1, true)), 0);
}

} // namespace
} // namespace rmsyn
