#include "network/network.hpp"

#include <gtest/gtest.h>

#include "network/io.hpp"
#include "network/stats.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

Network full_adder_net() {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId c = net.add_pi("c");
  const NodeId axb = net.add_xor(a, b);
  net.add_po(net.add_xor(axb, c), "sum");
  net.add_po(net.add_or(net.add_and(a, b), net.add_and(axb, c)), "cout");
  return net;
}

TEST(Network, EvalFullAdder) {
  const Network net = full_adder_net();
  for (int a = 0; a < 2; ++a)
    for (int b = 0; b < 2; ++b)
      for (int c = 0; c < 2; ++c) {
        const auto out = net.eval({a != 0, b != 0, c != 0});
        const int total = a + b + c;
        EXPECT_EQ(out[0], (total & 1) != 0);
        EXPECT_EQ(out[1], total >= 2);
      }
}

TEST(Network, TopoOrderRespectsFanins) {
  const Network net = full_adder_net();
  const auto order = net.topo_order();
  std::vector<std::size_t> pos(net.node_count());
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const NodeId n : order)
    for (const NodeId f : net.fanins(n)) EXPECT_LT(pos[f], pos[n]);
}

TEST(Network, FanoutCountsAndLiveMask) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  const NodeId g = net.add_and(a, b);
  const NodeId dead = net.add_or(a, b);
  (void)dead;
  net.add_po(g);
  const auto live = net.live_mask();
  EXPECT_TRUE(live[g]);
  EXPECT_FALSE(live[dead]);
  const auto fo = net.fanout_counts();
  EXPECT_EQ(fo[g], 1u); // the PO
  EXPECT_EQ(fo[a], 1u); // only via the live AND
}

TEST(Network, RejectsBadGates) {
  Network net;
  const NodeId a = net.add_pi();
  EXPECT_THROW(net.add_gate(GateType::Not, {a, a}), std::invalid_argument);
  EXPECT_THROW(net.add_gate(GateType::And, {}), std::invalid_argument);
  EXPECT_THROW(net.add_gate(GateType::And, {999}), std::invalid_argument);
}

TEST(Simulate, MatchesEvalOnRandomPatterns) {
  const Network net = full_adder_net();
  const auto patterns = random_patterns(3, 100, 5);
  const auto values = simulate(net, patterns);
  for (std::size_t p = 0; p < 100; ++p) {
    std::vector<bool> pi(3);
    for (int i = 0; i < 3; ++i) pi[static_cast<std::size_t>(i)] =
        patterns.bits[static_cast<std::size_t>(i)].get(p);
    const auto out = net.eval(pi);
    EXPECT_EQ(values[net.po(0)].get(p), out[0]);
    EXPECT_EQ(values[net.po(1)].get(p), out[1]);
  }
}

TEST(Simulate, PatternSetAppend) {
  PatternSet ps(2, 0);
  BitVec a(2);
  a.set(1);
  ps.append(a);
  BitVec b(2);
  b.set(0);
  ps.append(b);
  EXPECT_EQ(ps.num_patterns, 2u);
  EXPECT_FALSE(ps.bits[0].get(0));
  EXPECT_TRUE(ps.bits[1].get(0));
  EXPECT_TRUE(ps.bits[0].get(1));
  EXPECT_FALSE(ps.bits[1].get(1));
}

TEST(Stats, PaperMetricCountsXorAsThree) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  net.add_po(net.add_xor(a, b));
  const auto s = network_stats(net);
  EXPECT_EQ(s.gates2, 3u);
  EXPECT_EQ(s.lits, 6u);
  EXPECT_EQ(s.num_xor2, 1u);
}

TEST(Stats, InvertersAreFree) {
  Network net;
  const NodeId a = net.add_pi();
  const NodeId b = net.add_pi();
  net.add_po(net.add_and(net.add_not(a), b));
  const auto s = network_stats(net);
  EXPECT_EQ(s.gates2, 1u);
  EXPECT_EQ(s.num_inverters, 1u);
}

TEST(Stats, NaryGatesCountAsTrees) {
  Network net;
  std::vector<NodeId> pis;
  for (int i = 0; i < 5; ++i) pis.push_back(net.add_pi());
  net.add_po(net.add_gate(GateType::And, pis));
  EXPECT_EQ(network_stats(net).gates2, 4u);
}

TEST(Stats, T481ClosedFormIsTwentyFiveGates) {
  // The paper's Example 1: the final t481 network is 25 2-input AND/OR
  // gates (50 literals) when each XOR costs three gates.
  Network net;
  std::vector<NodeId> v;
  for (int i = 0; i < 16; ++i) v.push_back(net.add_pi());
  const auto nv = [&](int i) { return net.add_not(v[static_cast<std::size_t>(i)]); };
  const auto pv = [&](int i) { return v[static_cast<std::size_t>(i)]; };
  const NodeId t1 = net.add_xor(net.add_and(nv(0), pv(1)), net.add_and(pv(2), nv(3)));
  const NodeId t2 = net.add_xor(net.add_and(nv(4), pv(5)), net.add_or(nv(6), pv(7)));
  const NodeId t3 = net.add_xor(net.add_or(pv(8), nv(9)), net.add_and(pv(10), nv(11)));
  const NodeId t4 = net.add_xor(net.add_and(nv(12), pv(13)), net.add_and(pv(14), nv(15)));
  net.add_po(net.add_xor(net.add_and(t1, t2), net.add_and(t3, t4)));
  const auto s = network_stats(net);
  EXPECT_EQ(s.gates2, 25u);
  EXPECT_EQ(s.lits, 50u);
}

TEST(Io, BlifContainsStructure) {
  const Network net = full_adder_net();
  const std::string blif = write_blif_string(net, "fa");
  EXPECT_NE(blif.find(".model fa"), std::string::npos);
  EXPECT_NE(blif.find(".inputs a b c"), std::string::npos);
  EXPECT_NE(blif.find(".outputs sum cout"), std::string::npos);
  EXPECT_NE(blif.find("01 1"), std::string::npos); // an XOR cover row
  EXPECT_NE(blif.find(".end"), std::string::npos);
}

TEST(Io, DotContainsNodes) {
  const std::string dot = to_dot(full_adder_net(), "fa");
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("xor"), std::string::npos);
}

} // namespace
} // namespace rmsyn
