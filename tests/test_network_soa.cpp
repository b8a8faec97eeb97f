// SoA network core tests: the maintained structure (ref counts, fanout
// lists, levels, free-list recycling) must track a naive shadow model
// through arbitrary build/rewrite/recycle sequences; compact() must remap
// ids densely while preserving PI/PO order, names and semantics; and the
// AIGER reader/writer must round-trip through both the ascii and binary
// encodings (cross-checked against BLIF) with full functional equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "benchgen/spec.hpp"
#include "equiv/equiv.hpp"
#include "network/io.hpp"
#include "network/network.hpp"
#include "sim/sim.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

// --- shadow model ------------------------------------------------------------

/// Naive AoS mirror of a Network: every maintained quantity is recomputed
/// from scratch, so any divergence pinpoints broken incremental updates.
struct Shadow {
  struct Node {
    GateType type = GateType::Const0;
    std::vector<NodeId> fanins;
    bool alive = true;
  };
  std::vector<Node> nodes{{/*const0*/}, {GateType::Const1, {}, true}};
  std::vector<NodeId> pis, pos;

  NodeId add_pi() {
    nodes.push_back({GateType::Pi, {}, true});
    pis.push_back(static_cast<NodeId>(nodes.size() - 1));
    return pis.back();
  }
  NodeId add_gate_at(NodeId id, GateType t, std::vector<NodeId> fi) {
    if (id == nodes.size()) nodes.emplace_back();
    nodes[id] = {t, std::move(fi), true};
    return id;
  }
  void rewrite(NodeId n, GateType t, std::vector<NodeId> fi) {
    nodes[n].type = t;
    nodes[n].fanins = std::move(fi);
  }
  void recycle(NodeId n) { nodes[n] = {GateType::Const0, {}, false}; }

  uint32_t ref_count(NodeId n) const {
    uint32_t c = 0;
    for (const auto& node : nodes)
      if (node.alive)
        for (const NodeId f : node.fanins) c += f == n ? 1 : 0;
    return c;
  }
  uint32_t po_refs(NodeId n) const {
    uint32_t c = 0;
    for (const NodeId p : pos) c += p == n ? 1 : 0;
    return c;
  }
  std::vector<NodeId> fanout_owners(NodeId n) const {
    std::vector<NodeId> out;
    for (NodeId m = 0; m < nodes.size(); ++m)
      if (nodes[m].alive)
        for (const NodeId f : nodes[m].fanins)
          if (f == n) out.push_back(m);
    return out;
  }
  uint32_t level(NodeId n) const {
    if (nodes[n].fanins.empty()) return 0;
    uint32_t lv = 0;
    for (const NodeId f : nodes[n].fanins) lv = std::max(lv, level(f) + 1);
    return lv;
  }
};

void expect_matches_shadow(const Network& net, const Shadow& sh,
                           const std::string& context) {
  ASSERT_EQ(net.node_count(), sh.nodes.size()) << context;
  for (NodeId n = 0; n < net.node_count(); ++n) {
    if (!sh.nodes[n].alive) {
      EXPECT_TRUE(net.is_dead(n)) << context << ": node " << n;
      continue;
    }
    ASSERT_FALSE(net.is_dead(n)) << context << ": node " << n;
    EXPECT_EQ(net.type(n), sh.nodes[n].type) << context << ": node " << n;
    EXPECT_EQ(net.fanins(n), sh.nodes[n].fanins) << context << ": node " << n;
    EXPECT_EQ(net.ref_count(n), sh.ref_count(n)) << context << ": node " << n;
    EXPECT_EQ(net.po_ref_count(n), sh.po_refs(n)) << context << ": node " << n;
    EXPECT_EQ(net.level(n), sh.level(n)) << context << ": node " << n;
    // Fanout lists carry the same edge multiset (order is maintenance
    // order, so compare sorted).
    std::vector<NodeId> got = net.fanout_list(n);
    std::vector<NodeId> want = sh.fanout_owners(n);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << context << ": node " << n;
  }
}

TEST(NetworkSoa, RandomizedMutationsMatchShadow) {
  static const GateType kBinary[] = {GateType::And,  GateType::Or,
                                     GateType::Xor,  GateType::Nand,
                                     GateType::Nor,  GateType::Xnor};
  for (const uint64_t seed : {1ull, 7ull, 0xBADC0DEull}) {
    Rng rng(seed);
    Network net;
    Shadow sh;
    // rank[n] = creation stamp; fanins always point at strictly older
    // stamps, so no mutation sequence can close a cycle.
    std::vector<uint64_t> rank{0, 0};
    uint64_t stamp = 1;
    for (int i = 0; i < 6; ++i) {
      net.add_pi("p" + std::to_string(i));
      sh.add_pi();
      rank.push_back(stamp++);
    }
    const auto pick_older_than = [&](uint64_t bound) {
      // Uniform over alive nodes with rank < bound (constants qualify).
      NodeId best = Network::kConst0;
      for (int tries = 0; tries < 32; ++tries) {
        const NodeId c = static_cast<NodeId>(rng.next() % sh.nodes.size());
        if (sh.nodes[c].alive && rank[c] < bound) return c;
      }
      return best;
    };

    std::vector<NodeId> recyclable;
    for (int step = 0; step < 400; ++step) {
      const unsigned op = rng.next() % 10;
      if (op < 5 || net.node_count() < 12) {
        // add_gate (possibly reusing a recycled slot)
        const GateType t = kBinary[rng.next() % 6];
        const std::vector<NodeId> fi = {pick_older_than(stamp),
                                        pick_older_than(stamp)};
        const NodeId n = net.add_gate(t, fi);
        sh.add_gate_at(n, t, fi);
        if (n >= rank.size()) rank.resize(n + 1, 0);
        rank[n] = stamp++;
      } else if (op < 8) {
        // rewrite a random alive gate with fanins older than itself
        std::vector<NodeId> gates;
        for (NodeId n = 2; n < net.node_count(); ++n)
          if (sh.nodes[n].alive && sh.nodes[n].type != GateType::Pi)
            gates.push_back(n);
        if (gates.empty()) continue;
        const NodeId n = gates[rng.next() % gates.size()];
        if (rng.next() % 4 == 0) {
          const std::vector<NodeId> fi = {pick_older_than(rank[n])};
          net.rewrite_gate(n, GateType::Not, fi);
          sh.rewrite(n, GateType::Not, fi);
        } else {
          const GateType t = kBinary[rng.next() % 6];
          // Grow/shrink arity between 1 and 3 to exercise in-place reuse
          // and arena re-append.
          std::vector<NodeId> fi;
          const std::size_t arity = 1 + rng.next() % 3;
          for (std::size_t k = 0; k < arity; ++k)
            fi.push_back(pick_older_than(rank[n]));
          net.rewrite_gate(n, t, fi);
          sh.rewrite(n, t, fi);
        }
      } else {
        // recycle an unreferenced non-PI node, if any
        std::vector<NodeId> cand;
        for (NodeId n = 2; n < net.node_count(); ++n)
          if (sh.nodes[n].alive && sh.nodes[n].type != GateType::Pi &&
              sh.ref_count(n) == 0 && sh.po_refs(n) == 0)
            cand.push_back(n);
        if (cand.empty()) continue;
        const NodeId n = cand[rng.next() % cand.size()];
        net.recycle(n);
        sh.recycle(n);
      }
      if (step % 50 == 49)
        expect_matches_shadow(net, sh, "seed " + std::to_string(seed) +
                                           " step " + std::to_string(step));
    }
    // POs on a couple of live gates, then a final full compare.
    for (NodeId n = 2; n < net.node_count() && sh.pos.size() < 3; ++n) {
      if (!sh.nodes[n].alive || sh.nodes[n].type == GateType::Pi) continue;
      net.add_po(n, "po" + std::to_string(sh.pos.size()));
      sh.pos.push_back(n);
    }
    expect_matches_shadow(net, sh, "seed " + std::to_string(seed) + " final");
  }
}

TEST(NetworkSoa, RecycleGuardsAndReuse) {
  Network net;
  const NodeId a = net.add_pi("a");
  const NodeId b = net.add_pi("b");
  const NodeId g = net.add_and(a, b);
  const NodeId h = net.add_not(g);
  net.add_po(h, "f");

  EXPECT_THROW(net.recycle(g), std::logic_error); // still referenced by h
  EXPECT_THROW(net.recycle(h), std::logic_error); // PO-referenced
  EXPECT_THROW(net.recycle(a), std::logic_error); // PIs never recycle

  net.rewrite_gate(h, GateType::Not, {a}); // g drops to 0 refs
  net.recycle(g);
  EXPECT_TRUE(net.is_dead(g));
  const std::size_t before = net.node_count();
  const NodeId reused = net.add_or(a, b); // must reuse g's slot
  EXPECT_EQ(reused, g);
  EXPECT_EQ(net.node_count(), before);
  EXPECT_FALSE(net.is_dead(reused));
  EXPECT_EQ(net.ref_count(a), 2u); // h and the reused gate
}

// --- compact -----------------------------------------------------------------

TEST(NetworkSoa, CompactPreservesOrderNamesAndFunction) {
  for (const auto& name : {"z4ml", "rd53", "mlp4", "t481"}) {
    Network net = make_benchmark(name).spec;
    // Orphan some structure so compact() has something to drop: rewrite a
    // few gates down to buffers of their first fanin.
    Rng rng(0xC0DE ^ net.node_count());
    std::vector<NodeId> gates;
    for (NodeId n = 2; n < net.node_count(); ++n)
      if (net.type(n) != GateType::Pi) gates.push_back(n);
    for (int i = 0; i < 3 && !gates.empty(); ++i) {
      const NodeId n = gates[rng.next() % gates.size()];
      net.rewrite_gate(n, GateType::Buf, {net.fanins(n)[0]});
    }

    const Network before = net; // copy for the semantic comparison
    const std::vector<NodeId> old_pis = net.pis();
    const std::vector<NodeId> old_pos = net.pos();

    const std::vector<NodeId> remap = net.compact();
    ASSERT_EQ(remap.size(), before.node_count()) << name;

    // Dense: constants first, then PIs in pi order.
    EXPECT_EQ(remap[Network::kConst0], Network::kConst0) << name;
    EXPECT_EQ(remap[Network::kConst1], Network::kConst1) << name;
    ASSERT_EQ(net.pi_count(), old_pis.size()) << name;
    for (std::size_t i = 0; i < old_pis.size(); ++i) {
      EXPECT_EQ(net.pis()[i], static_cast<NodeId>(2 + i)) << name;
      EXPECT_EQ(remap[old_pis[i]], net.pis()[i]) << name;
      EXPECT_EQ(net.name(net.pis()[i]), before.name(old_pis[i])) << name;
      EXPECT_EQ(net.pi_index(net.pis()[i]), i) << name;
    }
    ASSERT_EQ(net.po_count(), old_pos.size()) << name;
    for (std::size_t i = 0; i < old_pos.size(); ++i) {
      EXPECT_EQ(net.po(i), remap[old_pos[i]]) << name;
      EXPECT_EQ(net.po_name(i), before.po_name(i)) << name;
    }
    // Every live node maps; its type survives the move.
    const auto live = before.live_mask();
    for (NodeId n = 0; n < before.node_count(); ++n) {
      if (!live[n]) continue;
      ASSERT_NE(remap[n], Network::kNoNode) << name << ": node " << n;
      EXPECT_EQ(net.type(remap[n]), before.type(n)) << name << ": node " << n;
    }
    EXPECT_LE(net.node_count(), before.node_count()) << name;
    EXPECT_LE(net.edge_capacity(), before.edge_capacity()) << name;

    // Same function on random patterns.
    const PatternSet patterns = random_patterns(net.pi_count(), 128, 0xFADE);
    const auto va = simulate(before, patterns);
    const auto vb = simulate(net, patterns);
    for (std::size_t i = 0; i < net.po_count(); ++i)
      EXPECT_EQ(va[before.po(i)], vb[net.po(i)]) << name << ": po " << i;

    // A second compact of an already-dense network is id-stable.
    const std::size_t count = net.node_count();
    const std::vector<NodeId> remap2 = net.compact();
    EXPECT_EQ(net.node_count(), count) << name;
    for (NodeId n = 0; n < count; ++n)
      EXPECT_EQ(remap2[n], n) << name << ": node " << n;
  }
}

// --- AIGER -------------------------------------------------------------------

TEST(NetworkSoa, AigerAsciiRoundTripIsEquivalent) {
  for (const auto& name : {"z4ml", "rd53", "f2", "majority", "mlp4", "t481"}) {
    const Network net = make_benchmark(name).spec;
    const std::string text = write_aiger_string(net, /*binary=*/false);
    ASSERT_EQ(text.compare(0, 4, "aag "), 0) << name;
    const Network back = read_aiger_string(text);
    ASSERT_EQ(back.pi_count(), net.pi_count()) << name;
    ASSERT_EQ(back.po_count(), net.po_count()) << name;
    for (std::size_t i = 0; i < net.pi_count(); ++i)
      EXPECT_EQ(back.name(back.pis()[i]), net.name(net.pis()[i])) << name;
    for (std::size_t i = 0; i < net.po_count(); ++i)
      EXPECT_EQ(back.po_name(i), net.po_name(i)) << name;
    const auto eq = check_equivalence(net, back);
    EXPECT_TRUE(eq.decided && eq.equivalent) << name << ": " << eq.reason;
  }
}

TEST(NetworkSoa, AigerBinaryRoundTripIsEquivalent) {
  for (const auto& name : {"z4ml", "rd53", "f2", "mlp4"}) {
    const Network net = make_benchmark(name).spec;
    const std::string text = write_aiger_string(net, /*binary=*/true);
    ASSERT_EQ(text.compare(0, 4, "aig "), 0) << name;
    const Network back = read_aiger_string(text);
    const auto eq = check_equivalence(net, back);
    EXPECT_TRUE(eq.decided && eq.equivalent) << name << ": " << eq.reason;
    // Binary and ascii encodings decode to identical structure.
    const Network ascii_back =
        read_aiger_string(write_aiger_string(net, /*binary=*/false));
    EXPECT_EQ(write_blif_string(back, name), write_blif_string(ascii_back, name))
        << name;
  }
}

TEST(NetworkSoa, AigerBlifCrossRoundTripIsEquivalent) {
  for (const auto& name : {"z4ml", "rd53", "f2"}) {
    const Network net = make_benchmark(name).spec;
    // Network -> AIGER -> Network -> BLIF -> Network keeps the function.
    const Network via_aiger = read_aiger_string(write_aiger_string(net));
    const Network via_blif =
        read_blif_string(write_blif_string(via_aiger, name));
    const auto eq = check_equivalence(net, via_blif);
    EXPECT_TRUE(eq.decided && eq.equivalent) << name << ": " << eq.reason;
  }
}

TEST(NetworkSoa, AigerGeneratedLargeBenchmarkRoundTrips) {
  // The parameterized families feed the scale bench; make sure a mid-size
  // instance survives the binary encoding bit-exactly (structural compare
  // via BLIF text, no BDDs at this size).
  const Network net = make_benchmark("adder64").spec;
  const Network back = read_aiger_string(write_aiger_string(net, true));
  ASSERT_EQ(back.pi_count(), net.pi_count());
  ASSERT_EQ(back.po_count(), net.po_count());
  const PatternSet patterns = random_patterns(net.pi_count(), 256, 0xADD);
  const auto va = simulate(net, patterns);
  const auto vb = simulate(back, patterns);
  for (std::size_t i = 0; i < net.po_count(); ++i)
    EXPECT_EQ(va[net.po(i)], vb[back.po(i)]) << "po " << i;
}

TEST(NetworkSoa, AigerRejectsMalformedInput) {
  // Latches are combinational-only territory.
  EXPECT_THROW(read_aiger_string("aag 3 1 1 1 0\n2\n4 2\n4\n"),
               std::runtime_error);
  // Bad magic.
  EXPECT_THROW(read_aiger_string("agg 1 1 0 1 0\n2\n2\n"), std::runtime_error);
  // Variable defined twice.
  EXPECT_THROW(
      read_aiger_string("aag 3 2 0 1 1\n2\n4\n6\n4 2 2\n"),
      std::runtime_error);
  // Output reads an undefined variable.
  EXPECT_THROW(read_aiger_string("aag 3 1 0 1 0\n2\n6\n"), std::runtime_error);
  // Truncated binary and-gate section.
  EXPECT_THROW(read_aiger_string("aig 2 1 0 1 1\n4\n"), std::runtime_error);
  // Binary header must satisfy M = I + A.
  EXPECT_THROW(read_aiger_string("aig 5 1 0 1 1\n4\n\x02\x02"),
               std::runtime_error);
  // And-gate underflow in the delta encoding (rhs0 would exceed lhs).
  EXPECT_THROW(read_aiger_string(std::string("aig 2 1 0 1 1\n4\n\x00\x00", 18)),
               std::runtime_error);
}

TEST(NetworkSoa, AigerAcceptsOutOfOrderAscii) {
  // aag allows and-gates in any order; the reader resolves iteratively.
  const Network net = read_aiger_string(
      "aag 4 2 0 1 2\n2\n4\n8\n8 6 2\n6 2 4\ni0 a\ni1 b\no0 f\n");
  ASSERT_EQ(net.pi_count(), 2u);
  ASSERT_EQ(net.po_count(), 1u);
  // f = (a & b) & a = a & b.
  EXPECT_EQ(net.eval({true, true}), std::vector<bool>{true});
  EXPECT_EQ(net.eval({true, false}), std::vector<bool>{false});
  EXPECT_EQ(net.eval({false, true}), std::vector<bool>{false});
}

// --- BLIF diagnostics (PLA-parity hardening) --------------------------------

void expect_blif_error_contains(const std::string& text,
                                const std::string& needle) {
  try {
    read_blif_string(text);
    FAIL() << "expected read_blif to reject: " << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(NetworkSoa, BlifDiagnosticsCarryLineNumbers) {
  expect_blif_error_contains(
      ".model m\n.inputs a a\n.outputs f\n.names a f\n1 1\n.end\n",
      "line 2: duplicate input a");
  expect_blif_error_contains(".model m\n.inputs a\n.outputs f\n.end\n",
                             "line 3: undriven output f");
  expect_blif_error_contains(
      ".model m\n.inputs a\n.outputs f\n.names a g f\n11 1\n.end\n",
      "line 4: unresolved");
}

TEST(NetworkSoa, BlifMultiCubeNamesRoundTrip) {
  // A multi-cube OR-of-ANDs block must survive write->read->write.
  const std::string src =
      ".model m\n.inputs a b c\n.outputs f\n"
      ".names a b c f\n11- 1\n--1 1\n0-0 1\n.end\n";
  const Network net = read_blif_string(src);
  const Network back = read_blif_string(write_blif_string(net, "m"));
  const auto eq = check_equivalence(net, back);
  EXPECT_TRUE(eq.decided && eq.equivalent) << eq.reason;
}

} // namespace
} // namespace rmsyn
