#include "core/factor_cubes.hpp"

#include <algorithm>
#include <cassert>

namespace rmsyn {

namespace {

/// Recursive factoring of a set of cubes (XOR semantics). All cubes are
/// masks over the literal context's positions.
class CubeFactorizer {
public:
  explicit CubeFactorizer(LiteralContext& ctx) : ctx_(ctx) {}

  NodeId factor(std::vector<BitVec> cubes) {
    // Drop duplicate cubes in pairs: C ⊕ C = 0.
    std::sort(cubes.begin(), cubes.end());
    std::vector<BitVec> kept;
    for (std::size_t i = 0; i < cubes.size();) {
      if (i + 1 < cubes.size() && cubes[i] == cubes[i + 1]) i += 2;
      else kept.push_back(std::move(cubes[i++]));
    }
    return factor_nodup(std::move(kept));
  }

private:
  Network& net() { return ctx_.net(); }

  NodeId factor_nodup(std::vector<BitVec> cubes) {
    if (cubes.empty()) return Network::kConst0;
    if (cubes.size() == 1) return ctx_.build_cube(cubes[0]);

    // Reduction rule (b): {B, C, B∪C} = B + C (any partition works since
    // B ⊕ C ⊕ BC = B + C for arbitrary B, C).
    if (cubes.size() == 3) {
      for (int top = 0; top < 3; ++top) {
        const BitVec& u = cubes[static_cast<std::size_t>(top)];
        const BitVec& a = cubes[static_cast<std::size_t>((top + 1) % 3)];
        const BitVec& b = cubes[static_cast<std::size_t>((top + 2) % 3)];
        if ((a | b) == u && a != u && b != u) {
          return net().add_or(ctx_.build_cube(a), ctx_.build_cube(b));
        }
      }
    }

    // Step 2 within the recursion: when the cube set splits into
    // support-disjoint groups, factor them independently and join with a
    // balanced XOR tree (step 5).
    const auto groups = group_by_disjoint_support(cubes);
    if (groups.size() > 1) {
      std::vector<NodeId> parts;
      parts.reserve(groups.size());
      for (const auto& g : groups) {
        // Each cube is in exactly one group, so it can be moved out.
        std::vector<BitVec> sub;
        sub.reserve(g.size());
        for (const std::size_t i : g) sub.push_back(std::move(cubes[i]));
        parts.push_back(factor_nodup(std::move(sub)));
      }
      return balanced_gate_tree(net(), GateType::Xor, std::move(parts));
    }

    // Factorization rule (d): divide by the literal occurring in the most
    // cubes (the subgroup with maximal common support, one literal at a
    // time).
    const std::size_t width = cubes[0].size();
    std::vector<std::size_t> occur(width, 0);
    for (const auto& c : cubes)
      for (std::size_t w = 0; w < c.words(); ++w)
        for (uint64_t bits = c.word(w); bits != 0; bits &= bits - 1)
          ++occur[64 * w + static_cast<std::size_t>(__builtin_ctzll(bits))];
    std::size_t best_lit = BitVec::npos, best_count = 1;
    for (std::size_t b = 0; b < width; ++b) {
      if (occur[b] > best_count) {
        best_count = occur[b];
        best_lit = b;
      }
    }

    if (best_lit == BitVec::npos) {
      // No literal shared by two cubes, yet the supports are connected —
      // can only happen via chains; emit the XOR of cube ANDs directly.
      std::vector<NodeId> leaves;
      leaves.reserve(cubes.size());
      for (const auto& c : cubes) leaves.push_back(ctx_.build_cube(c));
      return balanced_gate_tree(net(), GateType::Xor, std::move(leaves));
    }

    std::vector<BitVec> quotient, remainder;
    bool quotient_has_one = false; // the constant-1 cube inside the quotient
    for (auto& c : cubes) {
      if (c.get(best_lit)) {
        c.set(best_lit, false);
        if (c.none()) quotient_has_one = true;
        else quotient.push_back(std::move(c));
      } else {
        remainder.push_back(std::move(c));
      }
    }

    const NodeId lit = ctx_.literal(best_lit);
    NodeId factored;
    if (quotient_has_one) {
      // Reduction rule (a): A ⊕ A·B = A·B̄ — the quotient contains the
      // constant-1 cube, so lit·(1 ⊕ Q) = lit·(Q'). An inverter is free in
      // the paper's cost model.
      if (quotient.empty()) {
        factored = lit;
      } else {
        const NodeId q = factor_nodup(std::move(quotient));
        factored = net().add_and(lit, net().add_not(q));
      }
    } else {
      const NodeId q = factor_nodup(std::move(quotient));
      factored = q == Network::kConst1 ? lit : net().add_and(lit, q);
    }
    if (remainder.empty()) return factored;
    const NodeId rest = factor_nodup(std::move(remainder));
    return net().add_xor(factored, rest);
  }

  LiteralContext& ctx_;
};

} // namespace

NodeId factor_cubes(Network& net, const std::vector<NodeId>& pi_nodes,
                    const FprmForm& form) {
  LiteralContext ctx(net, pi_nodes, form.support, form.polarity);
  CubeFactorizer fac(ctx);
  return fac.factor(form.cubes);
}

} // namespace rmsyn
