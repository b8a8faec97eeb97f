#include "core/xor_expr.hpp"

#include <cassert>

namespace rmsyn {

LiteralContext::LiteralContext(Network& net, const std::vector<NodeId>& pi_nodes,
                               const std::vector<int>& support,
                               const BitVec& polarity)
    : net_(&net) {
  lit_nodes_.reserve(support.size());
  for (const int v : support) {
    const NodeId pi = pi_nodes[static_cast<std::size_t>(v)];
    lit_nodes_.push_back(polarity.get(static_cast<std::size_t>(v))
                             ? pi
                             : net.add_not(pi));
  }
}

NodeId LiteralContext::build_cube(const BitVec& cube) {
  std::vector<NodeId> leaves;
  for (std::size_t i = cube.first_set(); i != BitVec::npos; i = cube.next_set(i + 1))
    leaves.push_back(lit_nodes_[i]);
  return balanced_gate_tree(*net_, GateType::And, std::move(leaves));
}

NodeId balanced_gate_tree(Network& net, GateType type, std::vector<NodeId> leaves) {
  if (leaves.empty())
    return type == GateType::And ? Network::kConst1 : Network::kConst0;
  while (leaves.size() > 1) {
    std::vector<NodeId> next;
    next.reserve((leaves.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < leaves.size(); i += 2)
      next.push_back(net.add_gate(type, {leaves[i], leaves[i + 1]}));
    if (leaves.size() % 2 == 1) next.push_back(leaves.back());
    leaves.swap(next);
  }
  return leaves[0];
}

std::vector<std::vector<std::size_t>> group_by_disjoint_support(
    const std::vector<BitVec>& cubes) {
  // Connected components of the variables, joined through the cubes: each
  // component is a variable mask, and the masks stay pairwise disjoint, so
  // there are never more of them than variables. A cube joins every
  // component it touches; a cube without literals is a group of its own.
  const std::size_t w = cubes.empty() ? 0 : cubes[0].words();
  std::vector<uint64_t> comps; // component c: words [c*w, (c+1)*w)
  std::size_t ncomps = 0;
  const auto touches = [&](std::size_t c, const BitVec& m) {
    for (std::size_t k = 0; k < w; ++k)
      if ((comps[c * w + k] & m.word(k)) != 0) return true;
    return false;
  };
  for (const BitVec& m : cubes) {
    std::size_t into = BitVec::npos;
    for (std::size_t c = 0; c < ncomps;) {
      if (!touches(c, m)) {
        ++c;
      } else if (into == BitVec::npos) {
        into = c;
        for (std::size_t k = 0; k < w; ++k) comps[c * w + k] |= m.word(k);
        ++c;
      } else {
        // Merge component c into `into` (an earlier slot) and refill slot
        // c with the last component, which the loop then visits.
        --ncomps;
        for (std::size_t k = 0; k < w; ++k) {
          comps[into * w + k] |= comps[c * w + k];
          comps[c * w + k] = comps[ncomps * w + k];
        }
        comps.resize(ncomps * w);
      }
    }
    if (into == BitVec::npos && m.any()) {
      comps.insert(comps.end(), m.data(), m.data() + w);
      ++ncomps;
    }
  }
  // Groups in order of their lowest cube index, members ascending.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::size_t> comp_group(ncomps, BitVec::npos);
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    std::size_t c = 0;
    while (c < comp_group.size() && !touches(c, cubes[i])) ++c;
    if (c == comp_group.size()) { // no literals
      groups.push_back({i});
      continue;
    }
    if (comp_group[c] == BitVec::npos) {
      comp_group[c] = groups.size();
      groups.emplace_back();
    }
    groups[comp_group[c]].push_back(i);
  }
  return groups;
}

} // namespace rmsyn
