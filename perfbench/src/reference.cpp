#include "reference.hpp"

#include <algorithm>
#include <cctype>

namespace rmbench {

using rmsyn::GateType;
using rmsyn::Network;
using rmsyn::NodeId;

namespace {

uint64_t splitmix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Live cone of the POs in fanin-before-fanout order, from our own DFS.
std::vector<NodeId> topological_cone(const Network& net) {
  std::vector<uint8_t> state(net.node_count(), 0); // 0 new, 1 open, 2 done
  std::vector<NodeId> order;
  std::vector<std::pair<NodeId, std::size_t>> stack;
  for (const NodeId root : net.pos()) {
    if (state[root] != 0) continue;
    stack.push_back({root, 0});
    state[root] = 1;
    while (!stack.empty()) {
      auto& [n, next] = stack.back();
      if (next < net.fanin_count(n)) {
        const NodeId f = net.fanin(n, next++);
        if (state[f] == 0) {
          state[f] = 1;
          stack.push_back({f, 0});
        }
        continue;
      }
      state[n] = 2;
      order.push_back(n);
      stack.pop_back();
    }
  }
  return order;
}

class Evaluator {
public:
  explicit Evaluator(const Network& net)
      : net_(net), order_(topological_cone(net)) {
    pi_pos_.assign(net.node_count(), -1);
    for (std::size_t i = 0; i < net.pi_count(); ++i)
      pi_pos_[net.pis()[i]] = static_cast<long>(i);
  }

  /// Evaluates words [w0, w0 + nw) of the pattern matrix into `po_words`.
  void run(const std::vector<std::vector<uint64_t>>& pi_words, std::size_t w0,
           std::size_t nw, std::vector<std::vector<uint64_t>>& po_words) {
    val_.assign(net_.node_count() * nw, 0);
    for (const NodeId n : order_) {
      uint64_t* out = &val_[static_cast<std::size_t>(n) * nw];
      const GateType t = net_.type(n);
      const std::size_t k = net_.fanin_count(n);
      const auto in = [&](std::size_t i) {
        return &val_[static_cast<std::size_t>(net_.fanin(n, i)) * nw];
      };
      for (std::size_t w = 0; w < nw; ++w) {
        uint64_t v = 0;
        switch (t) {
        case GateType::Const0: v = 0; break;
        case GateType::Const1: v = ~uint64_t{0}; break;
        case GateType::Pi:
          v = pi_words[static_cast<std::size_t>(pi_pos_[n])][w0 + w];
          break;
        case GateType::Buf: v = in(0)[w]; break;
        case GateType::Not: v = ~in(0)[w]; break;
        case GateType::And:
        case GateType::Nand:
          v = ~uint64_t{0};
          for (std::size_t i = 0; i < k; ++i) v &= in(i)[w];
          if (t == GateType::Nand) v = ~v;
          break;
        case GateType::Or:
        case GateType::Nor:
          for (std::size_t i = 0; i < k; ++i) v |= in(i)[w];
          if (t == GateType::Nor) v = ~v;
          break;
        case GateType::Xor:
        case GateType::Xnor:
          for (std::size_t i = 0; i < k; ++i) v ^= in(i)[w];
          if (t == GateType::Xnor) v = ~v;
          break;
        }
        out[w] = v;
      }
    }
    for (std::size_t j = 0; j < net_.po_count(); ++j)
      for (std::size_t w = 0; w < nw; ++w)
        po_words[j][w0 + w] =
            val_[static_cast<std::size_t>(net_.po(j)) * nw + w];
  }

private:
  const Network& net_;
  std::vector<NodeId> order_;
  std::vector<long> pi_pos_;
  std::vector<uint64_t> val_;
};

constexpr std::size_t kChunkWords = 64;
constexpr std::size_t kSpecRandomPatterns = 4096;
constexpr std::size_t kArithPatterns = 1024;

/// Evaluates `net` on pattern words: pi_words[i][w] holds 64 values of PI
/// i. Returns po_words[j][w].
std::vector<std::vector<uint64_t>> evaluate(
    const Network& net, const std::vector<std::vector<uint64_t>>& pi_words) {
  const std::size_t words = pi_words.empty() ? 0 : pi_words[0].size();
  std::vector<std::vector<uint64_t>> po(net.po_count(),
                                        std::vector<uint64_t>(words, 0));
  Evaluator ev(net);
  for (std::size_t w0 = 0; w0 < words; w0 += kChunkWords)
    ev.run(pi_words, w0, std::min(kChunkWords, words - w0), po);
  return po;
}

/// Parses "<prefix><N>" with N >= 1; returns 0 otherwise.
int family_width(const std::string& name, const std::string& prefix) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix))
    return 0;
  int n = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i])) || n > 100000)
      return 0;
    n = n * 10 + (name[i] - '0');
  }
  return n;
}

using Limbs = std::vector<uint64_t>;

bool bit_of(const Limbs& x, std::size_t k) {
  return k / 64 < x.size() && ((x[k / 64] >> (k % 64)) & 1u) != 0;
}

Limbs add(const Limbs& a, const Limbs& b, bool cin) {
  Limbs s(std::max(a.size(), b.size()) + 1, 0);
  unsigned __int128 carry = cin ? 1 : 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    carry += i < a.size() ? a[i] : 0;
    carry += i < b.size() ? b[i] : 0;
    s[i] = static_cast<uint64_t>(carry);
    carry >>= 64;
  }
  return s;
}

Limbs mul(const Limbs& a, const Limbs& b) {
  Limbs p(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const unsigned __int128 t =
          static_cast<unsigned __int128>(a[i]) * b[j] + p[i + j] + carry;
      p[i + j] = static_cast<uint64_t>(t);
      carry = t >> 64;
    }
    p[i + b.size()] = static_cast<uint64_t>(carry);
  }
  return p;
}

/// An N-bit operand: random, or a corner value.
Limbs operand(int nbits, uint64_t& rng, int corner) {
  Limbs x(static_cast<std::size_t>((nbits + 63) / 64), 0);
  for (auto& limb : x)
    limb = corner == 0 ? 0 : corner == 1 ? ~uint64_t{0}
         : corner == 2 ? 0 : splitmix64(rng);
  if (corner == 2) x[0] = 1;
  if (nbits % 64 != 0) x.back() &= (uint64_t{1} << (nbits % 64)) - 1;
  return x;
}

} // namespace

RefCheck check_against_spec(const Network& spec, const Network& impl,
                            uint64_t seed) {
  RefCheck r;
  if (spec.pi_count() != impl.pi_count() ||
      spec.po_count() != impl.po_count()) {
    r.ok = false;
    r.reason = "PI/PO count differs from the spec";
    return r;
  }
  const std::size_t n = spec.pi_count();
  const bool exhaustive = n <= 16;
  const std::size_t words =
      exhaustive ? std::max<std::size_t>(1, (std::size_t{1} << n) / 64)
                 : kSpecRandomPatterns / 64;
  std::vector<std::vector<uint64_t>> pi(n, std::vector<uint64_t>(words, 0));
  static constexpr uint64_t kLaneMasks[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  uint64_t rng = seed;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t w = 0; w < words; ++w) {
      if (exhaustive)
        pi[i][w] = i < 6 ? kLaneMasks[i]
                         : (((w >> (i - 6)) & 1u) != 0 ? ~uint64_t{0} : 0);
      else
        pi[i][w] = w == 0 ? (splitmix64(rng) & ~uint64_t{3}) | 2u
                          : splitmix64(rng); // lane 0 all-0, lane 1 all-1
    }
  const auto want = evaluate(spec, pi);
  const auto got = evaluate(impl, pi);
  for (std::size_t j = 0; j < want.size(); ++j)
    for (std::size_t w = 0; w < words; ++w)
      if (want[j][w] != got[j][w]) {
        r.ok = false;
        r.reason = "output " + spec.po_name(j) + " differs from the spec";
        return r;
      }
  return r;
}

RefCheck check_arithmetic(const std::string& circuit, const Network& impl,
                          uint64_t seed) {
  RefCheck r;
  const int add_n = family_width(circuit, "adder");
  const int mul_n = family_width(circuit, "mult");
  const int n = add_n > 0 ? add_n : mul_n;
  const std::size_t npi = add_n > 0 ? 2 * n + 1 : 2 * n;
  const std::size_t npo = add_n > 0 ? n + 1 : 2 * n;
  if (n == 0 || impl.pi_count() != npi || impl.po_count() != npo) {
    r.ok = false;
    r.reason = "not an adderN/multN network of the expected shape";
    return r;
  }
  const std::size_t words = kArithPatterns / 64;
  const std::size_t lanes = words * 64;
  uint64_t rng = seed;
  std::vector<Limbs> a(lanes), b(lanes);
  std::vector<bool> cin(lanes, false);
  for (std::size_t l = 0; l < lanes; ++l) {
    // Lanes 0-3: 0+0, ~0+0+1 (full carry ripple), ~0+1, ~0+~0+1.
    const int ca = l == 0 ? 0 : l < 4 ? 1 : 3;
    const int cb = l == 0 || l == 1 ? 0 : l == 2 ? 2 : l == 3 ? 1 : 3;
    a[l] = operand(n, rng, ca);
    b[l] = operand(n, rng, cb);
    cin[l] = l == 1 || l == 3 || (l >= 4 && (splitmix64(rng) & 1u) != 0);
  }
  std::vector<std::vector<uint64_t>> pi(npi, std::vector<uint64_t>(words, 0));
  for (std::size_t l = 0; l < lanes; ++l) {
    const uint64_t bit = uint64_t{1} << (l % 64);
    for (int k = 0; k < n; ++k) {
      const std::size_t ia = add_n > 0 ? 2 * k : k;
      const std::size_t ib = add_n > 0 ? 2 * k + 1 : n + k;
      if (bit_of(a[l], k)) pi[ia][l / 64] |= bit;
      if (bit_of(b[l], k)) pi[ib][l / 64] |= bit;
    }
    if (add_n > 0 && cin[l]) pi[2 * n][l / 64] |= bit;
  }
  const auto got = evaluate(impl, pi);
  for (std::size_t l = 0; l < lanes; ++l) {
    const Limbs want = add_n > 0 ? add(a[l], b[l], cin[l]) : mul(a[l], b[l]);
    for (std::size_t j = 0; j < npo; ++j) {
      const bool g = ((got[j][l / 64] >> (l % 64)) & 1u) != 0;
      if (g != bit_of(want, j)) {
        r.ok = false;
        r.reason = "output bit " + std::to_string(j) +
                   " differs from integer arithmetic";
        return r;
      }
    }
  }
  return r;
}

} // namespace rmbench
