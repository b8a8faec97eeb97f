#include "network/simulate.hpp"

#include <cassert>

#include "util/rng.hpp"

namespace rmsyn {

void PatternSet::append(const BitVec& assignment) {
  assert(assignment.size() == bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    bits[i].resize(num_patterns + 1);
    bits[i].set(num_patterns, assignment.get(i));
  }
  ++num_patterns;
}

void PatternSet::reserve(std::size_t expected_patterns) {
  for (auto& b : bits) b.reserve(expected_patterns);
}

PatternSet random_patterns(std::size_t num_pis, std::size_t count, uint64_t seed) {
  Rng rng(seed);
  PatternSet ps(num_pis, count);
  for (auto& b : ps.bits) {
    for (std::size_t w = 0; w < b.words(); ++w) b.word(w) = rng.next();
    b.mask_tail();
    b.assert_tail_clear();
  }
  return ps;
}

PatternSet pattern_block(const PatternSet& ps, std::size_t first_pattern,
                         std::size_t count) {
  assert(first_pattern % 64 == 0);
  assert(first_pattern + count <= ps.num_patterns);
  const std::size_t first_word = first_pattern / 64;
  PatternSet out(ps.bits.size(), count);
  for (std::size_t i = 0; i < ps.bits.size(); ++i) {
    BitVec& row = out.bits[i];
    for (std::size_t w = 0; w < row.words(); ++w)
      row.word(w) = ps.bits[i].word(first_word + w);
    row.mask_tail();
    row.assert_tail_clear();
  }
  return out;
}

} // namespace rmsyn
