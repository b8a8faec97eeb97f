#include <gtest/gtest.h>

#include <algorithm>

#include "sop/minimize.hpp"
#include "util/rng.hpp"

namespace rmsyn {
namespace {

Cover random_cover(int nvars, int ncubes, Rng& rng) {
  Cover f(nvars);
  for (int c = 0; c < ncubes; ++c) {
    Cube cube(nvars);
    for (int v = 0; v < nvars; ++v) {
      const auto r = rng.below(3);
      if (r == 0) cube.add_pos(v);
      else if (r == 1) cube.add_neg(v);
    }
    f.add(std::move(cube));
  }
  return f;
}

TEST(Minimize, SingleCubeContainmentDropsContained) {
  Cover f(3);
  f.add(Cube::parse("1--"));
  f.add(Cube::parse("11-")); // contained in the first
  f.add(Cube::parse("0-1"));
  const Cover r = single_cube_containment(f);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.to_truth_table(), f.to_truth_table());
}

TEST(Minimize, MergeDistanceOneCombines) {
  Cover f(2);
  f.add(Cube::parse("10"));
  f.add(Cube::parse("11"));
  const Cover r = merge_distance_one(f);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.cubes()[0].to_string(), "1-");
}

TEST(Minimize, MergeChainsToSingleCube) {
  // All four minterms of two variables merge to the universal cube.
  Cover f(2);
  f.add(Cube::parse("00"));
  f.add(Cube::parse("01"));
  f.add(Cube::parse("10"));
  f.add(Cube::parse("11"));
  const Cover r = merge_distance_one(f);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.cubes()[0].is_universal());
}

TEST(Minimize, IrredundantRemovesConsensusCube) {
  // ab + āc + bc: the bc cube is redundant.
  Cover f(3);
  f.add(Cube::parse("11-"));
  f.add(Cube::parse("0-1"));
  f.add(Cube::parse("-11"));
  const Cover r = irredundant(f);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.to_truth_table(), f.to_truth_table());
}

TEST(Minimize, ExpandWidensAgainstOffset) {
  // f = ab + āb ≡ b: expansion of either cube should reach "b".
  Cover f(2);
  f.add(Cube::parse("11"));
  f.add(Cube::parse("01"));
  const Cover r = expand(f);
  EXPECT_EQ(r.to_truth_table(), f.to_truth_table());
  EXPECT_LE(r.literal_count(), f.literal_count());
}

// Reference oracles: the original quadratic kernels, kept here to pin the
// word-level ones in src/sop/minimize.cpp to the same cubes in the same
// order.

Cover ref_single_cube_containment(const Cover& f) {
  const auto& cs = f.cubes();
  std::vector<bool> dead(cs.size(), false);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < cs.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (cs[i].covers(cs[j])) {
        // cs[j] is inside cs[i]; drop j. Identical cubes: keep lower index.
        if (cs[j].covers(cs[i]) && j < i) continue;
        dead[j] = true;
      }
    }
  }
  Cover r(f.nvars());
  for (std::size_t i = 0; i < cs.size(); ++i)
    if (!dead[i]) r.add(cs[i]);
  return r;
}

Cover ref_merge_distance_one(const Cover& f) {
  Cover cur = ref_single_cube_containment(f);
  bool changed = true;
  while (changed) {
    changed = false;
    auto& cs = cur.cubes();
    for (std::size_t i = 0; i < cs.size() && !changed; ++i) {
      for (std::size_t j = i + 1; j < cs.size() && !changed; ++j) {
        if (cs[i].distance(cs[j]) != 1) continue;
        // Find the clashing variable; merge when the rest is identical.
        Cube a = cs[i], b = cs[j];
        int clash_var = -1;
        for (int v = 0; v < cur.nvars(); ++v) {
          if ((a.has_pos(v) && b.has_neg(v)) || (a.has_neg(v) && b.has_pos(v))) {
            clash_var = v;
            break;
          }
        }
        a.drop_var(clash_var);
        b.drop_var(clash_var);
        if (a == b) {
          cs[i] = a;
          cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(j));
          changed = true;
        }
      }
    }
    if (changed) cur = ref_single_cube_containment(cur);
  }
  return cur;
}

// A cover whose cubes draw literals from a few variables spread over every
// mask word (the first and last variable and both sides of each word
// boundary), so containment, duplicates and distance-1 pairs are common
// at any width. One cube in eight is a copy of an earlier one and one in
// eight an earlier one with a literal flipped.
Cover clustered_cover(int nvars, int ncubes, Rng& rng) {
  std::vector<int> vars;
  for (const int v : {0, 1, 62, 63, 64, 65, 127, 128, 129, nvars - 2, nvars - 1})
    if (v >= 0 && v < nvars &&
        std::find(vars.begin(), vars.end(), v) == vars.end())
      vars.push_back(v);
  Cover f(nvars);
  for (int c = 0; c < ncubes; ++c) {
    const auto kind = rng.below(8);
    if (kind == 0 && !f.empty()) {
      f.add(f.cubes()[rng.below(f.size())]);
      continue;
    }
    if (kind == 1 && !f.empty() && !vars.empty()) {
      Cube cube = f.cubes()[rng.below(f.size())];
      const int v = vars[rng.below(vars.size())];
      if (cube.has_pos(v)) cube.add_neg(v);
      else cube.add_pos(v);
      f.add(std::move(cube));
      continue;
    }
    Cube cube(nvars);
    for (const int v : vars) {
      const auto r = rng.below(4);
      if (r == 0) cube.add_pos(v);
      else if (r == 1) cube.add_neg(v);
    }
    f.add(std::move(cube));
  }
  return f;
}

void expect_same_cubes(const Cover& got, const Cover& want) {
  EXPECT_EQ(got.nvars(), want.nvars());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got.cubes()[i], want.cubes()[i]) << "cube " << i;
}

// 0-, 1-, 2- and 3-word masks.
class KernelOracle : public ::testing::TestWithParam<int> {};

TEST_P(KernelOracle, ContainmentAndMergeMatchTheQuadraticReference) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 7919 + 13);
  for (int iter = 0; iter < 60; ++iter) {
    const Cover f = clustered_cover(n, static_cast<int>(rng.below(48)), rng);
    expect_same_cubes(single_cube_containment(f), ref_single_cube_containment(f));
    expect_same_cubes(merge_distance_one(f), ref_merge_distance_one(f));
  }
}

TEST_P(KernelOracle, EdgeCoversMatchTheQuadraticReference) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) + 1);
  const Cover random = clustered_cover(n, 12, rng);
  std::vector<Cover> cases;
  cases.emplace_back(n); // empty
  cases.push_back(Cover::constant(n, true));
  Cover with_universal = random;
  with_universal.add(Cube(n));
  cases.push_back(with_universal);
  Cover dups = random;
  for (const Cube& c : random.cubes()) dups.add(c);
  cases.push_back(dups);
  if (!random.empty()) {
    Cover same(n);
    for (int i = 0; i < 5; ++i) same.add(random.cubes()[0]);
    cases.push_back(same);
  }
  for (const Cover& f : cases) {
    expect_same_cubes(single_cube_containment(f), ref_single_cube_containment(f));
    expect_same_cubes(merge_distance_one(f), ref_merge_distance_one(f));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, KernelOracle,
                         ::testing::Values(0, 1, 64, 65, 128, 130));

TEST(Minimize, MergeOfAllMintermsMatchesTheReference) {
  // Minterm covers are what the benchmark generators merge: long chains of
  // merges, each followed by containment against the merged cube.
  for (const int n : {3, 5, 7}) {
    Rng rng(static_cast<uint64_t>(n));
    const TruthTable tt = TruthTable::from_function(
        n, [&](uint64_t) { return rng.below(3) != 0; });
    const Cover f = Cover::from_truth_table(tt);
    expect_same_cubes(merge_distance_one(f), ref_merge_distance_one(f));
  }
}

class MinimizeRandom : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeRandom, EspressoLitePreservesFunctionAndNeverGrows) {
  const int n = GetParam();
  Rng rng(static_cast<uint64_t>(n) * 555 + 5);
  for (int iter = 0; iter < 25; ++iter) {
    const Cover f = random_cover(n, 2 + static_cast<int>(rng.below(10)), rng);
    const Cover g = espresso_lite(f);
    EXPECT_EQ(g.to_truth_table(), f.to_truth_table());
    EXPECT_LE(g.literal_count(), f.literal_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MinimizeRandom, ::testing::Values(2, 3, 4, 5, 6, 7));

} // namespace
} // namespace rmsyn
