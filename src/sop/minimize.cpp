#include "sop/minimize.hpp"

#include <algorithm>

namespace rmsyn {

namespace {

// The mask words of a cube list, copied into one flat array so the pair
// scans below read memory in order and allocate nothing per pair. Cube i's
// positive words are at [2wi, 2wi + w), its negative words right after.
class CubeWords {
public:
  explicit CubeWords(const std::vector<Cube>& cs)
      : w_(cs.empty() ? 0 : cs[0].pos_mask().words()) {
    words_.reserve(cs.size() * 2 * w_);
    for (const Cube& c : cs) {
      words_.insert(words_.end(), c.pos_mask().data(), c.pos_mask().data() + w_);
      words_.insert(words_.end(), c.neg_mask().data(), c.neg_mask().data() + w_);
    }
  }

  /// True when cube a covers cube b (every literal of a is in b).
  bool covers(std::size_t a, std::size_t b) const {
    const uint64_t* x = at(a);
    const uint64_t* y = at(b);
    for (std::size_t k = 0; k < 2 * w_; ++k)
      if ((x[k] & ~y[k]) != 0) return false;
    return true;
  }

  /// The variable in which cubes a and b hold opposite literals when that is
  /// their only difference (they merge into one cube without it), else -1.
  /// With x = pa^pb and y = na^nb the pair merges iff x == y and x is a
  /// single bit.
  int merge_var(std::size_t a, std::size_t b) const {
    const uint64_t* x = at(a);
    const uint64_t* y = at(b);
    int var = -1;
    for (std::size_t k = 0; k < w_; ++k) {
      const uint64_t dp = x[k] ^ y[k];
      if (dp != (x[w_ + k] ^ y[w_ + k])) return -1;
      if (dp == 0) continue;
      if (var >= 0 || (dp & (dp - 1)) != 0) return -1;
      var = static_cast<int>(64 * k) + __builtin_ctzll(dp);
    }
    return var;
  }

  void drop_var(std::size_t i, int v) {
    const uint64_t keep = ~(uint64_t{1} << (v & 63));
    uint64_t* x = at(i);
    x[static_cast<std::size_t>(v) >> 6] &= keep;
    x[w_ + (static_cast<std::size_t>(v) >> 6)] &= keep;
  }

  void erase(std::size_t i) {
    words_.erase(words_.begin() + static_cast<std::ptrdiff_t>(2 * w_ * i),
                 words_.begin() + static_cast<std::ptrdiff_t>(2 * w_ * (i + 1)));
  }

  /// Moves cube j's words to slot i (i <= j), for stable compaction.
  void move(std::size_t j, std::size_t i) {
    std::copy_n(at(j), 2 * w_, at(i));
  }

  void truncate(std::size_t n) { words_.resize(2 * w_ * n); }

private:
  const uint64_t* at(std::size_t i) const { return words_.data() + 2 * w_ * i; }
  uint64_t* at(std::size_t i) { return words_.data() + 2 * w_ * i; }

  std::size_t w_;
  std::vector<uint64_t> words_;
};

} // namespace

Cover single_cube_containment(Cover f) {
  // A cube is dropped iff another cube strictly covers it or an identical
  // cube has a lower index. Every such cube has fewer literals, or as many
  // and a lower index, so it precedes the dropped cube in a stable sort by
  // literal count; containment is transitive, so testing only the cubes
  // kept so far (the survivors) decides each cube exactly.
  auto& cs = f.cubes();
  if (cs.size() < 2) return f;
  std::vector<std::size_t> order(cs.size());
  std::vector<int> lits(cs.size());
  for (std::size_t i = 0; i < cs.size(); ++i) {
    order[i] = i;
    lits[i] = cs[i].literal_count();
  }
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lits[a] < lits[b];
  });
  const CubeWords words(cs);
  std::vector<std::size_t> survivors;
  std::vector<bool> keep(cs.size(), false);
  for (const std::size_t j : order) {
    const bool covered = std::any_of(survivors.begin(), survivors.end(),
                                     [&](std::size_t s) { return words.covers(s, j); });
    if (covered) continue;
    survivors.push_back(j);
    keep[j] = true;
  }
  // Survivors keep their original relative order.
  std::size_t out = 0;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    if (!keep[i]) continue;
    if (out != i) cs[out] = std::move(cs[i]);
    ++out;
  }
  cs.resize(out);
  return f;
}

Cover merge_distance_one(const Cover& f) {
  // Merges the first pair (i, j), i < j, in lexicographic order, then
  // repeats on the result, as a restart from (0, 1) after every merge would.
  // The cover is containment-free throughout, so a merge of (i, j) into
  // cube m leaves every other pair as it was and only drops the cubes m
  // covers. The first merging pair after it is therefore (k, m) for the
  // least k before m that merges with m, or else lies at or after (m, m+1).
  Cover cur = single_cube_containment(f);
  auto& cs = cur.cubes();
  CubeWords words(cs);
  // Merges cube j into cube i (i < j), drops the cubes the result covers and
  // returns the result's new index.
  const auto merge = [&](std::size_t i, std::size_t j, int v) {
    cs[i].drop_var(v);
    words.drop_var(i, v);
    cs.erase(cs.begin() + static_cast<std::ptrdiff_t>(j));
    words.erase(j);
    std::size_t out = 0, at = i; // `at`: the merged cube's current slot
    for (std::size_t k = 0; k < cs.size(); ++k) {
      if (k == i) at = out;
      else if (words.covers(at, k)) continue;
      if (out != k) {
        cs[out] = std::move(cs[k]);
        words.move(k, out);
      }
      ++out;
    }
    cs.resize(out);
    words.truncate(out);
    return at;
  };
  std::size_t i = 0;
  while (i < cs.size()) {
    std::size_t j = i + 1;
    int v = -1;
    for (; j < cs.size(); ++j)
      if ((v = words.merge_var(i, j)) >= 0) break;
    if (j == cs.size()) {
      ++i;
      continue;
    }
    std::size_t m = merge(i, j, v);
    for (std::size_t k = 0; k < m;) {
      if ((v = words.merge_var(k, m)) >= 0) {
        m = merge(k, m, v);
        k = 0;
      } else {
        ++k;
      }
    }
    i = m;
  }
  return cur;
}

Cover irredundant(const Cover& f) {
  Cover cur = single_cube_containment(f);
  // Greedy: try removing cubes largest-first; a cube is redundant when the
  // remaining cover still covers it.
  auto order = std::vector<std::size_t>(cur.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cur.cubes()[a].literal_count() > cur.cubes()[b].literal_count();
  });
  std::vector<bool> dead(cur.size(), false);
  for (const std::size_t i : order) {
    Cover rest(cur.nvars());
    for (std::size_t j = 0; j < cur.size(); ++j)
      if (j != i && !dead[j]) rest.add(cur.cubes()[j]);
    // Bounded effort: an undecided check keeps the cube (safe).
    if (rest.cofactor(cur.cubes()[i]).is_tautology_bounded(20000))
      dead[i] = true;
  }
  Cover r(cur.nvars());
  for (std::size_t j = 0; j < cur.size(); ++j)
    if (!dead[j]) r.add(cur.cubes()[j]);
  return r;
}

Cover expand(const Cover& f, const Cover* offset) {
  Cover off_local;
  if (offset == nullptr) {
    off_local = f.complement();
    offset = &off_local;
  }
  Cover r(f.nvars());
  for (Cube c : f.cubes()) {
    // Try dropping literals one at a time; the expansion is valid when the
    // expanded cube stays disjoint from the OFF-set.
    for (int v = 0; v < f.nvars(); ++v) {
      if (!c.has_var(v)) continue;
      Cube wider = c;
      wider.drop_var(v);
      bool hits_off = false;
      for (const auto& oc : offset->cubes()) {
        if (!wider.clashes(oc)) { hits_off = true; break; }
      }
      if (!hits_off) c = wider;
    }
    r.add(std::move(c));
  }
  return single_cube_containment(r);
}

Cover espresso_lite(const Cover& f) {
  Cover cur = merge_distance_one(single_cube_containment(f));
  // Guard against complement blow-up: expansion is an optimization, not
  // needed for correctness, so an undecided complement simply skips it.
  if (cur.size() <= 2048) {
    if (const auto off = cur.complement_bounded(200'000);
        off && off->size() <= 16384) {
      cur = expand(cur, &*off);
      // Expansion opens new merge opportunities.
      cur = merge_distance_one(cur);
    }
  }
  return irredundant(cur);
}

} // namespace rmsyn
