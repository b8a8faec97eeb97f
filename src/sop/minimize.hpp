// Light-weight two-level minimization ("espresso-lite"): single-cube
// containment, distance-1 merging, cube expansion against the complement and
// irredundant-cover extraction. The SIS-style baseline calls this on node
// covers exactly as SIS's `simplify` calls espresso on node functions.
#pragma once

#include "sop/cover.hpp"

namespace rmsyn {

/// Removes cubes covered by a single other cube (SCC): a cube is dropped iff
/// another cube strictly covers it or an identical cube comes earlier. The
/// kept cubes stay in their input order.
Cover single_cube_containment(Cover f);

/// Merges pairs of cubes at distance 1 that differ in exactly one literal
/// and agree elsewhere (e.g. a·b + a·b̄ = a). Iterates to fixpoint, always
/// merging the first such pair in index order.
Cover merge_distance_one(const Cover& f);

/// Removes cubes that are covered by the rest of the cover (exact
/// irredundant via tautology checks). Order-dependent greedy, as in SIS.
Cover irredundant(const Cover& f);

/// Expands each cube against the complement of the cover (drops literals
/// while the cube stays inside the ON-set). `offset` may be precomputed;
/// when null it is derived internally.
Cover expand(const Cover& f, const Cover* offset = nullptr);

/// The composite pass the baseline uses: SCC → merge → expand → irredundant.
Cover espresso_lite(const Cover& f);

} // namespace rmsyn
