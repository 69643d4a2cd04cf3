#pragma once
// A HeaderSpace is a union of cubes, each with a lazy difference list:
//   HS = ⋃_k ( base_k \ ⋃_j diff_{k,j} )
// Differences accumulate cheaply during rule shadowing and are resolved only
// for emptiness checks, sampling and counting (standard HSA technique).
//
// The representation is kept CANONICAL enough to survive adversarial rule
// mixes (the PR 5 fuzzer's cube-blowup wall — see docs/ARCHITECTURE.md,
// "The HeaderSpace representation"):
//   - diffs are clipped to their cube's base, and a cube fully shadowed by
//     a subtraction is dropped instead of carrying a dead diff;
//   - a diff list is LAZY only up to kMaxLazyDiffs entries; past that the
//     cube is materialized into plain (diff-free) cubes, so emptiness never
//     re-proves an ever-deeper recursion;
//   - that flatten bails out past kMaxMaterializeCubes, and the bail-out is
//     sticky: the flatten applies diffs in order and subtract() only appends,
//     so a retry on a longer list would replay the failed prefix and fail at
//     the same level — the cube is marked and never retried;
//   - plain cubes produced by subtract/rewrite/compact are merged through
//     insert_canonical (subset absorption both ways + one-position merge);
//   - per-cube emptiness is memoized (diff lists only grow via subtract,
//     and a cube that went empty stays empty).
// Canonicalization is a deterministic function of the operation sequence,
// so structural operator==/fingerprint() below remain valid cache keys:
// identical queries still collide (ReachCache / CompiledModelCache).

#include <vector>

#include "hsa/wildcard.hpp"

namespace rvaas::hsa {

struct Cube {
  Wildcard base;
  std::vector<Wildcard> diffs;

  /// Memoized: O(1) after the first call until note_diff_appended().
  bool is_empty() const;

  /// Structural (not semantic) equality: same base, same diff list. The
  /// emptiness memo and the materialization mark are excluded — they are
  /// derived state.
  bool operator==(const Cube& other) const {
    return base == other.base && diffs == other.diffs;
  }

  /// Keeps the emptiness memo sound after a diff was pushed onto `diffs`:
  /// an empty cube stays empty under further subtraction; a non-empty one
  /// must be re-proven.
  void note_diff_appended() {
    if (empty_memo_ == 0) empty_memo_ = -1;
  }

  // -1 unknown, 0 non-empty, 1 empty. Mutable: is_empty() is semantically
  // const. Default-initialized so aggregate construction stays valid.
  mutable std::int8_t empty_memo_ = -1;

  // Set by subtract() once this diff list failed to materialize within
  // kMaxMaterializeCubes. Derived state like empty_memo_: copies keep it;
  // intersect() and rewrite() build new diff lists and start without it.
  bool materialize_failed_ = false;
};

class HeaderSpace {
 public:
  /// Laziness bound: subtract() materializes a cube into plain cubes once
  /// its diff list would exceed this many entries. Small enough that
  /// covered()'s split recursion stays shallow, large enough that the
  /// common shadowing chains never materialize at all.
  static constexpr std::size_t kMaxLazyDiffs = 12;

  /// Materialization bail-out: if flattening base \ diffs would exceed this
  /// many plain cubes at any intermediate level, subtract() keeps the lazy
  /// form instead (for adversarial diff mixes the lazy form IS the compact
  /// representation; memoized emptiness keeps the longer list affordable).
  static constexpr std::size_t kMaxMaterializeCubes = 96;

  /// Empty space.
  HeaderSpace() = default;

  static HeaderSpace all() { return HeaderSpace(Wildcard::all()); }
  explicit HeaderSpace(Wildcard cube);

  bool is_empty() const;

  HeaderSpace intersect(const Wildcard& w) const;
  HeaderSpace intersect(const HeaderSpace& other) const;

  /// Removes a cube from this space. Cubes fully inside `w` are dropped,
  /// disjoint cubes pass through untouched, overlapping cubes get `w`
  /// clipped to their base appended as a lazy diff — unless the diff list
  /// would pass kMaxLazyDiffs, in which case the cube is materialized into
  /// canonical plain cubes instead.
  HeaderSpace subtract(const Wildcard& w) const;

  /// Union (cube lists concatenate; no canonicalization).
  HeaderSpace union_with(const HeaderSpace& other) const;

  bool contains(const sdn::HeaderFields& h) const;

  /// Rewrites the space under a field overwrite. Cubes whose every diff
  /// contains the base's rewritten-bit range stay LAZY — base and diffs are
  /// rewritten in place, which is exact (see the derivation in the .cpp)
  /// and avoids flattening through the transfer chain. Only cubes with a
  /// diff that genuinely cuts the rewritten bits are materialized; their
  /// images are compacted through insert_canonical.
  HeaderSpace rewrite(const Rewrite& rw) const;

  /// Flattens to plain diff-free cubes, merged canonically (the cubes may
  /// still overlap pairwise where no single-cube union exists).
  std::vector<Wildcard> resolve() const;

  /// Budgeted flatten for dominance bookkeeping: like resolve(), but a cube
  /// whose materialization would exceed `max_cubes` intermediate cubes is
  /// SKIPPED, making the result an under-approximation of the space. Sound
  /// wherever missing cubes only cost repeated work (BFS visited sets), not
  /// correctness.
  std::vector<Wildcard> resolve_within(std::size_t max_cubes) const;

  /// A concrete header from the space, if non-empty.
  std::optional<sdn::HeaderFields> sample(util::Rng& rng) const;

  /// Canonicalizes the cube list: drops empty cubes, merges plain cubes
  /// through insert_canonical, and drops diff-carrying cubes whose base is
  /// subsumed by a plain sibling. Plain cubes come first in the result.
  void compact();

  /// Structural equality of the cube lists. Two spaces built by the same
  /// deterministic computation compare equal; semantically equal spaces with
  /// different cube structure do not (sufficient for cache keys, which only
  /// need "same query" to collide).
  bool operator==(const HeaderSpace&) const = default;

  /// Order-sensitive structural hash of the cube list, the cheap half of a
  /// cache key (ReachCache re-checks operator== on fingerprint matches).
  std::uint64_t fingerprint() const;

  const std::vector<Cube>& cubes() const { return cubes_; }
  std::size_t cube_count() const { return cubes_.size(); }
  std::size_t diff_count() const;

  std::string to_string() const;

 private:
  std::vector<Cube> cubes_;
};

}  // namespace rvaas::hsa
