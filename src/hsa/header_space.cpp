#include "hsa/header_space.hpp"

#include <limits>
#include <optional>
#include <sstream>

#include "util/fnv.hpp"

namespace rvaas::hsa {

namespace {

/// Recursive emptiness of base \ (diffs[idx..]). Splits on the first
/// overlapping diff. Prunings that keep the recursion from exploding on the
/// long diff lists rule shadowing produces: a diff that contains the whole
/// base settles the question without splitting, disjoint diffs are skipped
/// without copying pieces, and the containment prepass itself is skipped
/// when the suffix OR-mask already rules it out (base ⊆ d for any single d
/// implies base ⊆ OR of the suffix — checking the mask is one word scan
/// instead of O(diffs)).
bool covered(const Wildcard& base, const std::vector<Wildcard>& diffs,
             std::size_t idx, const std::vector<Wildcard::WordMask>& suffix) {
  if (base.is_empty()) return true;
  if (base.subset_of_mask(suffix[idx])) {
    for (std::size_t j = idx; j < diffs.size(); ++j) {
      if (base.subset_of(diffs[j])) return true;
    }
  }
  while (idx < diffs.size() && !base.intersects(diffs[idx])) ++idx;
  if (idx == diffs.size()) return false;
  // base \ diffs = ⋃ pieces(base \ diffs[idx]) \ diffs[idx+1..]
  for (const Wildcard& piece : cube_subtract(base, diffs[idx])) {
    if (!covered(piece, diffs, idx + 1, suffix)) return false;
  }
  return true;
}

/// suffix[i] = OR-mask of diffs[i..] (suffix[size] = all-zero), the cheap
/// per-cube summary covered() uses to short-circuit its subset prepass.
std::vector<Wildcard::WordMask> suffix_masks(
    const std::vector<Wildcard>& diffs) {
  std::vector<Wildcard::WordMask> suffix(diffs.size() + 1);
  suffix.back() = {};
  for (std::size_t i = diffs.size(); i-- > 0;) {
    suffix[i] = suffix[i + 1];
    diffs[i].or_into(suffix[i]);
  }
  return suffix;
}

/// One eager subtraction level: appends canonical(⋃_c (c \ d)) into `next`.
/// Returns false (leaving `next` unspecified) once it outgrows `max_cubes`.
bool eager_subtract_level(const std::vector<Wildcard>& plain,
                          const Wildcard& d, std::size_t max_cubes,
                          std::vector<Wildcard>& next) {
  for (const Wildcard& c : plain) {
    if (!c.intersects(d)) {
      insert_canonical(next, c);
    } else if (!c.subset_of(d)) {
      for (Wildcard& piece : cube_subtract(c, d)) {
        insert_canonical(next, std::move(piece));
      }
    }
    if (next.size() > max_cubes) return false;
  }
  return true;
}

/// Materializes base \ diffs as a canonical plain cube list, or nullopt once
/// any intermediate level exceeds `max_cubes` cubes.
///
/// The diffs are applied one level at a time with canonical merging after
/// each, NOT by recursing over cube_subtract pieces: the recursion
/// enumerates a product of overlapping pieces (branching ~ the diffs'
/// constrained-bit count per level, exponential in the diff count), while
/// level-wise merging keeps each intermediate collapsed before the next
/// diff multiplies it.
std::optional<std::vector<Wildcard>> try_materialize(
    const Wildcard& base, const std::vector<Wildcard>& diffs,
    std::size_t max_cubes) {
  std::vector<Wildcard> plain;
  if (base.is_empty()) return plain;
  plain.push_back(base);
  for (const Wildcard& d : diffs) {
    std::vector<Wildcard> next;
    if (!eager_subtract_level(plain, d, max_cubes, next)) return std::nullopt;
    plain = std::move(next);
    if (plain.empty()) break;
  }
  return plain;
}

}  // namespace

bool Cube::is_empty() const {
  if (empty_memo_ >= 0) return empty_memo_ == 1;
  bool empty;
  if (diffs.empty()) {
    empty = base.is_empty();
  } else {
    empty = covered(base, diffs, 0, suffix_masks(diffs));
  }
  empty_memo_ = empty ? 1 : 0;
  return empty;
}

HeaderSpace::HeaderSpace(Wildcard cube) {
  if (!cube.is_empty()) cubes_.push_back(Cube{std::move(cube), {}});
}

bool HeaderSpace::is_empty() const {
  for (const Cube& c : cubes_) {
    if (!c.is_empty()) return false;
  }
  return true;
}

HeaderSpace HeaderSpace::intersect(const Wildcard& w) const {
  HeaderSpace out;
  for (const Cube& c : cubes_) {
    Wildcard base = c.base.intersect(w);
    if (base.is_empty()) continue;
    Cube nc{std::move(base), {}};
    for (const Wildcard& d : c.diffs) {
      // Keep only diffs that still overlap the narrowed base, clipped to it.
      Wildcard clipped = nc.base.intersect(d);
      if (!clipped.is_empty()) nc.diffs.push_back(std::move(clipped));
    }
    out.cubes_.push_back(std::move(nc));
  }
  return out;
}

HeaderSpace HeaderSpace::intersect(const HeaderSpace& other) const {
  HeaderSpace out;
  for (const Cube& a : cubes_) {
    for (const Cube& b : other.cubes_) {
      Wildcard base = a.base.intersect(b.base);
      if (base.is_empty()) continue;
      Cube nc{std::move(base), {}};
      for (const Wildcard& d : a.diffs) {
        Wildcard clipped = nc.base.intersect(d);
        if (!clipped.is_empty()) nc.diffs.push_back(std::move(clipped));
      }
      for (const Wildcard& d : b.diffs) {
        Wildcard clipped = nc.base.intersect(d);
        if (!clipped.is_empty()) nc.diffs.push_back(std::move(clipped));
      }
      out.cubes_.push_back(std::move(nc));
    }
  }
  return out;
}

HeaderSpace HeaderSpace::subtract(const Wildcard& w) const {
  HeaderSpace out;
  out.cubes_.reserve(cubes_.size());
  for (const Cube& c : cubes_) {
    // A full-shadow subtraction removes the cube outright — growing its
    // diff list would only make later emptiness proofs re-derive this.
    if (c.base.subset_of(w)) continue;
    Wildcard clipped = c.base.intersect(w);
    if (clipped.is_empty()) {  // disjoint: the cube is untouched
      out.cubes_.push_back(c);
      continue;
    }
    Cube nc = c;
    nc.diffs.push_back(std::move(clipped));
    nc.note_diff_appended();
    if (nc.diffs.size() > kMaxLazyDiffs && !nc.materialize_failed_) {
      // Bounded laziness: flatten base \ diffs into canonical plain cubes
      // instead of letting covered() re-prove an ever-deeper recursion on
      // every is_empty() from here on. When the flattened form itself would
      // blow up (the diffs shatter the base into more than
      // kMaxMaterializeCubes pieces), the lazy form IS the compact one —
      // keep it and let the memoized emptiness carry the longer list.
      if (auto plains =
              try_materialize(nc.base, nc.diffs, kMaxMaterializeCubes)) {
        for (Wildcard& p : *plains) {
          out.cubes_.push_back(Cube{std::move(p), {}});
        }
        continue;
      }
      // Sticky: try_materialize applies diffs in order and this list only
      // grows by appending, so every later retry would replay the failed
      // prefix and fail at the same level.
      nc.materialize_failed_ = true;
    }
    out.cubes_.push_back(std::move(nc));
  }
  return out;
}

HeaderSpace HeaderSpace::union_with(const HeaderSpace& other) const {
  HeaderSpace out = *this;
  out.cubes_.insert(out.cubes_.end(), other.cubes_.begin(),
                    other.cubes_.end());
  return out;
}

bool HeaderSpace::contains(const sdn::HeaderFields& h) const {
  for (const Cube& c : cubes_) {
    if (!c.base.contains(h)) continue;
    bool excluded = false;
    for (const Wildcard& d : c.diffs) {
      if (d.contains(h)) {
        excluded = true;
        break;
      }
    }
    if (!excluded) return true;
  }
  return false;
}

HeaderSpace HeaderSpace::rewrite(const Rewrite& rw) const {
  if (rw.identity()) return *this;
  // Lazy-exactness test, per cube. Write R for the rewritten bit positions
  // and N for the rest; rw forces R to constants and z ∈ rw(base) is
  // excluded from rw(base \ ⋃d) iff d covers base's whole R-range at z's
  // N-bits. When every diff satisfies base|R ⊆ d|R, that coverage is
  // per-diff all-or-nothing, and rw(base \ ⋃d) = rw(base) \ ⋃ rw(d)
  // EXACTLY — the cube is rewritten in place without flattening. A diff
  // that genuinely cuts R (base|R ⊄ d|R) breaks the identity, so such
  // cubes are materialized and rewritten plain-cube-wise.
  const Wildcard::WordMask rw_bits = rw.bit_mask();
  HeaderSpace out;
  std::vector<Wildcard> image;
  for (const Cube& c : cubes_) {
    if (c.is_empty()) continue;
    if (c.diffs.empty()) {  // plain cube: image is plain, merge it below
      insert_canonical(image, rw.apply(c.base));
      continue;
    }
    bool lazy_exact = true;
    for (const Wildcard& d : c.diffs) {
      if (!c.base.subset_within(d, rw_bits)) {
        lazy_exact = false;
        break;
      }
    }
    if (lazy_exact) {
      Cube nc{rw.apply(c.base), {}};
      nc.diffs.reserve(c.diffs.size());
      for (const Wildcard& d : c.diffs) nc.diffs.push_back(rw.apply(d));
      nc.empty_memo_ = 0;  // exactness: non-empty preimage → non-empty image
      out.cubes_.push_back(std::move(nc));
      continue;
    }
    // Overwriting bits can map previously-distinct cubes onto overlapping
    // or duplicate images; canonical insertion collapses them so
    // rewrite-heavy transfer chains don't multiply cube counts downstream.
    auto plains = try_materialize(c.base, c.diffs,
                                  std::numeric_limits<std::size_t>::max());
    for (const Wildcard& plain : *plains) {
      Wildcard img = rw.apply(plain);
      if (!img.is_empty()) insert_canonical(image, std::move(img));
    }
  }
  out.cubes_.reserve(out.cubes_.size() + image.size());
  for (Wildcard& img : image) {
    out.cubes_.push_back(Cube{std::move(img), {}});
  }
  return out;
}

std::vector<Wildcard> HeaderSpace::resolve() const {
  std::vector<Wildcard> out;
  for (const Cube& c : cubes_) {
    if (c.is_empty()) continue;  // memoized skip
    // No budget here: resolve() must produce plain cubes. Level-wise eager
    // subtraction with canonical merging keeps the expansion tame even for
    // diff lists that subtract() declined to materialize.
    auto plains = try_materialize(
        c.base, c.diffs, std::numeric_limits<std::size_t>::max());
    for (Wildcard& w : *plains) insert_canonical(out, std::move(w));
  }
  return out;
}

std::vector<Wildcard> HeaderSpace::resolve_within(std::size_t max_cubes) const {
  std::vector<Wildcard> out;
  for (const Cube& c : cubes_) {
    if (c.is_empty()) continue;
    if (auto plains = try_materialize(c.base, c.diffs, max_cubes)) {
      for (Wildcard& w : *plains) insert_canonical(out, std::move(w));
    }
  }
  return out;
}

std::optional<sdn::HeaderFields> HeaderSpace::sample(util::Rng& rng) const {
  const std::vector<Wildcard> plain = resolve();
  if (plain.empty()) return std::nullopt;
  return rng.pick(plain).sample(rng);
}

void HeaderSpace::compact() {
  // Plain cubes merge canonically; diff-carrying cubes survive unless a
  // plain sibling subsumes their whole base (their own diffs only shrink
  // them further). Equal-structure inputs canonicalize identically, so
  // compact() is safe on cache-key material.
  std::vector<Wildcard> plain;
  std::vector<Cube> diffy;
  for (Cube& c : cubes_) {
    if (c.is_empty()) continue;
    if (c.diffs.empty()) {
      insert_canonical(plain, std::move(c.base));
    } else {
      diffy.push_back(std::move(c));
    }
  }
  cubes_.clear();
  cubes_.reserve(plain.size() + diffy.size());
  for (Wildcard& p : plain) cubes_.push_back(Cube{std::move(p), {}});
  for (Cube& c : diffy) {
    bool subsumed = false;
    for (std::size_t j = 0; j < plain.size() && !subsumed; ++j) {
      subsumed = c.base.subset_of(cubes_[j].base);
    }
    if (!subsumed) cubes_.push_back(std::move(c));
  }
}

std::uint64_t HeaderSpace::fingerprint() const {
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const Cube& c : cubes_) {
    // Cube delimiter: ({a}, {b}) must not collide with ({a, b}).
    h = util::fnv1a_mix(h, 0x9e3779b97f4a7c15ull);
    h = util::fnv1a_mix(h, c.base.hash_value());
    for (const Wildcard& d : c.diffs) h = util::fnv1a_mix(h, d.hash_value());
  }
  return h;
}

std::size_t HeaderSpace::diff_count() const {
  std::size_t n = 0;
  for (const Cube& c : cubes_) n += c.diffs.size();
  return n;
}

std::string HeaderSpace::to_string() const {
  if (cubes_.empty()) return "(empty)";
  std::ostringstream os;
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (i > 0) os << " ∪ ";
    os << "(" << cubes_[i].base.to_string();
    for (const Wildcard& d : cubes_[i].diffs) {
      os << " \\ " << d.to_string();
    }
    os << ")";
  }
  return os.str();
}

}  // namespace rvaas::hsa
