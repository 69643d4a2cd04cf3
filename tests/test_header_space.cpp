// HeaderSpace (union-of-cubes-with-diffs) algebra, including the lazy
// difference resolution and membership property sweeps.

#include <gtest/gtest.h>

#include "hsa/header_space.hpp"
#include "testing/reference_hsa.hpp"

namespace rvaas::hsa {
namespace {

using sdn::Field;
using sdn::HeaderFields;

Wildcard vlan_cube(std::uint64_t v) {
  Wildcard w;
  w.set_field(Field::Vlan, v);
  return w;
}

Wildcard proto_cube(std::uint64_t p) {
  Wildcard w;
  w.set_field(Field::IpProto, p);
  return w;
}

HeaderFields header(std::uint64_t vlan, std::uint64_t proto) {
  HeaderFields h;
  h.vlan = vlan;
  h.ip_proto = proto;
  return h;
}

TEST(HeaderSpace, DefaultIsEmpty) {
  const HeaderSpace hs;
  EXPECT_TRUE(hs.is_empty());
  EXPECT_EQ(hs.cube_count(), 0u);
  EXPECT_EQ(hs.to_string(), "(empty)");
  util::Rng rng(0);
  EXPECT_FALSE(hs.sample(rng).has_value());
}

TEST(HeaderSpace, AllContainsEverything) {
  const HeaderSpace hs = HeaderSpace::all();
  EXPECT_FALSE(hs.is_empty());
  EXPECT_TRUE(hs.contains(header(5, 6)));
  EXPECT_TRUE(hs.contains(HeaderFields{}));
}

TEST(HeaderSpace, IntersectNarrows) {
  const HeaderSpace hs = HeaderSpace::all().intersect(vlan_cube(5));
  EXPECT_TRUE(hs.contains(header(5, 6)));
  EXPECT_FALSE(hs.contains(header(4, 6)));
}

TEST(HeaderSpace, DisjointIntersectIsEmpty) {
  const HeaderSpace hs =
      HeaderSpace(vlan_cube(1)).intersect(vlan_cube(2));
  EXPECT_TRUE(hs.is_empty());
}

TEST(HeaderSpace, SubtractExcludesCube) {
  const HeaderSpace hs = HeaderSpace::all().subtract(vlan_cube(5));
  EXPECT_FALSE(hs.contains(header(5, 6)));
  EXPECT_TRUE(hs.contains(header(4, 6)));
  EXPECT_FALSE(hs.is_empty());
}

TEST(HeaderSpace, SubtractEverythingIsEmpty) {
  HeaderSpace hs = HeaderSpace(vlan_cube(5));
  hs = hs.subtract(vlan_cube(5));
  EXPECT_TRUE(hs.is_empty());
  // Also when covered by the union of two halves:
  HeaderSpace hs2 = HeaderSpace(vlan_cube(4));  // vlan = 0b...100
  hs2 = hs2.subtract(proto_cube(6));
  hs2 = hs2.subtract(HeaderSpace::all().subtract(proto_cube(6)).cubes()[0].base);
  // Subtracting all() base minus nothing — the second subtract removed the
  // full space, so:
  EXPECT_TRUE(hs2.is_empty());
}

TEST(HeaderSpace, UnionCombines) {
  const HeaderSpace hs =
      HeaderSpace(vlan_cube(1)).union_with(HeaderSpace(vlan_cube(2)));
  EXPECT_TRUE(hs.contains(header(1, 0)));
  EXPECT_TRUE(hs.contains(header(2, 0)));
  EXPECT_FALSE(hs.contains(header(3, 0)));
  EXPECT_EQ(hs.cube_count(), 2u);
}

TEST(HeaderSpace, DiffThenIntersectKeepsExclusion) {
  // (all \ vlan5) ∩ proto6 must exclude (vlan5, proto6).
  const HeaderSpace hs =
      HeaderSpace::all().subtract(vlan_cube(5)).intersect(proto_cube(6));
  EXPECT_FALSE(hs.contains(header(5, 6)));
  EXPECT_TRUE(hs.contains(header(4, 6)));
  EXPECT_FALSE(hs.contains(header(4, 17)));
}

TEST(HeaderSpace, ResolveProducesEquivalentPlainCubes) {
  util::Rng rng(11);
  HeaderSpace hs = HeaderSpace::all()
                       .subtract(vlan_cube(5))
                       .subtract(proto_cube(17));
  const auto plain = hs.resolve();
  ASSERT_FALSE(plain.empty());
  for (int i = 0; i < 100; ++i) {
    HeaderFields h;
    h.vlan = rng.below(16);
    h.ip_proto = rng.below(32);
    bool in_plain = false;
    for (const Wildcard& c : plain) in_plain |= c.contains(h);
    EXPECT_EQ(in_plain, hs.contains(h)) << "vlan=" << h.vlan;
  }
}

TEST(HeaderSpace, SampleRespectsDiffs) {
  util::Rng rng(12);
  HeaderSpace hs = HeaderSpace(proto_cube(6)).subtract(vlan_cube(0));
  for (int i = 0; i < 50; ++i) {
    const auto h = hs.sample(rng);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->ip_proto, 6u);
    EXPECT_NE(h->vlan, 0u);
  }
}

TEST(HeaderSpace, RewriteProjectsSpace) {
  Rewrite rw;
  rw.set_field(Field::Vlan, 9);
  const HeaderSpace hs = HeaderSpace(proto_cube(6)).rewrite(rw);
  EXPECT_TRUE(hs.contains(header(9, 6)));
  EXPECT_FALSE(hs.contains(header(8, 6)));
}

TEST(HeaderSpace, RewriteDropsStaleDiffs) {
  // (all \ vlan5) rewritten to vlan := 5 becomes exactly vlan5 (the diff on
  // the overwritten field must not survive).
  Rewrite rw;
  rw.set_field(Field::Vlan, 5);
  const HeaderSpace hs = HeaderSpace::all().subtract(vlan_cube(5)).rewrite(rw);
  EXPECT_TRUE(hs.contains(header(5, 6)));
  EXPECT_FALSE(hs.is_empty());
}

TEST(HeaderSpace, RewritePreservesUntouchedDiffs) {
  // (all \ proto17) with vlan := 5: proto 17 stays excluded.
  Rewrite rw;
  rw.set_field(Field::Vlan, 5);
  const HeaderSpace hs =
      HeaderSpace::all().subtract(proto_cube(17)).rewrite(rw);
  EXPECT_FALSE(hs.contains(header(5, 17)));
  EXPECT_TRUE(hs.contains(header(5, 6)));
}

TEST(HeaderSpace, CompactDropsEmptyAndSubsumedCubes) {
  // A fully shadowed subtraction drops its cube at subtract() time, so the
  // third union member contributes no cube at all.
  HeaderSpace hs = HeaderSpace(vlan_cube(5))
                       .union_with(HeaderSpace::all())
                       .union_with(HeaderSpace(vlan_cube(1)).subtract(vlan_cube(1)));
  EXPECT_EQ(hs.cube_count(), 2u);
  hs.compact();
  // vlan5 ⊆ all.
  EXPECT_EQ(hs.cube_count(), 1u);
  EXPECT_TRUE(hs.contains(header(5, 0)));
}

TEST(HeaderSpace, SubtractDropsFullyShadowedCube) {
  const HeaderSpace hs = HeaderSpace(vlan_cube(1)).subtract(vlan_cube(1));
  EXPECT_EQ(hs.cube_count(), 0u);
  EXPECT_TRUE(hs.is_empty());
}

TEST(HeaderSpace, SubtractClipsDiffToBase) {
  // Subtracting proto6 from vlan1 must clip the stored diff to vlan1 ∩
  // proto6, not keep the full-width proto6 cube.
  const HeaderSpace hs = HeaderSpace(vlan_cube(1)).subtract(proto_cube(6));
  ASSERT_EQ(hs.cube_count(), 1u);
  ASSERT_EQ(hs.cubes()[0].diffs.size(), 1u);
  EXPECT_TRUE(hs.cubes()[0].diffs[0].subset_of(hs.cubes()[0].base));
}

TEST(HeaderSpace, RewriteCompactsOverlappingImages) {
  // vlan1 and vlan2 map onto the same image under vlan := 9; the rewrite
  // must emit one cube, not overlapping duplicates.
  Rewrite rw;
  rw.set_field(Field::Vlan, 9);
  HeaderSpace hs =
      HeaderSpace(vlan_cube(1)).union_with(HeaderSpace(vlan_cube(2)));
  hs = hs.rewrite(rw);
  EXPECT_EQ(hs.cube_count(), 1u);
  EXPECT_TRUE(hs.contains(header(9, 6)));
}

TEST(HeaderSpace, MaterializationPreservesSemantics) {
  // Drive one cube past kMaxLazyDiffs with narrow-field subtractions so the
  // flattening succeeds, then check membership survived the representation
  // change.
  HeaderSpace hs = HeaderSpace::all();
  for (std::uint64_t v = 0; v <= HeaderSpace::kMaxLazyDiffs + 2; ++v) {
    hs = hs.subtract(vlan_cube(v));
  }
  for (const Cube& c : hs.cubes()) {
    EXPECT_LE(c.diffs.size(), HeaderSpace::kMaxLazyDiffs);
  }
  for (std::uint64_t v = 0; v <= HeaderSpace::kMaxLazyDiffs + 2; ++v) {
    EXPECT_FALSE(hs.contains(header(v, 6)));
  }
  EXPECT_TRUE(hs.contains(header(HeaderSpace::kMaxLazyDiffs + 3, 6)));
}

TEST(HeaderSpace, FailedMaterializationStaysLazyAndExact) {
  // Exact 32-bit addresses shatter all() into far more than
  // kMaxMaterializeCubes plain cubes, so the flatten past kMaxLazyDiffs
  // bails out and the cube keeps growing lazily, one diff per subtraction.
  const auto ip_cube = [](std::uint64_t ip) {
    Wildcard w;
    w.set_field(Field::IpDst, ip);
    return w;
  };
  const auto ip_header = [](std::uint64_t ip) {
    HeaderFields h;
    h.ip_dst = ip;
    return h;
  };
  constexpr std::uint64_t kAddrs = 16;
  const auto addr = [](std::uint64_t i) { return 0x0a000001 + i * 0x10203; };

  HeaderSpace hs = HeaderSpace::all();
  for (std::uint64_t i = 0; i < kAddrs; ++i) {
    hs = hs.subtract(ip_cube(addr(i)));
    ASSERT_EQ(hs.cube_count(), 1u);
    EXPECT_EQ(hs.cubes()[0].diffs.size(), i + 1);
  }
  EXPECT_TRUE(hs.resolve_within(HeaderSpace::kMaxMaterializeCubes).empty());
  for (std::uint64_t i = 0; i < kAddrs; ++i) {
    EXPECT_FALSE(hs.contains(ip_header(addr(i))));
  }
  const std::uint64_t outside = addr(kAddrs);
  EXPECT_TRUE(hs.contains(ip_header(outside)));

  // intersect() builds a new diff list — here an empty one, since no diff
  // holds `outside` — so the bail-out does not carry over: the narrowed cube
  // materializes once its own list passes kMaxLazyDiffs.
  hs = hs.intersect(ip_cube(outside));
  for (std::uint64_t v = 0; v < HeaderSpace::kMaxLazyDiffs + 3; ++v) {
    hs = hs.subtract(vlan_cube(v));
  }
  for (const Cube& c : hs.cubes()) {
    EXPECT_LE(c.diffs.size(), HeaderSpace::kMaxLazyDiffs);
  }
  HeaderFields kept = ip_header(outside);
  kept.vlan = HeaderSpace::kMaxLazyDiffs + 3;
  EXPECT_TRUE(hs.contains(kept));
  kept.vlan = 0;
  EXPECT_FALSE(hs.contains(kept));
}

TEST(HeaderSpace, EmptinessMemoSurvivesCopiesAndAppends) {
  // Two half-space diffs (proto high bit 0 / 1) cover the base between
  // them; neither alone is a full shadow, so both take the append path and
  // the second must invalidate the memoized "non-empty" verdict.
  Wildcard low_half;
  low_half.set_field_masked(Field::IpProto, 0, 0x80);
  Wildcard high_half;
  high_half.set_field_masked(Field::IpProto, 0x80, 0x80);

  HeaderSpace hs = HeaderSpace(vlan_cube(1)).subtract(low_half);
  EXPECT_FALSE(hs.is_empty());  // memoizes non-empty
  hs = hs.subtract(high_half);
  EXPECT_TRUE(hs.is_empty());
}

TEST(HeaderSpace, FingerprintAndEqualityFollowStructure) {
  const HeaderSpace a = HeaderSpace::all().subtract(vlan_cube(5));
  const HeaderSpace b = HeaderSpace::all().subtract(vlan_cube(5));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  // Different structure -> different fingerprint (and !=), even when the
  // denoted sets differ only slightly or not at all.
  const HeaderSpace c = HeaderSpace::all().subtract(vlan_cube(4));
  EXPECT_NE(a, c);
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  EXPECT_NE(HeaderSpace::all(), HeaderSpace());
  EXPECT_NE(HeaderSpace::all().fingerprint(), HeaderSpace().fingerprint());

  // Cube boundaries matter: {base, diff} as one cube != two plain cubes.
  const HeaderSpace two =
      HeaderSpace(vlan_cube(1)).union_with(HeaderSpace(vlan_cube(2)));
  const HeaderSpace one(vlan_cube(1));
  EXPECT_NE(two.fingerprint(), one.fingerprint());
}

TEST(HeaderSpace, CompactSkipsScanWithoutDiffFreeSubsumers) {
  // Every cube carries diffs: nothing can subsume, everything survives.
  HeaderSpace hs = HeaderSpace(vlan_cube(1)).subtract(proto_cube(1));
  hs = hs.union_with(HeaderSpace(vlan_cube(2)).subtract(proto_cube(2)));
  hs.compact();
  EXPECT_EQ(hs.cube_count(), 2u);

  // A diff-free superset still swallows a diff-carrying subset.
  HeaderSpace mixed = HeaderSpace(vlan_cube(1)).subtract(proto_cube(1));
  mixed = mixed.union_with(HeaderSpace(vlan_cube(1)));
  mixed.compact();
  EXPECT_EQ(mixed.cube_count(), 1u);
  EXPECT_TRUE(mixed.cubes()[0].diffs.empty());
}

TEST(HeaderSpace, DiffCountTracksLaziness) {
  HeaderSpace hs = HeaderSpace::all().subtract(vlan_cube(1)).subtract(vlan_cube(2));
  EXPECT_EQ(hs.diff_count(), 2u);
}

// Property sweep: random sequences of operations preserve membership
// semantics against a brute-force evaluation on sampled headers.
class HeaderSpaceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeaderSpaceProperty, OperationsPreserveMembership) {
  util::Rng rng(GetParam() + 100);

  // Model: predicate closure over headers; implementation: HeaderSpace.
  struct Op {
    enum Kind { Intersect, Subtract, Union } kind;
    Wildcard cube;
  };
  std::vector<Op> ops;
  for (int i = 0; i < 6; ++i) {
    Wildcard c;
    // Constrain 1-2 random small fields to keep spaces non-trivial.
    if (rng.next_bit()) c.set_field(Field::Vlan, rng.below(4));
    if (rng.next_bit()) c.set_field(Field::IpProto, rng.below(4));
    const auto kind = static_cast<Op::Kind>(rng.below(3));
    ops.push_back(Op{kind, c});
  }

  HeaderSpace hs = HeaderSpace::all();
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::Intersect:
        hs = hs.intersect(op.cube);
        break;
      case Op::Subtract:
        hs = hs.subtract(op.cube);
        break;
      case Op::Union:
        hs = hs.union_with(HeaderSpace(op.cube));
        break;
    }
  }

  auto model_contains = [&ops](const HeaderFields& h) {
    bool in = true;
    for (const Op& op : ops) {
      switch (op.kind) {
        case Op::Intersect:
          in = in && op.cube.contains(h);
          break;
        case Op::Subtract:
          in = in && !op.cube.contains(h);
          break;
        case Op::Union:
          in = in || op.cube.contains(h);
          break;
      }
    }
    return in;
  };

  for (int i = 0; i < 60; ++i) {
    HeaderFields h;
    h.vlan = rng.below(5);
    h.ip_proto = rng.below(5);
    EXPECT_EQ(hs.contains(h), model_contains(h))
        << "vlan=" << h.vlan << " proto=" << h.ip_proto;
  }

  // is_empty agrees with exhaustive small-domain check.
  bool model_empty = true;
  for (std::uint64_t v = 0; v < 4 && model_empty; ++v) {
    for (std::uint64_t p = 0; p < 4 && model_empty; ++p) {
      if (model_contains(header(v, p))) model_empty = false;
    }
  }
  // The model's domain is restricted; hs may contain headers outside it, so
  // only one implication holds strictly:
  if (hs.is_empty()) {
    EXPECT_TRUE(model_empty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeaderSpaceProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

// Equivalence sweep against the naive reference implementation
// (src/testing/reference_hsa.hpp): random operation sequences applied to
// both sides must denote the same header set — checked by sampled
// membership in both directions plus exact set difference.
class HeaderSpaceEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(HeaderSpaceEquivalence, MatchesNaiveReference) {
  util::Rng rng(GetParam() * 977 + 7);

  HeaderSpace opt = HeaderSpace::all();
  fuzz::ReferenceHeaderSpace ref = fuzz::ReferenceHeaderSpace::all();

  const int op_count = 4 + static_cast<int>(rng.below(8));
  for (int i = 0; i < op_count; ++i) {
    Wildcard c;
    if (rng.next_bit()) c.set_field(Field::Vlan, rng.below(8));
    if (rng.next_bit()) c.set_field(Field::IpProto, rng.below(8));
    switch (rng.below(4)) {
      case 0:
        opt = opt.intersect(c);
        ref = ref.intersect(c);
        break;
      case 1:
      case 2:  // subtraction-heavy: it is the diff-list/materialize path
        opt = opt.subtract(c);
        ref = ref.subtract(c);
        break;
      case 3:
        opt = opt.union_with(HeaderSpace(c));
        ref = ref.union_with(fuzz::ReferenceHeaderSpace(c));
        break;
    }
    if (rng.below(4) == 0) opt.compact();  // must never change the set
  }

  const auto divergence =
      fuzz::check_headerspace_vs_reference(opt, ref, rng, 32);
  EXPECT_FALSE(divergence.has_value()) << *divergence;
}

TEST_P(HeaderSpaceEquivalence, RewriteMatchesNaiveReference) {
  util::Rng rng(GetParam() * 1553 + 13);

  HeaderSpace opt = HeaderSpace::all();
  fuzz::ReferenceHeaderSpace ref = fuzz::ReferenceHeaderSpace::all();
  for (int i = 0; i < 5; ++i) {
    Wildcard c;
    c.set_field(Field::Vlan, rng.below(8));
    if (rng.next_bit()) c.set_field(Field::IpProto, rng.below(4));
    opt = opt.subtract(c);
    ref = ref.subtract(c);
  }
  Rewrite rw;
  rw.set_field(Field::Vlan, rng.below(8));
  opt = opt.rewrite(rw);
  ref = ref.rewrite(rw);

  const auto divergence =
      fuzz::check_headerspace_vs_reference(opt, ref, rng, 32);
  EXPECT_FALSE(divergence.has_value()) << *divergence;
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeaderSpaceEquivalence,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(HeaderSpace, CanonicalizationIsDeterministic) {
  // ReachCache / CompiledModelCache key on structural equality: the same
  // operation sequence must always produce the same cube structure, byte
  // for byte, including through the materialization and compact() paths.
  const auto build = [] {
    HeaderSpace hs = HeaderSpace::all();
    for (std::uint64_t v = 0; v < HeaderSpace::kMaxLazyDiffs + 3; ++v) {
      hs = hs.subtract(vlan_cube(v * 37 % 4096));
    }
    Rewrite rw;
    rw.set_field(Field::IpProto, 6);
    hs = hs.rewrite(rw);
    hs.compact();
    return hs;
  };
  const HeaderSpace a = build();
  const HeaderSpace b = build();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace rvaas::hsa
