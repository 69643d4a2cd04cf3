// Wildcard cube algebra: unit tests plus randomized property sweeps
// (parameterized over seeds) checking the algebraic laws the reachability
// engine depends on.

#include <gtest/gtest.h>

#include "hsa/header_space.hpp"
#include "hsa/wildcard.hpp"

namespace rvaas::hsa {
namespace {

using sdn::Field;
using sdn::HeaderFields;

Wildcard random_cube(util::Rng& rng, double fix_prob = 0.3) {
  Wildcard w;
  for (std::size_t i = 0; i < Wildcard::kBits; ++i) {
    if (rng.bernoulli(fix_prob)) {
      w.set_bit(i, rng.next_bit() ? Trit::One : Trit::Zero);
    }
  }
  return w;
}

HeaderFields random_header(util::Rng& rng) {
  HeaderFields h;
  for (const auto& info : sdn::kFields) {
    h.set(info.field, rng.next_u64() & sdn::field_mask(info.field));
  }
  return h;
}

TEST(Wildcard, DefaultIsFullSpace) {
  const Wildcard w;
  EXPECT_FALSE(w.is_empty());
  EXPECT_EQ(w.free_bits(), Wildcard::kBits);
  EXPECT_EQ(w.to_string(), "*");
}

TEST(Wildcard, SetGetBits) {
  Wildcard w;
  w.set_bit(0, Trit::One);
  w.set_bit(227, Trit::Zero);
  EXPECT_EQ(w.get_bit(0), Trit::One);
  EXPECT_EQ(w.get_bit(227), Trit::Zero);
  EXPECT_EQ(w.get_bit(100), Trit::Any);
  EXPECT_EQ(w.free_bits(), Wildcard::kBits - 2);
  EXPECT_THROW(w.set_bit(228, Trit::Any), util::InvariantViolation);
}

TEST(Wildcard, EncodeContainsItsHeader) {
  util::Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const HeaderFields h = random_header(rng);
    const Wildcard w = Wildcard::encode(h);
    EXPECT_TRUE(w.contains(h));
    EXPECT_EQ(w.free_bits(), 0u);
    // A different header is not contained.
    HeaderFields other = h;
    other.set(Field::IpDst, h.get(Field::IpDst) ^ 1);
    EXPECT_FALSE(w.contains(other));
  }
}

TEST(Wildcard, FieldConstraintMatchesSemantics) {
  Wildcard w;
  w.set_field(Field::Vlan, 5);
  HeaderFields h;
  h.vlan = 5;
  EXPECT_TRUE(w.contains(h));
  h.vlan = 4;
  EXPECT_FALSE(w.contains(h));
}

TEST(Wildcard, MaskedFieldPrefix) {
  // 10.0.0.0/8: top 8 bits of ip_dst fixed.
  Wildcard w;
  const std::uint64_t mask = 0xff000000;
  w.set_field_masked(Field::IpDst, 0x0a000000, mask);
  HeaderFields h;
  h.ip_dst = 0x0a1234ff;
  EXPECT_TRUE(w.contains(h));
  h.ip_dst = 0x0b000000;
  EXPECT_FALSE(w.contains(h));
  EXPECT_EQ(w.free_bits(), Wildcard::kBits - 8);
}

TEST(Wildcard, IntersectDisjointIsEmpty) {
  Wildcard a, b;
  a.set_field(Field::Vlan, 1);
  b.set_field(Field::Vlan, 2);
  EXPECT_TRUE(a.intersect(b).is_empty());
  EXPECT_FALSE(a.intersects(b));
}

TEST(Wildcard, IntersectIsMeet) {
  Wildcard a, b;
  a.set_field(Field::Vlan, 1);
  b.set_field(Field::IpProto, 6);
  const Wildcard c = a.intersect(b);
  HeaderFields h;
  h.vlan = 1;
  h.ip_proto = 6;
  EXPECT_TRUE(c.contains(h));
  h.ip_proto = 17;
  EXPECT_FALSE(c.contains(h));
}

TEST(Wildcard, SubsetReflexiveAndAntisymmetric) {
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const Wildcard a = random_cube(rng);
    EXPECT_TRUE(a.subset_of(a));
    const Wildcard b = random_cube(rng);
    if (a.subset_of(b) && b.subset_of(a)) {
      EXPECT_EQ(a, b);
    }
  }
}

TEST(Wildcard, IntersectionIsLowerBound) {
  util::Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Wildcard a = random_cube(rng, 0.15);
    const Wildcard b = random_cube(rng, 0.15);
    const Wildcard c = a.intersect(b);
    if (c.is_empty()) continue;
    EXPECT_TRUE(c.subset_of(a));
    EXPECT_TRUE(c.subset_of(b));
    EXPECT_EQ(a.intersect(b), b.intersect(a));  // commutative
  }
}

TEST(Wildcard, ContainsAgreesWithIntersectOfEncoded) {
  // x ∈ A  <=>  encode(x) ∩ A ≠ ∅  (since encode(x) is a point).
  util::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const Wildcard a = random_cube(rng, 0.1);
    const HeaderFields h = random_header(rng);
    EXPECT_EQ(a.contains(h), a.intersects(Wildcard::encode(h)));
  }
}

TEST(Wildcard, SampleAlwaysInsideCube) {
  util::Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const Wildcard a = random_cube(rng);
    const HeaderFields h = a.sample(rng);
    EXPECT_TRUE(a.contains(h));
  }
}

TEST(Wildcard, SampleEmptyThrows) {
  Wildcard a, b;
  a.set_field(Field::Vlan, 1);
  b.set_field(Field::Vlan, 2);
  util::Rng rng(6);
  EXPECT_THROW(a.intersect(b).sample(rng), util::InvariantViolation);
}

TEST(CubeSubtract, DisjointLeavesAUntouched) {
  Wildcard a, b;
  a.set_field(Field::Vlan, 1);
  b.set_field(Field::Vlan, 2);
  const auto pieces = cube_subtract(a, b);
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0], a);
}

TEST(CubeSubtract, FullCoverLeavesNothing) {
  Wildcard a;
  a.set_field(Field::Vlan, 7);
  EXPECT_TRUE(cube_subtract(a, Wildcard::all()).empty());
  EXPECT_TRUE(cube_subtract(a, a).empty());
}

TEST(CubeSubtract, PieceCountBoundedByConstrainedBits) {
  Wildcard b;
  b.set_field(Field::IpProto, 6);  // 8 constrained bits
  const auto pieces = cube_subtract(Wildcard::all(), b);
  EXPECT_EQ(pieces.size(), 8u);
}

// The defining property: x ∈ (A \ B)  <=>  x ∈ A && x ∉ B.
class CubeSubtractProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CubeSubtractProperty, MembershipSemantics) {
  util::Rng rng(GetParam());
  const Wildcard a = random_cube(rng, 0.08);
  const Wildcard b = random_cube(rng, 0.08);
  const auto pieces = cube_subtract(a, b);

  // No piece may intersect b; every piece must lie inside a.
  for (const Wildcard& p : pieces) {
    EXPECT_FALSE(p.intersects(b));
    EXPECT_TRUE(p.subset_of(a));
  }

  // Sampled points: membership in pieces <=> in a and not in b.
  for (int i = 0; i < 40; ++i) {
    const HeaderFields h =
        (i % 2 == 0) ? a.sample(rng) : random_header(rng);
    bool in_pieces = false;
    for (const Wildcard& p : pieces) in_pieces |= p.contains(h);
    EXPECT_EQ(in_pieces, a.contains(h) && !b.contains(h));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubeSubtractProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(Rewrite, ApplyToHeaderAndCubeAgree) {
  util::Rng rng(7);
  Rewrite rw;
  rw.set_field(Field::Vlan, 42);
  rw.set_field(Field::IpDst, 0x0a000001);
  for (int i = 0; i < 50; ++i) {
    const Wildcard a = random_cube(rng);
    const Wildcard image = rw.apply(a);
    const HeaderFields h = a.sample(rng);
    EXPECT_TRUE(image.contains(rw.apply(h)));
  }
}

TEST(Rewrite, IdentityLeavesUntouched) {
  const Rewrite rw;
  EXPECT_TRUE(rw.identity());
  const Wildcard a = Wildcard::all();
  EXPECT_EQ(rw.apply(a), a);
}

TEST(Rewrite, TouchesReportsFields) {
  Rewrite rw;
  rw.set_field(Field::Vlan, 1);
  EXPECT_TRUE(rw.touches(Field::Vlan));
  EXPECT_FALSE(rw.touches(Field::IpDst));
  EXPECT_THROW(rw.set_field(Field::Vlan, 0x1000), util::InvariantViolation);
}

TEST(Wildcard, ToStringShowsConstrainedFields) {
  Wildcard w;
  w.set_field(Field::Vlan, 5);
  const std::string s = w.to_string();
  EXPECT_NE(s.find("vlan="), std::string::npos);
  EXPECT_EQ(s.find("ip_dst"), std::string::npos);
  EXPECT_EQ(w.field_to_string(Field::Vlan), "000000000101");
}

// --- Randomized algebra round-trips ---
//
// Complement has no direct primitive; ¬A is expressed as all() \ A on
// HeaderSpace and validated through membership of randomized headers, both
// uniform ones and ones sampled from the cubes under test.

class AlgebraProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlgebraProperty, ComplementPartitionsEveryHeader) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const Wildcard a = random_cube(rng);
    const HeaderSpace complement = HeaderSpace::all().subtract(a);
    for (int k = 0; k < 20; ++k) {
      const HeaderFields h =
          (k % 2 == 0) ? random_header(rng) : a.sample(rng);
      EXPECT_NE(a.contains(h), complement.contains(h)) << a.to_string();
    }
  }
}

TEST_P(AlgebraProperty, DoubleComplementRoundTripsMembership) {
  util::Rng rng(GetParam() ^ 0x1);
  for (int round = 0; round < 10; ++round) {
    const Wildcard a = random_cube(rng);
    // ¬¬A: resolve ¬A to plain cubes and subtract each from the full space.
    HeaderSpace twice = HeaderSpace::all();
    for (const Wildcard& piece : HeaderSpace::all().subtract(a).resolve()) {
      twice = twice.subtract(piece);
    }
    for (int k = 0; k < 20; ++k) {
      const HeaderFields h =
          (k % 2 == 0) ? random_header(rng) : a.sample(rng);
      EXPECT_EQ(twice.contains(h), a.contains(h));
    }
  }
}

TEST_P(AlgebraProperty, IntersectionMembershipIsConjunction) {
  util::Rng rng(GetParam() ^ 0x2);
  for (int round = 0; round < 20; ++round) {
    const Wildcard a = random_cube(rng, 0.15);
    const Wildcard b = random_cube(rng, 0.15);
    const HeaderSpace meet = HeaderSpace(a).intersect(b);
    for (int k = 0; k < 30; ++k) {
      const HeaderFields h = (k % 3 == 0)   ? random_header(rng)
                             : (k % 3 == 1) ? a.sample(rng)
                                            : b.sample(rng);
      EXPECT_EQ(meet.contains(h), a.contains(h) && b.contains(h));
    }
  }
}

TEST_P(AlgebraProperty, SubsetAgreesWithSampledMembership) {
  util::Rng rng(GetParam() ^ 0x3);
  for (int round = 0; round < 20; ++round) {
    const Wildcard b = random_cube(rng, 0.2);
    // Tighten b into a guaranteed subset by fixing a few more free bits.
    Wildcard a = b;
    for (std::size_t i = 0; i < Wildcard::kBits; ++i) {
      if (a.get_bit(i) == Trit::Any && rng.bernoulli(0.1)) {
        a.set_bit(i, rng.next_bit() ? Trit::One : Trit::Zero);
      }
    }
    ASSERT_TRUE(a.subset_of(b));
    // Subset ⟺ intersection is a no-op on the smaller cube.
    EXPECT_EQ(a.intersect(b), a);
    for (int k = 0; k < 20; ++k) {
      EXPECT_TRUE(b.contains(a.sample(rng)));
    }
    // And an independent random cube that claims subset must agree on
    // sampled members.
    const Wildcard c = random_cube(rng, 0.2);
    if (c.subset_of(b)) {
      for (int k = 0; k < 20; ++k) EXPECT_TRUE(b.contains(c.sample(rng)));
    }
  }
}

TEST_P(AlgebraProperty, SubtractPlusIntersectionRoundTripsToOriginal) {
  util::Rng rng(GetParam() ^ 0x4);
  for (int round = 0; round < 10; ++round) {
    const Wildcard a = random_cube(rng, 0.15);
    const Wildcard b = random_cube(rng, 0.15);
    // (A \ B) ∪ (A ∩ B) must have exactly A's members.
    const HeaderSpace recombined =
        HeaderSpace(a).subtract(b).union_with(HeaderSpace(a).intersect(b));
    for (int k = 0; k < 30; ++k) {
      const HeaderFields h =
          (k % 2 == 0) ? random_header(rng) : a.sample(rng);
      EXPECT_EQ(recombined.contains(h), a.contains(h));
    }
  }
}

TEST_P(AlgebraProperty, DeMorganOnMembership) {
  util::Rng rng(GetParam() ^ 0x5);
  for (int round = 0; round < 10; ++round) {
    const Wildcard a = random_cube(rng, 0.15);
    const Wildcard b = random_cube(rng, 0.15);
    const HeaderSpace not_a = HeaderSpace::all().subtract(a);
    const HeaderSpace not_b = HeaderSpace::all().subtract(b);
    const HeaderSpace meet = HeaderSpace(a).intersect(b);
    for (int k = 0; k < 30; ++k) {
      const HeaderFields h = (k % 3 == 0)   ? random_header(rng)
                             : (k % 3 == 1) ? a.sample(rng)
                                            : b.sample(rng);
      // ¬(A ∩ B) = ¬A ∪ ¬B, checked pointwise.
      EXPECT_EQ(!meet.contains(h), not_a.contains(h) || not_b.contains(h));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlgebraProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace rvaas::hsa
