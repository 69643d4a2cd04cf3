// BigUInt arithmetic: unit tests plus randomized property sweeps that
// cross-check mul/divmod/modpow against 64-bit native arithmetic and against
// algebraic identities at larger widths.

#include <gtest/gtest.h>

#include <vector>

#include "crypto/bignum.hpp"
#include "util/rng.hpp"

namespace rvaas::crypto {
namespace {

using util::Rng;

BigUInt random_bits(Rng& rng, std::size_t max_bits) {
  const std::size_t bits = 1 + rng.below(max_bits);
  BigUInt bound = BigUInt(1).shift_left(bits);
  return BigUInt::random_below(rng, bound);
}

/// Miller-Rabin with `rounds` random bases (deterministic given rng seed).
bool is_probable_prime(const BigUInt& n, Rng& rng, int rounds = 32) {
  static const std::uint32_t kSmallPrimes[] = {2,  3,  5,  7,  11, 13, 17, 19,
                                               23, 29, 31, 37, 41, 43, 47};
  if (n < BigUInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    const BigUInt bp(p);
    if (n == bp) return true;
    if (n.mod(bp).is_zero()) return false;
  }

  // n - 1 = d * 2^r with d odd.
  const BigUInt n_minus_1 = n.sub(BigUInt(1));
  BigUInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d.shift_right(1);
    ++r;
  }

  const BigUInt two(2);
  const BigUInt n_minus_3 = n.sub(BigUInt(3));
  for (int round = 0; round < rounds; ++round) {
    // a in [2, n-2]
    const BigUInt a = BigUInt::random_below(rng, n_minus_3).add(two);
    BigUInt x = BigUInt::modpow(a, d, n);
    if (x == BigUInt(1) || x == n_minus_1) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < r; ++i) {
      x = BigUInt::modmul(x, x, n);
      if (x == n_minus_1) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

TEST(BigUInt, ZeroAndSmallValues) {
  EXPECT_TRUE(BigUInt{}.is_zero());
  EXPECT_TRUE(BigUInt(0).is_zero());
  EXPECT_FALSE(BigUInt(1).is_zero());
  EXPECT_EQ(BigUInt(5).to_u64(), 5u);
  EXPECT_EQ(BigUInt{}.bit_length(), 0u);
  EXPECT_EQ(BigUInt(1).bit_length(), 1u);
  EXPECT_EQ(BigUInt(255).bit_length(), 8u);
  EXPECT_EQ(BigUInt(256).bit_length(), 9u);
}

TEST(BigUInt, U64RoundTrip) {
  const std::uint64_t v = 0xfedcba9876543210ULL;
  EXPECT_EQ(BigUInt(v).to_u64(), v);
}

TEST(BigUInt, HexRoundTrip) {
  const std::string hex = "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b9";
  EXPECT_EQ(BigUInt::from_hex(hex).to_hex(), hex);
  EXPECT_EQ(BigUInt::from_hex("0").to_hex(), "0");
  EXPECT_EQ(BigUInt::from_hex("00ff").to_hex(), "ff");
}

TEST(BigUInt, BytesRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const BigUInt v = random_bits(rng, 300);
    EXPECT_EQ(BigUInt::from_bytes(v.to_bytes()), v);
    EXPECT_EQ(BigUInt::from_bytes(v.to_bytes(64)), v);  // padded
  }
}

TEST(BigUInt, ToBytesFixedLengthThrowsWhenTooSmall) {
  EXPECT_THROW(BigUInt(0x1234).to_bytes(1), util::InvariantViolation);
  EXPECT_EQ(BigUInt(0x1234).to_bytes(2), (util::Bytes{0x12, 0x34}));
}

TEST(BigUInt, CompareOrdering) {
  EXPECT_LT(BigUInt(3), BigUInt(4));
  EXPECT_GT(BigUInt(1).shift_left(100), BigUInt(~std::uint64_t{0}));
  EXPECT_EQ(BigUInt(7).compare(BigUInt(7)), 0);
}

TEST(BigUInt, AddSubInverseProperty) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const BigUInt a = random_bits(rng, 256);
    const BigUInt b = random_bits(rng, 256);
    const BigUInt sum = a.add(b);
    EXPECT_EQ(sum.sub(b), a);
    EXPECT_EQ(sum.sub(a), b);
  }
}

TEST(BigUInt, SubUnderflowThrows) {
  EXPECT_THROW(BigUInt(3).sub(BigUInt(4)), util::InvariantViolation);
}

TEST(BigUInt, MulMatchesNativeU64) {
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64() >> 33;  // 31 bits
    const std::uint64_t b = rng.next_u64() >> 33;
    EXPECT_EQ(BigUInt(a).mul(BigUInt(b)).to_u64(), a * b);
  }
}

TEST(BigUInt, MulCommutativeAndDistributive) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const BigUInt a = random_bits(rng, 200);
    const BigUInt b = random_bits(rng, 200);
    const BigUInt c = random_bits(rng, 200);
    EXPECT_EQ(a.mul(b), b.mul(a));
    EXPECT_EQ(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
  }
}

TEST(BigUInt, ShiftsInverse) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const BigUInt a = random_bits(rng, 300);
    const std::size_t k = rng.below(200);
    EXPECT_EQ(a.shift_left(k).shift_right(k), a);
  }
}

TEST(BigUInt, DivModMatchesNativeU64) {
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = 1 + rng.below(1u << 31);
    const auto [q, r] = BigUInt(a).divmod(BigUInt(b));
    EXPECT_EQ(q.to_u64(), a / b);
    EXPECT_EQ(r.to_u64(), a % b);
  }
}

// The defining property of division: a == q*b + r with 0 <= r < b. This
// sweeps multi-limb divisors, exercising the Knuth D corner cases.
TEST(BigUInt, DivModPropertyLargeOperands) {
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const BigUInt a = random_bits(rng, 512);
    BigUInt b = random_bits(rng, 280);
    if (b.is_zero()) b = BigUInt(1);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q.mul(b).add(r), a);
  }
}

TEST(BigUInt, DivModQhatCorrectionEdge) {
  // Dividend engineered so the top limbs of u and v are equal, which forces
  // the qhat >= base branch in Knuth D.
  const BigUInt v = BigUInt::from_hex("ffffffff00000000ffffffff");
  const BigUInt u = v.shift_left(64).add(v);
  const auto [q, r] = u.divmod(v);
  EXPECT_EQ(q.mul(v).add(r), u);
  EXPECT_LT(r, v);
}

TEST(BigUInt, DivisionByZeroThrows) {
  EXPECT_THROW(BigUInt(5).divmod(BigUInt{}), util::InvariantViolation);
}

TEST(BigUInt, ModPowMatchesNative) {
  Rng rng(8);
  auto native_modpow = [](std::uint64_t b, std::uint64_t e, std::uint64_t m) {
    std::uint64_t result = 1 % m;
    b %= m;
    while (e) {
      if (e & 1) result = (__uint128_t(result) * b) % m;
      b = (__uint128_t(b) * b) % m;
      e >>= 1;
    }
    return result;
  };
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t b = rng.next_u64() >> 16;
    const std::uint64_t e = rng.next_u64() >> 48;
    const std::uint64_t m = 2 + rng.below(1u << 30);
    EXPECT_EQ(BigUInt::modpow(BigUInt(b), BigUInt(e), BigUInt(m)).to_u64(),
              native_modpow(b, e, m));
  }
}

TEST(BigUInt, ModPowFermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p, gcd(a, p) = 1.
  const BigUInt p = BigUInt::from_hex(
      "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    const BigUInt a =
        BigUInt::random_below(rng, p.sub(BigUInt(2))).add(BigUInt(1));
    EXPECT_EQ(BigUInt::modpow(a, p.sub(BigUInt(1)), p), BigUInt(1));
  }
}

TEST(BigUInt, ModPowWindowBoundaries) {
  // Exponents whose bit length starts, fills or spills a 4-bit window, at
  // both ends of the scalar range: a^x must equal a^(x-1) * a.
  const BigUInt p = BigUInt::from_hex(
      "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
  Rng rng(13);
  const BigUInt a = BigUInt::random_below(rng, p);
  std::vector<std::size_t> lengths = {252, 253, 254, 255, 256, 257};
  for (std::size_t bits = 1; bits <= 9; ++bits) lengths.push_back(bits);
  for (const std::size_t bits : lengths) {
    const BigUInt low = BigUInt(1).shift_left(bits - 1);
    const BigUInt all_ones = low.shift_left(1).sub(BigUInt(1));
    const BigUInt random = low.add(BigUInt::random_below(rng, low));
    for (const BigUInt& x : {low, all_ones, random}) {
      ASSERT_EQ(x.bit_length(), bits);
      EXPECT_EQ(BigUInt::modpow(a, x, p),
                BigUInt::modmul(BigUInt::modpow(a, x.sub(BigUInt(1)), p), a, p))
          << "x=" << x.to_hex();
    }
  }
}

TEST(BigUInt, ModAddReduces) {
  const BigUInt m(100);
  EXPECT_EQ(BigUInt::modadd(BigUInt(60), BigUInt(70), m), BigUInt(30));
  EXPECT_EQ(BigUInt::modadd(BigUInt(10), BigUInt(20), m), BigUInt(30));
}

TEST(BigUInt, RandomBelowStaysInBounds) {
  Rng rng(10);
  const BigUInt bound = BigUInt::from_hex("10000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigUInt::random_below(rng, bound), bound);
  }
}

TEST(BigUInt, PrimalityKnownPrimesAndComposites) {
  Rng rng(11);
  EXPECT_TRUE(is_probable_prime(BigUInt(2), rng));
  EXPECT_TRUE(is_probable_prime(BigUInt(3), rng));
  EXPECT_TRUE(is_probable_prime(BigUInt(65537), rng));
  EXPECT_TRUE(is_probable_prime(BigUInt(0xffffffffffffffc5ULL), rng));
  EXPECT_FALSE(is_probable_prime(BigUInt(1), rng));
  EXPECT_FALSE(is_probable_prime(BigUInt(65537ULL * 3), rng));
  EXPECT_FALSE(is_probable_prime(
      BigUInt(6700417ULL).mul(BigUInt(6700417ULL)), rng));
}

TEST(BigUInt, DefaultGroupPrimesArePrime) {
  Rng rng(12);
  const BigUInt p = BigUInt::from_hex(
      "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
  const BigUInt q = BigUInt::from_hex(
      "6feacf6be24f6e6fbbd338de198dfbc2afc6a8c29a1f61dcbde18c3c778bacc1");
  EXPECT_TRUE(is_probable_prime(p, rng, 16));
  EXPECT_TRUE(is_probable_prime(q, rng, 16));
  EXPECT_EQ(q.mul(BigUInt(2)).add(BigUInt(1)), p);  // safe prime structure
}

}  // namespace
}  // namespace rvaas::crypto
