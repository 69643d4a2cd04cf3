#include "crypto/group.hpp"

#include <utility>

#include "util/ensure.hpp"

namespace rvaas::crypto {

namespace {

/// Jacobi symbol (a|n) for odd n, binary algorithm: strip factors of two
/// (each flips the sign iff n = 3 or 5 mod 8), swap by quadratic reciprocity
/// (flips iff both are 3 mod 4), then subtract.
int jacobi(BigUInt a, BigUInt n) {
  int sign = 1;
  while (!a.is_zero()) {
    std::size_t twos = 0;
    while (!a.bit(twos)) ++twos;
    a = a.shift_right(twos);
    const unsigned n8 = n.nibble(0) & 7;
    if ((twos & 1) && (n8 == 3 || n8 == 5)) sign = -sign;
    if (a < n) {
      std::swap(a, n);
      if ((a.nibble(0) & 3) == 3 && (n.nibble(0) & 3) == 3) sign = -sign;
    }
    a = a.sub(n);
  }
  return n == BigUInt(1) ? sign : 0;
}

}  // namespace

BigUInt Group::exp(const BigUInt& x) const {
  const std::size_t digits = (x.bit_length() + 3) / 4;
  util::ensure(digits <= kCombRows && comb.size() == 15 * kCombRows,
               "Group::exp needs the comb and an exponent below 2^256");
  BigUInt result(1);
  for (std::size_t i = 0; i < digits; ++i) {
    if (const unsigned d = x.nibble(i)) {
      result = BigUInt::modmul(result, comb[15 * i + d - 1], p);
    }
  }
  return result;
}

bool Group::is_element(const BigUInt& e) const {
  if (e.is_zero() || e >= p) return false;
  return jacobi(e, p) == 1;
}

const Group& default_group() {
  // 256-bit safe prime p = 2q + 1, generated offline with seed 20160609
  // (the paper's submission year/venue) and verified with 40 Miller-Rabin
  // rounds on both p and q. g = 4 = 2^2 is a quadratic residue, hence a
  // generator of the order-q subgroup.
  static const Group group = [] {
    Group g;
    g.p = BigUInt::from_hex(
        "dfd59ed7c49edcdf77a671bc331bf7855f8d5185343ec3b97bc31878ef175983");
    g.q = BigUInt::from_hex(
        "6feacf6be24f6e6fbbd338de198dfbc2afc6a8c29a1f61dcbde18c3c778bacc1");
    g.g = BigUInt(4);
    // Row i multiplies up from g^(16^i), which is the previous row's last
    // entry g^(15 * 16^(i-1)) times that row's base g^(16^(i-1)).
    g.comb.reserve(15 * Group::kCombRows);
    BigUInt row_base = g.g;
    for (std::size_t i = 0; i < Group::kCombRows; ++i) {
      if (i > 0) row_base = BigUInt::modmul(g.comb.back(), row_base, g.p);
      g.comb.push_back(row_base);
      for (int d = 2; d <= 15; ++d) {
        g.comb.push_back(BigUInt::modmul(g.comb.back(), row_base, g.p));
      }
    }
    return g;
  }();
  return group;
}

}  // namespace rvaas::crypto
