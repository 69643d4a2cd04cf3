#pragma once
// Minimal arbitrary-precision unsigned integer arithmetic, sufficient for
// Schnorr signatures and Diffie-Hellman key encapsulation over a 256-bit
// safe-prime group. Little-endian 32-bit limbs; schoolbook multiplication;
// Knuth Algorithm D division; left-to-right 4-bit fixed-window modpow. Not
// constant-time: the window's table lookups and skipped zero digits depend
// on the exponent (simulation-grade crypto, like the group in group.hpp).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace rvaas::crypto {

class BigUInt;

/// Result of BigUInt::divmod.
struct BigUIntDivMod;

class BigUInt {
 public:
  BigUInt() = default;
  explicit BigUInt(std::uint64_t v);

  static BigUInt from_hex(std::string_view hex);
  /// Big-endian byte import (leading zeros allowed).
  static BigUInt from_bytes(std::span<const std::uint8_t> be);
  /// Uniform value in [0, bound) via rejection sampling. bound must be > 0.
  static BigUInt random_below(util::Rng& rng, const BigUInt& bound);

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  std::size_t bit_length() const;
  bool bit(std::size_t i) const;
  /// 4-bit digit i, i.e. bits 4i..4i+3 (0 past the top).
  unsigned nibble(std::size_t i) const {
    const std::size_t limb = i / 8;
    return limb < limbs_.size() ? (limbs_[limb] >> (4 * (i % 8))) & 0xf : 0;
  }

  /// Three-way compare: -1, 0, +1.
  int compare(const BigUInt& other) const;
  bool operator==(const BigUInt& other) const { return compare(other) == 0; }
  bool operator!=(const BigUInt& other) const { return compare(other) != 0; }
  bool operator<(const BigUInt& other) const { return compare(other) < 0; }
  bool operator<=(const BigUInt& other) const { return compare(other) <= 0; }
  bool operator>(const BigUInt& other) const { return compare(other) > 0; }
  bool operator>=(const BigUInt& other) const { return compare(other) >= 0; }

  BigUInt add(const BigUInt& other) const;
  /// Requires *this >= other.
  BigUInt sub(const BigUInt& other) const;
  BigUInt mul(const BigUInt& other) const;
  /// Returns {quotient, remainder}; divisor must be non-zero.
  BigUIntDivMod divmod(const BigUInt& divisor) const;
  BigUInt mod(const BigUInt& m) const;

  BigUInt shift_left(std::size_t bits) const;
  BigUInt shift_right(std::size_t bits) const;

  /// (a * b) mod m
  static BigUInt modmul(const BigUInt& a, const BigUInt& b, const BigUInt& m);
  /// (a + b) mod m, assuming a, b < m.
  static BigUInt modadd(const BigUInt& a, const BigUInt& b, const BigUInt& m);
  /// (base ^ exp) mod m; m must be > 1. Per 4-bit digit of exp: four
  /// squarings and at most one multiply by a precomputed base^1..base^15.
  static BigUInt modpow(const BigUInt& base, const BigUInt& exp,
                        const BigUInt& m);

  std::string to_hex() const;
  /// Big-endian export, left-padded with zeros to `len` bytes (throws if the
  /// value does not fit).
  util::Bytes to_bytes(std::size_t len) const;
  util::Bytes to_bytes() const;  // minimal length (1 byte for zero)
  std::uint64_t to_u64() const;  // throws if it does not fit

 private:
  void normalize();

  // Little-endian limbs, most significant limb non-zero (empty == 0).
  std::vector<std::uint32_t> limbs_;
};

struct BigUIntDivMod {
  BigUInt quotient;
  BigUInt remainder;
};

inline BigUInt BigUInt::mod(const BigUInt& m) const {
  return divmod(m).remainder;
}

}  // namespace rvaas::crypto
