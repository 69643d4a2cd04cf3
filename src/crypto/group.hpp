#pragma once
// Schnorr group: prime-order subgroup of Z_p^* for a safe prime p = 2q + 1.
// The default group uses a fixed 256-bit safe prime (generated offline from a
// fixed seed). Simulation-grade parameters: a production deployment would use
// Ed25519 or a 2048-bit MODP group; the protocol code is parameter-agnostic.
//
// g^x reads a fixed-base comb (one modmul per non-zero 4-bit digit of x) and
// membership is a Jacobi symbol; neither is constant-time.

#include <vector>

#include "crypto/bignum.hpp"

namespace rvaas::crypto {

struct Group {
  /// Comb rows: one per 4-bit digit, so exp() takes exponents below 2^256.
  static constexpr std::size_t kCombRows = 64;

  BigUInt p;  ///< safe prime modulus
  BigUInt q;  ///< subgroup order, q = (p - 1) / 2
  BigUInt g;  ///< generator of the order-q subgroup
  /// comb[15*i + d - 1] = g^(d * 16^i) mod p for i < kCombRows, d in 1..15.
  /// Filled once by default_group() and read-only afterwards, so concurrent
  /// exp() calls need no lock.
  std::vector<BigUInt> comb;

  /// Number of bytes needed to serialize a group element.
  std::size_t element_bytes() const { return (p.bit_length() + 7) / 8; }

  /// g^x mod p; requires x < 2^256.
  BigUInt exp(const BigUInt& x) const;

  /// true iff e is a valid element of the order-q subgroup: e in [1, p) and
  /// the Jacobi symbol (e|p) = 1. p is a safe prime, so the order-q subgroup
  /// is exactly the quadratic residues, and by Euler's criterion this accepts
  /// the same set as e^q == 1.
  bool is_element(const BigUInt& e) const;
};

/// The library-wide default group (cached; thread-safe initialization).
const Group& default_group();

}  // namespace rvaas::crypto
