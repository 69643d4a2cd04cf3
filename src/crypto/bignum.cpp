#include "crypto/bignum.hpp"

#include <algorithm>

#include "util/ensure.hpp"
#include "util/hex.hpp"

namespace rvaas::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}

BigUInt::BigUInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUInt BigUInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  return from_bytes(util::from_hex(padded));
}

BigUInt BigUInt::from_bytes(std::span<const std::uint8_t> be) {
  BigUInt out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    // Byte i (big-endian) contributes to bit offset 8*(size-1-i).
    const std::size_t byte_from_low = be.size() - 1 - i;
    out.limbs_[byte_from_low / 4] |= static_cast<std::uint32_t>(be[i])
                                     << (8 * (byte_from_low % 4));
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::random_below(util::Rng& rng, const BigUInt& bound) {
  util::ensure(!bound.is_zero(), "random_below requires bound > 0");
  const std::size_t bits = bound.bit_length();
  const std::size_t nlimbs = (bits + 31) / 32;
  while (true) {
    BigUInt candidate;
    candidate.limbs_.resize(nlimbs);
    for (auto& limb : candidate.limbs_) {
      limb = static_cast<std::uint32_t>(rng.next_u64());
    }
    // Mask the top limb down to the bound's bit length.
    const std::size_t top_bits = bits - 32 * (nlimbs - 1);
    if (top_bits < 32) {
      candidate.limbs_.back() &= (1u << top_bits) - 1;
    }
    candidate.normalize();
    if (candidate < bound) return candidate;
  }
}

std::size_t BigUInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = 32 * (limbs_.size() - 1);
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigUInt::compare(const BigUInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUInt BigUInt::add(const BigUInt& other) const {
  BigUInt out;
  const std::size_t n = std::max(limbs_.size(), other.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.normalize();
  return out;
}

BigUInt BigUInt::sub(const BigUInt& other) const {
  util::ensure(*this >= other, "BigUInt::sub would underflow");
  BigUInt out;
  out.limbs_.resize(limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) diff -= other.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::mul(const BigUInt& other) const {
  if (is_zero() || other.is_zero()) return BigUInt{};
  BigUInt out;
  out.limbs_.assign(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out.limbs_[i + j]) +
          static_cast<std::uint64_t>(limbs_[i]) * other.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + other.limbs_.size();
    while (carry) {
      const std::uint64_t cur = out.limbs_[k] + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::shift_left(std::size_t bits) const {
  if (is_zero() || bits == 0) {
    BigUInt out = *this;
    return out;
  }
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.normalize();
  return out;
}

BigUInt BigUInt::shift_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigUInt{};
  const std::size_t bit_shift = bits % 32;
  BigUInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift > 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.normalize();
  return out;
}

BigUIntDivMod BigUInt::divmod(const BigUInt& divisor) const {
  util::ensure(!divisor.is_zero(), "BigUInt division by zero");
  if (*this < divisor) return {BigUInt{}, *this};

  // Single-limb divisor: simple short division.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigUInt q;
    q.limbs_.resize(limbs_.size());
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.normalize();
    return {q, BigUInt(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, which keeps the quotient-digit estimate within 2 of the true value.
  int shift = 0;
  {
    std::uint32_t top = divisor.limbs_.back();
    while (!(top & 0x80000000u)) {
      top <<= 1;
      ++shift;
    }
  }
  const BigUInt u_norm = shift_left(static_cast<std::size_t>(shift));
  const BigUInt v_norm = divisor.shift_left(static_cast<std::size_t>(shift));
  const std::size_t n = v_norm.limbs_.size();
  std::vector<std::uint32_t> u = u_norm.limbs_;
  u.resize(std::max(u.size(), limbs_.size() + 1), 0);
  if (u.size() < n + 1) u.resize(n + 1, 0);
  const std::size_t m = u.size() - n;
  const std::vector<std::uint32_t>& v = v_norm.limbs_;

  BigUInt q;
  q.limbs_.assign(m, 0);

  for (std::size_t j = m; j-- > 0;) {
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numerator / v[n - 1];
    std::uint64_t rhat = numerator % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-and-subtract qhat * v from u[j .. j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = qhat * v[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                          static_cast<std::int64_t>(product & 0xffffffffULL) -
                          borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t diff = static_cast<std::int64_t>(u[j + n]) -
                        static_cast<std::int64_t>(carry) - borrow;
    if (diff < 0) {
      // qhat was one too large: add divisor back.
      diff += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t carry2 = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(u[i + j]) + v[i] + carry2;
        u[i + j] = static_cast<std::uint32_t>(sum);
        carry2 = sum >> 32;
      }
      diff += static_cast<std::int64_t>(carry2);
    }
    u[j + n] = static_cast<std::uint32_t>(diff);
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }

  q.normalize();
  BigUInt r;
  r.limbs_.assign(u.begin(), u.begin() + static_cast<long>(n));
  r.normalize();
  return {q, r.shift_right(static_cast<std::size_t>(shift))};
}

BigUInt BigUInt::modmul(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  return a.mul(b).mod(m);
}

BigUInt BigUInt::modadd(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  BigUInt sum = a.add(b);
  if (sum >= m) sum = sum.sub(m);
  return sum;
}

BigUInt BigUInt::modpow(const BigUInt& base, const BigUInt& exp,
                        const BigUInt& m) {
  util::ensure(m > BigUInt(1), "modpow modulus must be > 1");
  std::size_t digit = (exp.bit_length() + 3) / 4;
  if (digit == 0) return BigUInt(1);
  BigUInt powers[16];  // powers[d] = base^d mod m for d >= 1
  powers[1] = base.mod(m);
  for (int d = 2; d < 16; ++d) powers[d] = modmul(powers[d - 1], powers[1], m);
  // The top digit is non-zero, so the result starts at its power.
  BigUInt result = powers[exp.nibble(--digit)];
  while (digit-- > 0) {
    for (int s = 0; s < 4; ++s) result = modmul(result, result, m);
    if (const unsigned d = exp.nibble(digit)) {
      result = modmul(result, powers[d], m);
    }
  }
  return result;
}

std::string BigUInt::to_hex() const {
  if (is_zero()) return "0";
  std::string hex = util::to_hex(to_bytes());
  // Strip leading zero nibbles.
  std::size_t first = hex.find_first_not_of('0');
  return hex.substr(first);
}

util::Bytes BigUInt::to_bytes(std::size_t len) const {
  util::Bytes minimal = to_bytes();
  util::ensure(minimal.size() <= len, "BigUInt does not fit requested length");
  util::Bytes out(len - minimal.size(), 0);
  out.insert(out.end(), minimal.begin(), minimal.end());
  return out;
}

util::Bytes BigUInt::to_bytes() const {
  if (is_zero()) return util::Bytes{0};
  util::Bytes out;
  const std::size_t nbytes = (bit_length() + 7) / 8;
  out.resize(nbytes);
  for (std::size_t i = 0; i < nbytes; ++i) {
    const std::size_t byte_from_low = nbytes - 1 - i;
    out[i] = static_cast<std::uint8_t>(
        limbs_[byte_from_low / 4] >> (8 * (byte_from_low % 4)));
  }
  return out;
}

std::uint64_t BigUInt::to_u64() const {
  util::ensure(bit_length() <= 64, "BigUInt does not fit in u64");
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

}  // namespace rvaas::crypto
