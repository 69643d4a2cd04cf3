#include "crypto/sign.hpp"

#include "crypto/hmac.hpp"
#include "util/ensure.hpp"

namespace rvaas::crypto {

namespace {

/// Hash-to-scalar: H(tag || data) reduced mod q.
BigUInt hash_to_scalar(std::string_view tag, std::span<const std::uint8_t> a,
                       std::span<const std::uint8_t> b) {
  Sha256 h;
  h.update(tag);
  h.update(a);
  h.update(b);
  const Digest32 d = h.finalize();
  return BigUInt::from_bytes(d).mod(default_group().q);
}

KeyId key_id_of(const BigUInt& y) {
  const Digest32 d = sha256(y.to_bytes());
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return KeyId(v);
}

}  // namespace

util::Bytes Signature::serialize() const {
  util::ByteWriter w;
  w.put_bytes(e.to_bytes());
  w.put_bytes(s.to_bytes());
  return w.take();
}

Signature Signature::deserialize(util::ByteReader& r) {
  Signature sig;
  sig.e = BigUInt::from_bytes(r.get_bytes());
  sig.s = BigUInt::from_bytes(r.get_bytes());
  return sig;
}

VerifyKey::VerifyKey(BigUInt y) : y_(std::move(y)), id_(key_id_of(y_)) {}

bool VerifyKey::verify(std::span<const std::uint8_t> message,
                       const Signature& sig) const {
  const Group& grp = default_group();
  if (y_.is_zero() || sig.e >= grp.q || sig.s >= grp.q) return false;
  // r' = g^s * y^(-e) = g^s * y^(q - e)   (y has order q)
  const BigUInt gs = grp.exp(sig.s);
  const BigUInt ye = BigUInt::modpow(y_, grp.q.sub(sig.e), grp.p);
  const BigUInt r = BigUInt::modmul(gs, ye, grp.p);
  const BigUInt e2 =
      hash_to_scalar("rvaas-schnorr-v1", r.to_bytes(grp.element_bytes()),
                     message);
  return e2 == sig.e;
}

util::Bytes VerifyKey::serialize() const {
  util::ByteWriter w;
  w.put_bytes(y_.to_bytes());
  return w.take();
}

VerifyKey VerifyKey::deserialize(util::ByteReader& r) {
  return VerifyKey(BigUInt::from_bytes(r.get_bytes()));
}

SigningKey SigningKey::generate(util::Rng& rng) {
  const Group& grp = default_group();
  // x in [1, q); y = g^x.
  BigUInt x = BigUInt::random_below(rng, grp.q.sub(BigUInt(1))).add(BigUInt(1));
  VerifyKey vk(grp.exp(x));
  return SigningKey(std::move(x), std::move(vk));
}

Signature SigningKey::sign(std::span<const std::uint8_t> message) const {
  const Group& grp = default_group();
  // Deterministic nonce: k = H(HMAC(x, msg || ctr)) mod q, retried until
  // non-zero (RFC 6979 in spirit).
  const util::Bytes xb = x_.to_bytes(grp.element_bytes());
  BigUInt k;
  std::uint32_t ctr = 0;
  do {
    util::ByteWriter w;
    w.put_raw(message);
    w.put_u32(ctr++);
    k = BigUInt::from_bytes(hmac_sha256(xb, w.data())).mod(grp.q);
  } while (k.is_zero());

  const BigUInt r = grp.exp(k);
  Signature sig;
  sig.e = hash_to_scalar("rvaas-schnorr-v1", r.to_bytes(grp.element_bytes()),
                         message);
  sig.s = BigUInt::modadd(k, BigUInt::modmul(sig.e, x_, grp.q), grp.q);
  return sig;
}

}  // namespace rvaas::crypto
