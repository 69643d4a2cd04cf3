// SHA-256 / HMAC against official vectors; DRBG, Schnorr signatures and
// sealed boxes including tamper cases.

#include <gtest/gtest.h>

#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/group.hpp"
#include "crypto/hmac.hpp"
#include "crypto/seal.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "util/hex.hpp"

namespace rvaas::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_hex;

std::string hex_of(const Digest32& d) { return to_hex(d); }

// --- SHA-256: NIST / FIPS 180-4 vectors ---

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_of(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("ab").update("c");
  EXPECT_EQ(h.finalize(), sha256("abc"));
}

TEST(Sha256, ExactBlockBoundary) {
  const std::string block(64, 'x');
  const std::string two_blocks(128, 'x');
  // Values computed by the same padding rules; check self-consistency between
  // chunked and one-shot hashing at block boundaries.
  Sha256 a;
  a.update(block);
  a.update(block);
  EXPECT_EQ(a.finalize(), sha256(two_blocks));
}

TEST(Sha256, ReuseAfterFinalizeThrows) {
  Sha256 h;
  h.finalize();
  EXPECT_THROW(h.update("x"), util::InvariantViolation);
  Sha256 h2;
  h2.finalize();
  EXPECT_THROW(h2.finalize(), util::InvariantViolation);
}

// --- HMAC-SHA-256: RFC 4231 vectors ---

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes msg = util::to_bytes("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  const Bytes key = util::to_bytes("Jefe");
  const Bytes msg = util::to_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes msg = util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, DigestEqual) {
  const Digest32 a = sha256("x");
  Digest32 b = a;
  EXPECT_TRUE(digest_equal(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// --- DRBG / stream ---

TEST(Keystream, DeterministicAndLengthExact) {
  const Bytes key = util::to_bytes("key");
  const Bytes info = util::to_bytes("info");
  const Bytes a = keystream(key, info, 100);
  const Bytes b = keystream(key, info, 100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_NE(keystream(key, util::to_bytes("other"), 100), a);
}

TEST(Keystream, PrefixProperty) {
  const Bytes key = util::to_bytes("key");
  const Bytes info = util::to_bytes("info");
  const Bytes long_ks = keystream(key, info, 96);
  const Bytes short_ks = keystream(key, info, 40);
  EXPECT_TRUE(std::equal(short_ks.begin(), short_ks.end(), long_ks.begin()));
}

TEST(XorStream, Involutive) {
  const Bytes key = util::to_bytes("key");
  const Bytes nonce = util::to_bytes("nonce");
  const Bytes plain = util::to_bytes("attack at dawn");
  const Bytes cipher = xor_stream(key, nonce, plain);
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(xor_stream(key, nonce, cipher), plain);
}

// --- Group ---

TEST(Group, DefaultGroupStructure) {
  const Group& g = default_group();
  EXPECT_EQ(g.q.mul(BigUInt(2)).add(BigUInt(1)), g.p);
  EXPECT_TRUE(g.is_element(g.g));
  EXPECT_TRUE(g.is_element(g.exp(BigUInt(12345))));
  EXPECT_FALSE(g.is_element(BigUInt{}));
  EXPECT_FALSE(g.is_element(g.p));
  EXPECT_EQ(g.element_bytes(), 32u);
}

TEST(Group, NonResidueRejected) {
  // 2 generates the full group of order 2q in a safe-prime group iff it is a
  // non-residue; either way, p-1 ( = -1 ) has order 2 and is not in the
  // order-q subgroup.
  const Group& g = default_group();
  EXPECT_FALSE(g.is_element(g.p.sub(BigUInt(1))));
}

TEST(Group, ExpMatchesModpow) {
  const Group& g = default_group();
  const BigUInt two_256 = BigUInt(1).shift_left(256);
  std::vector<BigUInt> xs = {BigUInt(0),  BigUInt(1),
                             BigUInt(15), BigUInt(16),
                             BigUInt(17), BigUInt(1).shift_left(255),
                             g.q.sub(BigUInt(1)), two_256.sub(BigUInt(1))};
  util::Rng rng(400);
  for (int i = 0; i < 200; ++i) {
    xs.push_back(BigUInt::random_below(rng, two_256));
  }
  for (const BigUInt& x : xs) {
    EXPECT_EQ(g.exp(x), BigUInt::modpow(g.g, x, g.p)) << "x=" << x.to_hex();
  }
  EXPECT_THROW(g.exp(two_256), util::InvariantViolation);
}

TEST(Group, IsElementMatchesEulerCriterion) {
  const Group& g = default_group();
  const auto euler = [&g](const BigUInt& e) {
    return !e.is_zero() && e < g.p &&
           BigUInt::modpow(e, g.q, g.p) == BigUInt(1);
  };
  std::vector<BigUInt> es = {BigUInt(0), BigUInt(1), BigUInt(2),
                             BigUInt(4), g.g,        g.p.sub(BigUInt(1)),
                             g.p,        g.p.add(BigUInt(1))};
  util::Rng rng(401);
  const BigUInt two_p = g.p.add(g.p);
  for (int i = 0; i < 200; ++i) {
    es.push_back(BigUInt::random_below(rng, two_p));
  }
  int accepted = 0;
  for (const BigUInt& e : es) {
    const bool expected = euler(e);
    EXPECT_EQ(g.is_element(e), expected) << "e=" << e.to_hex();
    accepted += expected;
  }
  // Both answers occur: about half of [1, p) are quadratic residues.
  EXPECT_GT(accepted, 20);
  EXPECT_LT(accepted, static_cast<int>(es.size()) - 20);
}

// --- Signatures ---

TEST(Schnorr, SignVerifyRoundTrip) {
  util::Rng rng(100);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("verify my routes");
  const Signature sig = sk.sign(msg);
  EXPECT_TRUE(sk.verify_key().verify(msg, sig));
}

TEST(Schnorr, RejectsWrongMessage) {
  util::Rng rng(101);
  const SigningKey sk = SigningKey::generate(rng);
  const Signature sig = sk.sign(util::to_bytes("msg-a"));
  EXPECT_FALSE(sk.verify_key().verify(util::to_bytes("msg-b"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  util::Rng rng(102);
  const SigningKey a = SigningKey::generate(rng);
  const SigningKey b = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  EXPECT_FALSE(b.verify_key().verify(msg, a.sign(msg)));
}

TEST(Schnorr, RejectsTamperedSignature) {
  util::Rng rng(103);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  Signature sig = sk.sign(msg);
  sig.s = sig.s.add(BigUInt(1)).mod(default_group().q);
  EXPECT_FALSE(sk.verify_key().verify(msg, sig));
}

TEST(Schnorr, DeterministicSignatures) {
  util::Rng rng(104);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  const Signature s1 = sk.sign(msg);
  const Signature s2 = sk.sign(msg);
  EXPECT_EQ(s1.e, s2.e);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Schnorr, SerializationRoundTrip) {
  util::Rng rng(105);
  const SigningKey sk = SigningKey::generate(rng);
  const Bytes msg = util::to_bytes("msg");
  const Signature sig = sk.sign(msg);

  util::ByteReader sr(sig.serialize());
  const Signature sig2 = Signature::deserialize(sr);
  EXPECT_TRUE(sk.verify_key().verify(msg, sig2));

  util::ByteReader kr(sk.verify_key().serialize());
  const VerifyKey vk2 = VerifyKey::deserialize(kr);
  EXPECT_EQ(vk2.id(), sk.verify_key().id());
  EXPECT_TRUE(vk2.verify(msg, sig));
}

TEST(Schnorr, DistinctKeysGetDistinctIds) {
  util::Rng rng(106);
  const SigningKey a = SigningKey::generate(rng);
  const SigningKey b = SigningKey::generate(rng);
  EXPECT_NE(a.verify_key().id(), b.verify_key().id());
}

// --- Sealed boxes ---

TEST(SealedBox, SealOpenRoundTrip) {
  util::Rng rng(200);
  const BoxOpener opener = BoxOpener::generate(rng);
  const Bytes plain = util::to_bytes("which endpoints can reach me?");
  const SealedBox box = opener.sealer().seal(rng, plain);
  const auto out = opener.open(box);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST(SealedBox, WrongRecipientCannotOpen) {
  util::Rng rng(201);
  const BoxOpener alice = BoxOpener::generate(rng);
  const BoxOpener eve = BoxOpener::generate(rng);
  const SealedBox box = alice.sealer().seal(rng, util::to_bytes("secret"));
  EXPECT_FALSE(eve.open(box).has_value());
}

TEST(SealedBox, TamperedCipherRejected) {
  util::Rng rng(202);
  const BoxOpener opener = BoxOpener::generate(rng);
  SealedBox box = opener.sealer().seal(rng, util::to_bytes("secret"));
  box.cipher[0] ^= 1;
  EXPECT_FALSE(opener.open(box).has_value());
}

TEST(SealedBox, TamperedEphemeralRejected) {
  util::Rng rng(203);
  const BoxOpener opener = BoxOpener::generate(rng);
  SealedBox box = opener.sealer().seal(rng, util::to_bytes("secret"));
  box.ephemeral = box.ephemeral.add(BigUInt(1));
  EXPECT_FALSE(opener.open(box).has_value());
}

TEST(SealedBox, SerializationRoundTrip) {
  util::Rng rng(204);
  const BoxOpener opener = BoxOpener::generate(rng);
  const Bytes plain = util::to_bytes("payload");
  const SealedBox box = opener.sealer().seal(rng, plain);
  util::ByteReader r(box.serialize());
  const SealedBox box2 = SealedBox::deserialize(r);
  const auto out = opener.open(box2);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

TEST(SealedBox, EmptyPlaintextSupported) {
  util::Rng rng(205);
  const BoxOpener opener = BoxOpener::generate(rng);
  const SealedBox box = opener.sealer().seal(rng, Bytes{});
  const auto out = opener.open(box);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(SealedBox, FreshEphemeralPerSeal) {
  util::Rng rng(206);
  const BoxOpener opener = BoxOpener::generate(rng);
  const Bytes plain = util::to_bytes("same plaintext");
  const SealedBox a = opener.sealer().seal(rng, plain);
  const SealedBox b = opener.sealer().seal(rng, plain);
  EXPECT_NE(a.ephemeral, b.ephemeral);
  EXPECT_NE(a.cipher, b.cipher);
}

// --- Additional known-answer vectors ---

// NIST CAVP SHA-256 short-message vectors (byte-oriented).
TEST(Sha256, NistOneByte) {
  const Bytes msg = from_hex("bd");
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(hex_of(h.finalize()),
            "68325720aabd7c82f30f554b313d0570c95accbb7dc4b5aae11204c08ffe732b");
}

TEST(Sha256, NistFourBytes) {
  const Bytes msg = from_hex("c98c8e55");
  Sha256 h;
  h.update(msg);
  EXPECT_EQ(hex_of(h.finalize()),
            "7abc22c0ae5af26ce93dbb94433a0e0b2e119d014f8e7f65bd56c61ccccd9504");
}

// FIPS 180-4 appendix vector: the 448-bit two-block-boundary message "abc..."
// extended; here the 896-bit variant from SHA-2 test suites.
TEST(Sha256, FourBlockBoundaryMessage) {
  const std::string msg =
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
  EXPECT_EQ(hex_of(sha256(msg)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(HmacSha256, Rfc4231Case4) {
  Bytes key(25);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i + 1);  // 0x01..0x19
  }
  const Bytes msg(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case7LongKeyLongData) {
  const Bytes key(131, 0xaa);
  const Bytes msg = util::to_bytes(
      "This is a test using a larger than block-size key and a larger than "
      "block-size data. The key needs to be hashed before being used by the "
      "HMAC algorithm.");
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

// --- Known answers for keys, signatures and sealed boxes ---
// Produced by plain square-and-multiply exponentiation with the e^q subgroup
// check; the comb, the windowed modpow and the Jacobi check must reproduce
// every byte.

TEST(Schnorr, KnownAnswerKeyAndSignature) {
  util::Rng rng(700);
  const SigningKey sk = SigningKey::generate(rng);
  EXPECT_EQ(to_hex(sk.verify_key().serialize()),
            "200000003fe83bf647a0a7fa3d0416aa383ad723132a5c5d115b2ac8adb8e530"
            "5882a72b");
  const Bytes msg = util::to_bytes("rvaas known answer");
  const Signature sig = sk.sign(msg);
  EXPECT_EQ(to_hex(sig.serialize()),
            "200000002c133b00298af10929602b9e6e413b7678f206dac0eceeea0224ab45"
            "9c9bdf66200000003e405c8e06923418a5098b80a6c2d2272a9bc3fda206a9e0"
            "4e90f61252178e47");
  EXPECT_TRUE(sk.verify_key().verify(msg, sig));
}

TEST(SealedBox, KnownAnswerPublicElementAndBox) {
  util::Rng rng(701);
  const BoxOpener opener = BoxOpener::generate(rng);
  EXPECT_EQ(opener.public_element().to_hex(),
            "56c29de4ddb0a28a3c4000d7456f2fc263a69b91c806058ae57d785c5b46406c");
  const Bytes plain = util::to_bytes("sealed known answer");
  const SealedBox box = opener.sealer().seal(rng, plain);
  EXPECT_EQ(to_hex(box.serialize()),
            "2000000044b4ad693a62d4df31a833b6ba8610f33befc1dd9dd4bc9ef2120603"
            "22cc6cd210000000e6fa7576b6e60c7738bd93a5c972b80e13000000d017e73f"
            "cf2dd926ba555b58e286fe04bfa67ccbfd56951448290f0106575df2af1b85c5"
            "acb61d329a5ed57fa792784c55044d");
  const auto out = opener.open(box);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, plain);
}

// --- Randomized round-trips across message shapes ---

TEST(Schnorr, SignVerifyRoundTripsAcrossSizes) {
  util::Rng rng(300);
  const SigningKey sk = SigningKey::generate(rng);
  for (const std::size_t len : {0u, 1u, 31u, 32u, 33u, 64u, 255u, 1024u}) {
    Bytes msg(len);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u64());
    const Signature sig = sk.sign(msg);
    EXPECT_TRUE(sk.verify_key().verify(msg, sig)) << "len=" << len;
    if (!msg.empty()) {
      msg[len / 2] ^= 0x40;
      EXPECT_FALSE(sk.verify_key().verify(msg, sig)) << "len=" << len;
    }
  }
}

TEST(SealedBox, SealOpenRoundTripsAcrossSizes) {
  util::Rng rng(301);
  const BoxOpener opener = BoxOpener::generate(rng);
  for (const std::size_t len : {1u, 16u, 63u, 64u, 65u, 512u, 4096u}) {
    Bytes plain(len);
    for (auto& b : plain) b = static_cast<std::uint8_t>(rng.next_u64());
    const SealedBox box = opener.sealer().seal(rng, plain);
    const auto out = opener.open(box);
    ASSERT_TRUE(out.has_value()) << "len=" << len;
    EXPECT_EQ(*out, plain) << "len=" << len;
  }
}

}  // namespace
}  // namespace rvaas::crypto
