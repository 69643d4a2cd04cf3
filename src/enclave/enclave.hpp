#pragma once
// Simulated trusted-execution environment (stands in for Intel SGX; see
// docs/ARCHITECTURE.md, "Layer map" and the paper cross-reference). Models
// exactly the properties the paper relies on:
//
//  * Measurement: a stable hash of the code identity, so a relying party can
//    tell *which* program is running ("the provider makes sure that the
//    correct RVaaS application is operating on the server, and not a fake
//    one", §IV.A).
//  * Sealed storage: data bound to a measurement; a different program (or a
//    tampered one) cannot unseal it.
//
// Attestation quotes over measurements live in enclave/attestation.hpp.

#include <optional>
#include <string>
#include <string_view>

#include "crypto/seal.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "util/bytes.hpp"

namespace rvaas::enclave {

/// SHA-256 of the enclave's code identity (name + version + build salt).
using Measurement = crypto::Digest32;

Measurement measure_code(std::string_view name, std::string_view version);

/// A simulated enclave instance: code identity plus an in-enclave signing key
/// whose public half is bound to the measurement through attestation.
class Enclave {
 public:
  Enclave(std::string name, std::string version, util::Rng& rng);

  const std::string& name() const { return name_; }
  const std::string& version() const { return version_; }
  const Measurement& measurement() const { return measurement_; }

  /// Public signing identity of this enclave instance.
  const crypto::VerifyKey& verify_key() const { return key_.verify_key(); }
  /// Public DH element for sealing messages *to* the enclave.
  const crypto::BigUInt& box_public() const { return box_.public_element(); }

  /// Signs with the in-enclave key (only enclave code can reach this).
  crypto::Signature sign(std::span<const std::uint8_t> message) const {
    return key_.sign(message);
  }

  /// Opens a box sealed to this enclave's public element.
  std::optional<util::Bytes> open(const crypto::SealedBox& box) const {
    return box_.open(box);
  }

 private:
  std::string name_;
  std::string version_;
  Measurement measurement_;
  crypto::SigningKey key_;
  crypto::BoxOpener box_;
};

/// Measurement-bound sealed storage (simulates SGX sealing to MRENCLAVE).
/// The platform secret models the CPU fuse key: common to the machine,
/// inaccessible to software.
class SealedStorage {
 public:
  explicit SealedStorage(util::Bytes platform_secret)
      : platform_secret_(std::move(platform_secret)) {}

  util::Bytes seal(const Measurement& m, std::span<const std::uint8_t> data) const;

  /// Returns nullopt if `m` differs from the sealing measurement or the blob
  /// was tampered with.
  std::optional<util::Bytes> unseal(const Measurement& m,
                                    std::span<const std::uint8_t> blob) const;

 private:
  util::Bytes sealing_key(const Measurement& m) const;

  util::Bytes platform_secret_;
};

}  // namespace rvaas::enclave
