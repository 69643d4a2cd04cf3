#pragma once
// Wire framing for the RVaaS TCP front-end. A connection is a stream of
// frames, each `4-byte big-endian length || payload`; the payload is one
// wire message — a session handshake (HELLO/WELCOME) or an INBAND message
// carrying a serialized sdn::Packet whose payload is an existing in-band
// codec envelope (RVQ1/RVS1/RVR1 upstream, RVP1/RVN1/RVA1 downstream). The
// sealed/signed envelopes are reused verbatim, so the socket layer adds
// transport, not trust: a compromised wire still cannot forge or read
// queries any more than a compromised provider could.
//
// Robustness contract (mirrors the codec layer): a length claim above
// kMaxFrameBytes or of zero is rejected BEFORE any allocation proportional
// to it, and the incremental decoder tolerates arbitrary segmentation
// (1-byte reads, split length prefixes) without copying more than one
// frame's worth of buffered bytes.

#include <cstdint>
#include <optional>

#include "controlplane/routing.hpp"
#include "crypto/bignum.hpp"
#include "crypto/sign.hpp"
#include "enclave/attestation.hpp"
#include "sdn/header.hpp"
#include "util/bytes.hpp"

namespace rvaas::net {

/// Hard bound on one frame's payload. Codec envelopes are a few KiB; the
/// headroom covers large TransferSummary replies, never a DoS allocation.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;  // 1 MiB
inline constexpr std::size_t kFrameLengthBytes = 4;

/// Wire message tags (first 4 payload bytes, ByteWriter little-endian like
/// every codec tag; only the frame length prefix is big-endian).
enum class WireTag : std::uint32_t {
  Hello = 0x52564831,    // "RVH1" — client -> server session handshake
  Welcome = 0x52565731,  // "RVW1" — server -> client slot assignment
  Inband = 0x52564631,   // "RVF1" — serialized sdn::Packet, either direction
};

/// Prepends the length prefix. ensure()s the payload fits the frame bound —
/// outbound frames are produced by our own codecs, so an oversize here is a
/// programming error, not input.
util::Bytes encode_frame(std::span<const std::uint8_t> payload);

/// Incremental frame decoder. Feed bytes as they arrive; take() yields
/// complete frame payloads in order. A bogus length claim (0 or >
/// kMaxFrameBytes) poisons the decoder (the stream is unrecoverable — close
/// the connection); no allocation proportional to the claim ever happens.
class FrameDecoder {
 public:
  /// Appends raw stream bytes. Returns false (and sets poisoned()) on a
  /// bogus length claim; the decoder then ignores all further input.
  bool feed(std::span<const std::uint8_t> data);

  /// Next complete frame payload, if any.
  std::optional<util::Bytes> take();

  bool poisoned() const { return poisoned_; }
  /// Bytes currently buffered (tests pin the no-allocation-on-claim bound).
  std::size_t buffered() const { return buffer_.size() + frame_.size(); }

 private:
  bool poisoned_ = false;
  /// Length-prefix accumulator (< 4 bytes) while between frames.
  util::Bytes buffer_;
  /// Current frame body accumulator once the length is known.
  util::Bytes frame_;
  std::size_t expected_ = 0;  ///< 0 = reading the length prefix
  std::vector<util::Bytes> ready_;
};

// --- wire messages ---

/// Session handshake: the connecting client offers its public keys; the
/// server assigns a free host slot and enrolls them (register_client), so
/// the in-band auth/subscribe machinery works unchanged for wire sessions.
struct WireHello {
  std::uint32_t version = 1;
  crypto::VerifyKey client_key;
  crypto::BigUInt client_box_pub;
  /// Preferred host slot; 0 = any free slot.
  std::uint32_t requested_host = 0;

  util::Bytes encode() const;
  static std::optional<WireHello> decode(std::span<const std::uint8_t> frame);
};

enum class WelcomeStatus : std::uint8_t {
  Ok = 0,
  NoFreeSlot,
  BadHello,
  SlotTaken,
};

/// Slot assignment + everything the client needs to run the in-band
/// protocols: its address, its access point, and the RVaaS enclave identity
/// (keys + attestation quote + the IAS root to verify it against — the root
/// rides the wire for tooling convenience; a production client pins it
/// out of band instead of trusting first use).
struct WireWelcome {
  WelcomeStatus status = WelcomeStatus::Ok;
  sdn::HostId host{};
  control::HostAddress address;
  sdn::PortRef access_point{};
  crypto::VerifyKey rvaas_key;
  crypto::BigUInt rvaas_box_pub;
  enclave::Quote quote;
  crypto::VerifyKey ias_root;
  std::string enclave_name;
  std::string enclave_version;

  util::Bytes encode() const;
  static std::optional<WireWelcome> decode(
      std::span<const std::uint8_t> frame);
};

/// Wraps a serialized in-band packet as an INBAND wire frame payload.
util::Bytes encode_inband(const sdn::Packet& packet);
/// Opens an INBAND frame payload; nullopt on tag mismatch or malformed
/// packet bytes (never throws).
std::optional<sdn::Packet> decode_inband(std::span<const std::uint8_t> frame);

/// The tag of a frame payload, if it carries a known one.
std::optional<WireTag> peek_tag(std::span<const std::uint8_t> frame);

}  // namespace rvaas::net
