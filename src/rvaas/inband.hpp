#pragma once
// In-band protocol codecs (Figures 1 and 2 of the paper):
//
//   client --(magic UDP, sealed QueryRequest)--> ingress switch --packet-in-->
//   RVaaS --packet-out--> (signed AuthRequest at each candidate endpoint)
//   endpoint --(magic UDP, signed AuthReply)--> packet-in --> RVaaS
//   RVaaS --packet-out--> (signed+sealed QueryReply at the requester)
//
// Requests are sealed to the enclave (the provider cannot read queries);
// replies are signed by it (the provider cannot forge answers).

#include <variant>

#include "controlplane/routing.hpp"
#include "enclave/enclave.hpp"
#include "rvaas/query.hpp"
#include "sdn/header.hpp"

namespace rvaas::core::inband {

enum class Tag : std::uint32_t {
  Request = 0x52565131,      // "RVQ1"
  AuthRequest = 0x52564131,  // "RVA1"
  AuthReply = 0x52565231,    // "RVR1"
  Reply = 0x52565031,        // "RVP1"
  Subscribe = 0x52565331,    // "RVS1" — standing subscription (un)register
  Notify = 0x52564e31,       // "RVN1" — pushed ViolationAlert / AllClear
};

/// Classifies an in-band packet by UDP port + payload tag.
std::optional<Tag> classify(const sdn::Packet& packet);

// --- client query request (sealed to the enclave) ---

sdn::Packet make_request_packet(const control::HostAddress& src,
                                const QueryRequest& request,
                                const crypto::BigUInt& rvaas_box_pub,
                                util::Rng& rng);

/// Opens a request inside the enclave; nullopt on tamper/garbage.
std::optional<QueryRequest> open_request(const sdn::Packet& packet,
                                         const enclave::Enclave& enclave);

// --- authentication request (RVaaS -> candidate endpoint, signed) ---

struct AuthRequest {
  std::uint64_t request_id = 0;
  std::uint64_t nonce = 0;
  sdn::PortRef target{};  ///< the access point being probed

  util::Bytes signing_payload() const;
};

sdn::Packet make_auth_request(const AuthRequest& req,
                              const enclave::Enclave& enclave);

/// Client-side verification against the trusted RVaaS key.
std::optional<AuthRequest> verify_auth_request(
    const sdn::Packet& packet, const crypto::VerifyKey& rvaas_key);

// --- authentication reply (endpoint -> RVaaS, signed by the client) ---

struct AuthReply {
  std::uint64_t request_id = 0;
  std::uint64_t nonce = 0;
  sdn::HostId client{};

  util::Bytes signing_payload() const;
};

sdn::Packet make_auth_reply(const control::HostAddress& src,
                            const AuthReply& reply,
                            const crypto::SigningKey& client_key);

/// Parses without verifying; the controller checks the signature against its
/// client registry (it must first learn the claimed identity).
std::optional<std::pair<AuthReply, crypto::Signature>> parse_auth_reply(
    const sdn::Packet& packet);

// --- final query reply (RVaaS -> client, signed then sealed) ---

sdn::Packet make_reply_packet(const QueryReply& reply,
                              const enclave::Enclave& enclave,
                              const crypto::BigUInt& client_box_pub,
                              util::Rng& rng);

struct OpenedReply {
  QueryReply reply;
  bool signature_ok = false;
};

std::optional<OpenedReply> open_reply(const sdn::Packet& packet,
                                      const crypto::BoxOpener& client_box,
                                      const crypto::VerifyKey& rvaas_key);

// --- subscription management (client -> RVaaS, signed then sealed) ---
// Rides the request port (the magic-header intercept already punts it to
// the controller); the provider cannot tell a subscription from a query.
// The client signature travels inside the box: (un)subscribing mutates
// controller state, so the enclave verifies it against the enrollment
// registry before acting (see SubscribeRequest in rvaas/query.hpp).

sdn::Packet make_subscribe_packet(const control::HostAddress& src,
                                  const SubscribeRequest& request,
                                  const crypto::SigningKey& client_key,
                                  const crypto::BigUInt& rvaas_box_pub,
                                  util::Rng& rng);

/// Opens a subscribe/unsubscribe inside the enclave; nullopt on
/// tamper/garbage. The signature is returned for the controller to check
/// against the claimed client's enrolled key (like parse_auth_reply, the
/// identity must be read before the right key is known).
std::optional<std::pair<SubscribeRequest, crypto::Signature>> open_subscribe(
    const sdn::Packet& packet, const enclave::Enclave& enclave);

// --- push notification (RVaaS -> client, signed then sealed) ---

sdn::Packet make_notify_packet(const Notification& notification,
                               const enclave::Enclave& enclave,
                               const crypto::BigUInt& client_box_pub,
                               util::Rng& rng);

struct OpenedNotification {
  Notification notification;
  bool signature_ok = false;
};

std::optional<OpenedNotification> open_notify(
    const sdn::Packet& packet, const crypto::BoxOpener& client_box,
    const crypto::VerifyKey& rvaas_key);

// --- everything RVaaS sends ---

/// One message leaving RVaaS by packet-out at an access point: the reply at
/// the requester, a push at the subscriber, or an auth request at a probed
/// endpoint.
using Outbound = std::variant<QueryReply, Notification, AuthRequest>;

/// The packet that carries `out`: make_reply_packet, make_notify_packet or
/// make_auth_request. An auth request is signed only, so it reads neither
/// `client_box_pub` nor `rng`.
sdn::Packet make_outbound_packet(const Outbound& out,
                                 const enclave::Enclave& enclave,
                                 const crypto::BigUInt& client_box_pub,
                                 util::Rng& rng);

}  // namespace rvaas::core::inband
