#pragma once
// The tenant's client. ClientSession is its protocol, free of any
// transport: it (a) seals queries to the enclave and signs + seals
// (un)subscribes, (b) answers RVaaS authentication requests with signed
// replies ("clients run a software which responds to our authentication
// requests, in user space", §IV.A.3), and (c) verifies attestation quotes,
// reply and push signatures, and re-checks pushed verdicts locally.
// ClientAgent moves its packets in-band from an access point and (d)
// detects query suppression by timeout; net::WireClient moves them over TCP.

#include <functional>
#include <set>

#include "enclave/attestation.hpp"
#include "rvaas/inband.hpp"
#include "sdn/network.hpp"

namespace rvaas::core {

class ClientSession {
 public:
  /// Draws the signing key, then the sealing key, from `rng`, which then
  /// seals every outbound request (seeded identities rely on this order).
  explicit ClientSession(util::Rng rng);

  const crypto::VerifyKey& verify_key() const { return key_.verify_key(); }
  const crypto::BigUInt& box_public() const { return box_.public_element(); }

  /// Takes on a host identity. Request ids restart at (host << 32) | 1; the
  /// counter doubles as the per-client freshness clock of (un)subscribes.
  void bind(sdn::HostId host, const control::HostAddress& address);
  sdn::HostId host() const { return host_; }

  /// Pin the RVaaS service keys (normally after a verified attestation).
  void trust_rvaas(crypto::VerifyKey rvaas_key, crypto::BigUInt rvaas_box_pub);

  /// Verifies an attestation quote: authentic (signed by `ias_root`), the
  /// expected measurement, and report data binding the given keys. On
  /// success the keys are pinned (trust_rvaas).
  bool verify_attestation(const enclave::Quote& quote,
                          const crypto::VerifyKey& ias_root,
                          const enclave::Measurement& expected,
                          const crypto::VerifyKey& rvaas_key,
                          const crypto::BigUInt& rvaas_box_pub);

  struct Outcome {
    bool timed_out = false;
    bool signature_ok = false;
    /// The reply's freshness section breaches the client's max-staleness
    /// bound (set_max_staleness): the verdict is fail-stale, not fresh.
    bool stale = false;
    std::optional<QueryReply> reply;
  };

  /// Client-side fail-stale knob for one-shot queries: with a bound set
  /// (ns; 0 = off), Outcome.stale flags any reply whose freshness section
  /// reports an unreachable footprint switch or staleness above the bound.
  /// (Subscriptions carry the bound in Expectation::max_staleness instead,
  /// so it is part of the verified property.)
  void set_max_staleness(std::uint64_t bound) { max_staleness_ = bound; }

  /// One verified push from the RVaaS monitor.
  struct Event {
    std::uint64_t subscription_id = 0;
    bool signature_ok = false;
    NotificationKind kind = NotificationKind::AllClear;
    std::uint64_t sequence = 0;
    std::uint64_t epoch = 0;
    QueryReply reply;
    /// Client-side re-check of the pushed reply against the subscribed
    /// expectation (trust, but verify the verdict locally).
    Verdict verdict;
  };

  /// An outbound request: its id and the in-band packet that carries it.
  struct Request {
    std::uint64_t id = 0;
    sdn::Packet packet;
  };

  // seal_query() and subscribe() throw util::InvariantViolation until RVaaS
  // keys are pinned, before drawing an id or recording anything.

  /// Seals a query to the enclave. Its id stays outstanding until the reply
  /// arrives or expire() gives up on it.
  Request seal_query(const Query& query);
  /// Gives up on an outstanding query (suppression or loss) and counts a
  /// timeout; a no-op once it is answered or expired.
  void expire(std::uint64_t request_id);

  /// Signs and seals a standing subscription; the request id is the
  /// subscription id.
  Request subscribe(const Property& property, NotifyPolicy policy);
  /// Signs and seals an unsubscribe and forgets the subscription at once,
  /// so a push already in flight is dropped. Nothing to send (nullopt) for
  /// an id that is not a live subscription.
  std::optional<sdn::Packet> unsubscribe(std::uint64_t subscription_id);

  /// One inbound packet, verified: at most one member is set, and none for
  /// anything forged, replayed, unsolicited or not RVaaS in-band traffic.
  struct Received {
    /// Signed answer to an auth request, to leave by the port it came in on.
    std::optional<sdn::Packet> auth_reply;
    /// Reply to an outstanding query; reply->request_id names the query.
    std::optional<Outcome> answer;
    /// Push for a live subscription that passed the signature, replay and
    /// property-fingerprint guards.
    std::optional<Event> event;
  };
  Received receive(const sdn::Packet& packet);

  struct Stats {
    std::uint64_t queries_sent = 0;
    std::uint64_t replies_received = 0;
    std::uint64_t bad_replies = 0;  ///< undecryptable / bad signature
    std::uint64_t timeouts = 0;
    std::uint64_t auth_requests_answered = 0;
    std::uint64_t crypto_ops = 0;  ///< asymmetric operations (E9)

    // Push verification:
    std::uint64_t subscribes_sent = 0;
    std::uint64_t unsubscribes_sent = 0;
    std::uint64_t notifications_received = 0;
    std::uint64_t bad_notifications = 0;  ///< bad box/signature or replayed
    std::uint64_t alerts_received = 0;
    std::uint64_t all_clears_received = 0;
    std::uint64_t degraded_received = 0;  ///< VerificationDegraded pushes
  };
  const Stats& stats() const { return stats_; }

 private:
  void require_trust() const;
  sdn::Packet seal_subscribe(const SubscribeRequest& request);

  util::Rng rng_;
  crypto::SigningKey key_;
  crypto::BoxOpener box_;
  sdn::HostId host_{};
  control::HostAddress address_;

  std::optional<crypto::VerifyKey> rvaas_key_;
  std::optional<crypto::BigUInt> rvaas_box_pub_;

  struct Subscription {
    Property property;
    std::uint64_t last_sequence = 0;  ///< replay guard
  };
  std::set<std::uint64_t> outstanding_;  ///< query ids awaiting a reply
  std::map<std::uint64_t, Subscription> subscriptions_;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t max_staleness_ = 0;  ///< 0 = no fail-stale bound
  Stats stats_;
};

class ClientAgent {
 public:
  ClientAgent(sdn::HostId host, sdn::Network& net,
              const control::HostAddress& address, util::Rng rng);

  // The network holds a callback into this object; pin it in place.
  ClientAgent(const ClientAgent&) = delete;
  ClientAgent& operator=(const ClientAgent&) = delete;

  sdn::HostId host() const { return session_.host(); }
  const crypto::VerifyKey& verify_key() const { return session_.verify_key(); }
  const crypto::BigUInt& box_public() const { return session_.box_public(); }

  /// See ClientSession::verify_attestation.
  bool verify_attestation(const enclave::Quote& quote,
                          const crypto::VerifyKey& ias_root,
                          const enclave::Measurement& expected,
                          const crypto::VerifyKey& rvaas_key,
                          const crypto::BigUInt& rvaas_box_pub) {
    return session_.verify_attestation(quote, ias_root, expected, rvaas_key,
                                       rvaas_box_pub);
  }

  using Outcome = ClientSession::Outcome;
  using Callback = std::function<void(const Outcome&)>;

  /// Sends a query in-band; the callback fires on reply or timeout.
  /// Returns the request id.
  std::uint64_t send_query(const Query& query, Callback callback,
                           sim::Time timeout = 50 * sim::kMillisecond);

  /// See ClientSession::set_max_staleness.
  void set_max_staleness(std::uint64_t bound) {
    session_.set_max_staleness(bound);
  }

  using MonitorEvent = ClientSession::Event;
  using MonitorCallback = std::function<void(const MonitorEvent&)>;

  /// Registers a standing subscription: RVaaS re-verifies the property on
  /// every configuration change it observes and pushes signed
  /// ViolationAlert/AllClear notifications; the first push is the baseline
  /// state (the subscribe acknowledgement). Returns the subscription id.
  std::uint64_t subscribe(const Property& property, MonitorCallback callback,
                          NotifyPolicy policy = NotifyPolicy::VerdictEdges);

  /// Stops a subscription (fire-and-forget; the local callback is dropped
  /// immediately, so a notification already in flight is ignored).
  void unsubscribe(std::uint64_t subscription_id);

  using Stats = ClientSession::Stats;
  const Stats& stats() const { return session_.stats(); }

 private:
  void on_packet(sdn::PortRef at, const sdn::Packet& packet);

  sdn::Network* net_;
  sdn::PortRef access_point_;
  ClientSession session_;

  struct PendingQuery {
    Callback callback;
    sim::EventId timeout{};
  };
  std::map<std::uint64_t, PendingQuery> pending_;
  std::map<std::uint64_t, MonitorCallback> callbacks_;
};

}  // namespace rvaas::core
