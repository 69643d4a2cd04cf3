#include "rvaas/client.hpp"

#include "crypto/hmac.hpp"
#include "util/ensure.hpp"

namespace rvaas::core {

ClientSession::ClientSession(util::Rng rng)
    : rng_(std::move(rng)),
      key_(crypto::SigningKey::generate(rng_)),
      box_(crypto::BoxOpener::generate(rng_)) {}

void ClientSession::bind(sdn::HostId host,
                         const control::HostAddress& address) {
  host_ = host;
  address_ = address;
  next_request_id_ = (static_cast<std::uint64_t>(host.value) << 32) | 1;
}

void ClientSession::trust_rvaas(crypto::VerifyKey rvaas_key,
                                crypto::BigUInt rvaas_box_pub) {
  rvaas_key_ = std::move(rvaas_key);
  rvaas_box_pub_ = std::move(rvaas_box_pub);
}

bool ClientSession::verify_attestation(const enclave::Quote& quote,
                                       const crypto::VerifyKey& ias_root,
                                       const enclave::Measurement& expected,
                                       const crypto::VerifyKey& rvaas_key,
                                       const crypto::BigUInt& rvaas_box_pub) {
  ++stats_.crypto_ops;
  if (!enclave::AttestationService::verify(quote, ias_root, expected)) {
    return false;
  }
  // The quote's report data must bind exactly the keys we are about to pin.
  const crypto::Digest32 binding =
      enclave::bind_keys(rvaas_key, rvaas_box_pub);
  if (!crypto::digest_equal(binding, quote.report.report_data)) return false;
  trust_rvaas(rvaas_key, rvaas_box_pub);
  return true;
}

void ClientSession::require_trust() const {
  util::ensure(rvaas_box_pub_.has_value(),
               "client has not established trust in RVaaS");
}

ClientSession::Request ClientSession::seal_query(const Query& query) {
  require_trust();
  QueryRequest request;
  request.request_id = next_request_id_++;
  request.client = host_;
  request.query = query;

  ++stats_.queries_sent;
  ++stats_.crypto_ops;  // seal
  outstanding_.insert(request.request_id);
  return Request{request.request_id,
                 inband::make_request_packet(address_, request,
                                             *rvaas_box_pub_, rng_)};
}

void ClientSession::expire(std::uint64_t request_id) {
  if (outstanding_.erase(request_id) != 0) ++stats_.timeouts;
}

sdn::Packet ClientSession::seal_subscribe(const SubscribeRequest& request) {
  stats_.crypto_ops += 2;  // sign + seal
  return inband::make_subscribe_packet(address_, request, key_,
                                       *rvaas_box_pub_, rng_);
}

ClientSession::Request ClientSession::subscribe(const Property& property,
                                                NotifyPolicy policy) {
  require_trust();
  SubscribeRequest request;
  request.subscription_id = next_request_id_++;
  request.client = host_;
  request.policy = policy;
  request.property = property;
  // The request-id counter doubles as the per-client freshness clock (it
  // only ever advances).
  request.freshness = next_request_id_++;

  ++stats_.subscribes_sent;
  subscriptions_[request.subscription_id] = Subscription{property, 0};
  return Request{request.subscription_id, seal_subscribe(request)};
}

std::optional<sdn::Packet> ClientSession::unsubscribe(
    std::uint64_t subscription_id) {
  if (subscriptions_.erase(subscription_id) == 0) return std::nullopt;
  SubscribeRequest request;
  request.subscription_id = subscription_id;
  request.client = host_;
  request.unsubscribe = true;
  request.freshness = next_request_id_++;

  ++stats_.unsubscribes_sent;
  return seal_subscribe(request);
}

ClientSession::Received ClientSession::receive(const sdn::Packet& packet) {
  Received in;
  const auto tag = inband::classify(packet);
  if (!tag || !rvaas_key_) return in;

  if (*tag == inband::Tag::AuthRequest) {
    ++stats_.crypto_ops;  // verify
    const auto req = inband::verify_auth_request(packet, *rvaas_key_);
    if (!req) return in;
    // Answer with a signed publication of our identity.
    inband::AuthReply reply;
    reply.request_id = req->request_id;
    reply.nonce = req->nonce;
    reply.client = host_;
    ++stats_.auth_requests_answered;
    ++stats_.crypto_ops;  // sign
    in.auth_reply = inband::make_auth_reply(address_, reply, key_);
    return in;
  }

  if (*tag == inband::Tag::Notify) {
    stats_.crypto_ops += 2;  // open + verify
    const auto opened = inband::open_notify(packet, box_, *rvaas_key_);
    if (!opened) {
      ++stats_.bad_notifications;
      return in;
    }
    const Notification& n = opened->notification;
    const auto it = subscriptions_.find(n.subscription_id);
    if (it == subscriptions_.end()) return in;  // unsubscribed / never ours
    Subscription& sub = it->second;
    if (!opened->signature_ok || n.sequence <= sub.last_sequence ||
        n.property_fingerprint != sub.property.fingerprint()) {
      // Forged, tampered, replayed/reordered, or answering a different
      // property than the one subscribed: never surface it.
      ++stats_.bad_notifications;
      return in;
    }
    sub.last_sequence = n.sequence;
    ++stats_.notifications_received;
    switch (n.kind) {
      case NotificationKind::ViolationAlert:
        ++stats_.alerts_received;
        break;
      case NotificationKind::AllClear:
        ++stats_.all_clears_received;
        break;
      case NotificationKind::VerificationDegraded:
        // Not a verdict: the footprint lost a switch and RVaaS is telling
        // us it cannot verify freshly right now. A normal push resumes on
        // heal (commit() owes it).
        ++stats_.degraded_received;
        break;
    }

    Event event;
    event.subscription_id = n.subscription_id;
    event.signature_ok = opened->signature_ok;
    event.kind = n.kind;
    event.sequence = n.sequence;
    event.epoch = n.epoch;
    event.reply = n.reply;
    event.verdict = evaluate_reply(n.reply, sub.property.expect);
    in.event = std::move(event);
    return in;
  }

  if (*tag == inband::Tag::Reply) {
    stats_.crypto_ops += 2;  // open + verify
    const auto opened = inband::open_reply(packet, box_, *rvaas_key_);
    if (!opened) {
      ++stats_.bad_replies;
      return in;
    }
    if (outstanding_.erase(opened->reply.request_id) == 0) return in;
    ++stats_.replies_received;
    if (!opened->signature_ok) ++stats_.bad_replies;

    Outcome outcome;
    outcome.signature_ok = opened->signature_ok;
    // Fail-stale: surface a freshness breach, never absorb it silently.
    outcome.stale = max_staleness_ > 0 &&
                    (!opened->reply.freshness.unreachable.empty() ||
                     opened->reply.freshness.max_staleness > max_staleness_);
    outcome.reply = opened->reply;
    in.answer = std::move(outcome);
  }
  return in;
}

ClientAgent::ClientAgent(sdn::HostId host, sdn::Network& net,
                         const control::HostAddress& address, util::Rng rng)
    : net_(&net), session_(std::move(rng)) {
  session_.bind(host, address);
  const auto ports = net.topology().host_ports(host);
  util::ensure(!ports.empty(), "client host has no access point");
  access_point_ = ports.front();
  net.register_host_receiver(host, [this](sdn::PortRef at,
                                          const sdn::Packet& packet) {
    on_packet(at, packet);
  });
}

std::uint64_t ClientAgent::send_query(const Query& query, Callback callback,
                                      sim::Time timeout) {
  const ClientSession::Request request = session_.seal_query(query);
  net_->host_send(host(), access_point_, request.packet);

  const std::uint64_t id = request.id;
  const sim::EventId timer = net_->loop().schedule_after(timeout, [this, id] {
    auto node = pending_.extract(id);
    if (node.empty()) return;
    session_.expire(id);
    Outcome outcome;
    outcome.timed_out = true;  // suppression / loss indicator
    node.mapped().callback(outcome);
  });
  pending_.emplace(id, PendingQuery{std::move(callback), timer});
  return id;
}

std::uint64_t ClientAgent::subscribe(const Property& property,
                                     MonitorCallback callback,
                                     NotifyPolicy policy) {
  const ClientSession::Request request = session_.subscribe(property, policy);
  net_->host_send(host(), access_point_, request.packet);
  callbacks_[request.id] = std::move(callback);
  return request.id;
}

void ClientAgent::unsubscribe(std::uint64_t subscription_id) {
  callbacks_.erase(subscription_id);
  if (const auto packet = session_.unsubscribe(subscription_id)) {
    net_->host_send(host(), access_point_, *packet);
  }
}

void ClientAgent::on_packet(sdn::PortRef at, const sdn::Packet& packet) {
  ClientSession::Received in = session_.receive(packet);
  if (in.auth_reply) net_->host_send(host(), at, *in.auth_reply);

  if (in.answer) {
    auto node = pending_.extract(in.answer->reply->request_id);
    if (node.empty()) return;
    net_->loop().cancel(node.mapped().timeout);
    node.mapped().callback(*in.answer);
  }

  if (in.event) {
    // Copy out: the callback may unsubscribe (dropping its entry) from
    // inside.
    const MonitorCallback callback = callbacks_.at(in.event->subscription_id);
    callback(*in.event);
  }
}

}  // namespace rvaas::core
