#include "rvaas/inband.hpp"

namespace rvaas::core::inband {

namespace {

sdn::Packet base_udp_packet(std::uint64_t src_eth, std::uint64_t src_ip,
                            std::uint64_t dst_port) {
  sdn::Packet p;
  p.hdr.eth_type = sdn::kEthTypeIpv4;
  p.hdr.ip_proto = sdn::kIpProtoUdp;
  p.hdr.eth_src = src_eth;
  p.hdr.ip_src = src_ip;
  p.hdr.l4_dst = dst_port;
  return p;
}

/// Sign, then seal: the signature travels inside the box, hidden from the
/// provider along with the content, so the provider can neither read nor
/// forge a reply or a push (nor tell one from the other).
template <typename Message>
sdn::Packet sign_and_seal(Tag tag, const Message& message,
                          const enclave::Enclave& enclave,
                          const crypto::BigUInt& client_box_pub,
                          util::Rng& rng) {
  util::ByteWriter inner;
  message.serialize(inner);
  inner.put_bytes(enclave.sign(message.signing_payload()).serialize());
  const crypto::SealedBox box =
      crypto::BoxSealer(client_box_pub).seal(rng, inner.data());

  sdn::Packet p = base_udp_packet(0, 0, sdn::kPortRvaasReply);
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(tag));
  w.put_bytes(box.serialize());
  p.payload = w.take();
  return p;
}

/// Opens what sign_and_seal made and checks the signature against the
/// trusted RVaaS key; nullopt on tamper/garbage.
template <typename Message>
std::optional<std::pair<Message, bool>> open_and_verify(
    Tag tag, const sdn::Packet& packet, const crypto::BoxOpener& client_box,
    const crypto::VerifyKey& rvaas_key) {
  if (classify(packet) != tag) return std::nullopt;
  try {
    util::ByteReader r(packet.payload);
    r.get_u32();  // tag
    util::ByteReader box_reader(r.get_bytes());
    const crypto::SealedBox box = crypto::SealedBox::deserialize(box_reader);
    const auto plain = client_box.open(box);
    if (!plain) return std::nullopt;

    util::ByteReader pr(*plain);
    Message message = Message::deserialize(pr);
    util::ByteReader sig_reader(pr.get_bytes());
    const crypto::Signature sig = crypto::Signature::deserialize(sig_reader);
    pr.expect_done();
    const bool signature_ok = rvaas_key.verify(message.signing_payload(), sig);
    return std::make_pair(std::move(message), signature_ok);
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<Tag> classify(const sdn::Packet& packet) {
  if (packet.hdr.eth_type != sdn::kEthTypeIpv4 ||
      packet.hdr.ip_proto != sdn::kIpProtoUdp) {
    return std::nullopt;
  }
  if (packet.payload.size() < 4) return std::nullopt;
  try {
    util::ByteReader r(packet.payload);
    const auto tag = static_cast<Tag>(r.get_u32());
    switch (tag) {
      case Tag::Request:
      case Tag::AuthReply:
      case Tag::Subscribe:
        if (packet.hdr.l4_dst != sdn::kPortRvaasRequest) return std::nullopt;
        return tag;
      case Tag::AuthRequest:
        if (packet.hdr.l4_dst != sdn::kPortRvaasAuth) return std::nullopt;
        return tag;
      case Tag::Reply:
      case Tag::Notify:
        if (packet.hdr.l4_dst != sdn::kPortRvaasReply) return std::nullopt;
        return tag;
    }
  } catch (const util::DecodeError&) {
  }
  return std::nullopt;
}

sdn::Packet make_request_packet(const control::HostAddress& src,
                                const QueryRequest& request,
                                const crypto::BigUInt& rvaas_box_pub,
                                util::Rng& rng) {
  util::ByteWriter plain;
  request.serialize(plain);
  const crypto::SealedBox box =
      crypto::BoxSealer(rvaas_box_pub).seal(rng, plain.data());

  sdn::Packet p = base_udp_packet(src.eth, src.ip, sdn::kPortRvaasRequest);
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(Tag::Request));
  w.put_bytes(box.serialize());
  p.payload = w.take();
  return p;
}

std::optional<QueryRequest> open_request(const sdn::Packet& packet,
                                         const enclave::Enclave& enclave) {
  if (classify(packet) != Tag::Request) return std::nullopt;
  try {
    util::ByteReader r(packet.payload);
    r.get_u32();  // tag
    util::ByteReader box_reader(r.get_bytes());
    const crypto::SealedBox box = crypto::SealedBox::deserialize(box_reader);
    const auto plain = enclave.open(box);
    if (!plain) return std::nullopt;
    util::ByteReader pr(*plain);
    QueryRequest req = QueryRequest::deserialize(pr);
    pr.expect_done();
    return req;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

util::Bytes AuthRequest::signing_payload() const {
  util::ByteWriter w;
  w.put_string("rvaas-auth-request-v1");
  w.put_u64(request_id);
  w.put_u64(nonce);
  w.put_u32(target.sw.value);
  w.put_u32(target.port.value);
  return w.take();
}

sdn::Packet make_auth_request(const AuthRequest& req,
                              const enclave::Enclave& enclave) {
  sdn::Packet p = base_udp_packet(0, 0, sdn::kPortRvaasAuth);
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(Tag::AuthRequest));
  w.put_u64(req.request_id);
  w.put_u64(req.nonce);
  w.put_u32(req.target.sw.value);
  w.put_u32(req.target.port.value);
  w.put_bytes(enclave.sign(req.signing_payload()).serialize());
  p.payload = w.take();
  return p;
}

std::optional<AuthRequest> verify_auth_request(
    const sdn::Packet& packet, const crypto::VerifyKey& rvaas_key) {
  if (classify(packet) != Tag::AuthRequest) return std::nullopt;
  try {
    util::ByteReader r(packet.payload);
    r.get_u32();  // tag
    AuthRequest req;
    req.request_id = r.get_u64();
    req.nonce = r.get_u64();
    req.target.sw = sdn::SwitchId(r.get_u32());
    req.target.port = sdn::PortNo(r.get_u32());
    util::ByteReader sig_reader(r.get_bytes());
    const crypto::Signature sig = crypto::Signature::deserialize(sig_reader);
    if (!rvaas_key.verify(req.signing_payload(), sig)) return std::nullopt;
    return req;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

util::Bytes AuthReply::signing_payload() const {
  util::ByteWriter w;
  w.put_string("rvaas-auth-reply-v1");
  w.put_u64(request_id);
  w.put_u64(nonce);
  w.put_u32(client.value);
  return w.take();
}

sdn::Packet make_auth_reply(const control::HostAddress& src,
                            const AuthReply& reply,
                            const crypto::SigningKey& client_key) {
  sdn::Packet p = base_udp_packet(src.eth, src.ip, sdn::kPortRvaasRequest);
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(Tag::AuthReply));
  w.put_u64(reply.request_id);
  w.put_u64(reply.nonce);
  w.put_u32(reply.client.value);
  w.put_bytes(client_key.sign(reply.signing_payload()).serialize());
  p.payload = w.take();
  return p;
}

std::optional<std::pair<AuthReply, crypto::Signature>> parse_auth_reply(
    const sdn::Packet& packet) {
  if (classify(packet) != Tag::AuthReply) return std::nullopt;
  try {
    util::ByteReader r(packet.payload);
    r.get_u32();  // tag
    AuthReply reply;
    reply.request_id = r.get_u64();
    reply.nonce = r.get_u64();
    reply.client = sdn::HostId(r.get_u32());
    util::ByteReader sig_reader(r.get_bytes());
    const crypto::Signature sig = crypto::Signature::deserialize(sig_reader);
    return std::make_pair(reply, sig);
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

sdn::Packet make_reply_packet(const QueryReply& reply,
                              const enclave::Enclave& enclave,
                              const crypto::BigUInt& client_box_pub,
                              util::Rng& rng) {
  return sign_and_seal(Tag::Reply, reply, enclave, client_box_pub, rng);
}

std::optional<OpenedReply> open_reply(const sdn::Packet& packet,
                                      const crypto::BoxOpener& client_box,
                                      const crypto::VerifyKey& rvaas_key) {
  auto opened =
      open_and_verify<QueryReply>(Tag::Reply, packet, client_box, rvaas_key);
  if (!opened) return std::nullopt;
  return OpenedReply{std::move(opened->first), opened->second};
}

sdn::Packet make_subscribe_packet(const control::HostAddress& src,
                                  const SubscribeRequest& request,
                                  const crypto::SigningKey& client_key,
                                  const crypto::BigUInt& rvaas_box_pub,
                                  util::Rng& rng) {
  // Sign, then seal (the signature rides inside the box, hidden from the
  // provider along with the subscription itself).
  util::ByteWriter plain;
  request.serialize(plain);
  plain.put_bytes(client_key.sign(request.signing_payload()).serialize());
  const crypto::SealedBox box =
      crypto::BoxSealer(rvaas_box_pub).seal(rng, plain.data());

  sdn::Packet p = base_udp_packet(src.eth, src.ip, sdn::kPortRvaasRequest);
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(Tag::Subscribe));
  w.put_bytes(box.serialize());
  p.payload = w.take();
  return p;
}

std::optional<std::pair<SubscribeRequest, crypto::Signature>> open_subscribe(
    const sdn::Packet& packet, const enclave::Enclave& enclave) {
  if (classify(packet) != Tag::Subscribe) return std::nullopt;
  try {
    util::ByteReader r(packet.payload);
    r.get_u32();  // tag
    util::ByteReader box_reader(r.get_bytes());
    const crypto::SealedBox box = crypto::SealedBox::deserialize(box_reader);
    const auto plain = enclave.open(box);
    if (!plain) return std::nullopt;
    util::ByteReader pr(*plain);
    SubscribeRequest req = SubscribeRequest::deserialize(pr);
    util::ByteReader sig_reader(pr.get_bytes());
    const crypto::Signature sig = crypto::Signature::deserialize(sig_reader);
    pr.expect_done();
    return std::make_pair(std::move(req), sig);
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

sdn::Packet make_notify_packet(const Notification& notification,
                               const enclave::Enclave& enclave,
                               const crypto::BigUInt& client_box_pub,
                               util::Rng& rng) {
  return sign_and_seal(Tag::Notify, notification, enclave, client_box_pub,
                       rng);
}

std::optional<OpenedNotification> open_notify(
    const sdn::Packet& packet, const crypto::BoxOpener& client_box,
    const crypto::VerifyKey& rvaas_key) {
  auto opened = open_and_verify<Notification>(Tag::Notify, packet, client_box,
                                              rvaas_key);
  if (!opened) return std::nullopt;
  return OpenedNotification{std::move(opened->first), opened->second};
}

sdn::Packet make_outbound_packet(const Outbound& out,
                                 const enclave::Enclave& enclave,
                                 const crypto::BigUInt& client_box_pub,
                                 util::Rng& rng) {
  if (const auto* reply = std::get_if<QueryReply>(&out)) {
    return make_reply_packet(*reply, enclave, client_box_pub, rng);
  }
  if (const auto* notification = std::get_if<Notification>(&out)) {
    return make_notify_packet(*notification, enclave, client_box_pub, rng);
  }
  return make_auth_request(std::get<AuthRequest>(out), enclave);
}

}  // namespace rvaas::core::inband
