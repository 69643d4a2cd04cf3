// Codec robustness for the in-band wire protocol: the controller and client
// parse attacker-reachable bytes (the provider forwards whatever it wants
// into the magic channel), so every length-prefixed path in query.cpp /
// monitor notification decoding / inband.cpp must reject truncated,
// bit-flipped and oversized messages without crashing — and without
// allocating memory proportional to a *claimed* length that the buffer
// cannot back.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "enclave/enclave.hpp"
#include "hsa/transfer.hpp"
#include "net/client.hpp"
#include "rvaas/multiprovider.hpp"
#include "net/server.hpp"
#include "rvaas/inband.hpp"
#include "util/rng.hpp"
#include "workload/wire_world.hpp"

namespace rvaas::core {
namespace {

using sdn::Field;
using sdn::HostId;
using sdn::Match;
using sdn::Packet;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

struct CodecFixture : ::testing::Test {
  util::Rng rng{0xc0dec};
  enclave::Enclave enclave{"rvaas", "1.0", rng};
  crypto::SigningKey client_key = crypto::SigningKey::generate(rng);
  crypto::BoxOpener client_box = crypto::BoxOpener::generate(rng);
  control::HostAddress addr = control::HostAddressing::derive(HostId(1000));

  QueryRequest sample_request() {
    QueryRequest request;
    request.request_id = 7;
    request.client = HostId(1000);
    request.query.kind = QueryKind::Isolation;
    request.query.constraint = Match().exact(Field::IpProto, 6);
    return request;
  }

  SubscribeRequest sample_subscribe() {
    SubscribeRequest request;
    request.subscription_id = 9;
    request.client = HostId(1000);
    request.policy = NotifyPolicy::EveryChange;
    request.property.kind = QueryKind::Geo;
    request.property.expect.allowed_jurisdictions = {"DE", "FR"};
    request.freshness = 1;
    return request;
  }

  Notification sample_notification() {
    Notification n;
    n.subscription_id = 9;
    n.sequence = 3;
    n.kind = NotificationKind::ViolationAlert;
    n.epoch = 12;
    n.property_fingerprint = 0xabcd;
    n.reply.kind = QueryKind::Geo;
    n.reply.jurisdictions = {"DE", "US"};
    n.reply.endpoints.push_back(
        EndpointInfo{PortRef{SwitchId(2), PortNo(1)}, true, false, {}});
    return n;
  }

  QueryReply sample_reply() {
    QueryReply reply;
    reply.request_id = 7;
    reply.kind = QueryKind::Isolation;
    reply.endpoints.push_back(EndpointInfo{PortRef{SwitchId(1), PortNo(2)},
                                           false, true, HostId(1001)});
    reply.auth = {1, 1};
    reply.fairness.push_back(FairnessMetric{"min-rate-bps", 42});
    // Degraded freshness: the section is attacker-reachable like the rest
    // of the reply, so the assault below also walks its bytes.
    reply.freshness.max_staleness = 123456789;
    reply.freshness.unreachable = {SwitchId(2), SwitchId(5)};
    // A policy crossing, so the assaults walk PolicyReportItem bytes too.
    reply.policy_report.push_back(PolicyReportItem{
        PolicyVerdict::RouteLeak, ProviderId(1), ProviderId(2),
        PortRef{SwitchId(3), PortNo(3)}, PortRef{SwitchId(1), PortNo(3)},
        0x1234567890abcdefu});
    return reply;
  }

  Notification sample_degraded_notification() {
    // The reply shell of a VerificationDegraded push carries no evaluation,
    // only the property kind and a non-zero freshness section.
    Notification n;
    n.subscription_id = 9;
    n.sequence = 4;
    n.kind = NotificationKind::VerificationDegraded;
    n.epoch = 12;
    n.property_fingerprint = 0xabcd;
    n.reply.request_id = 9;
    n.reply.kind = QueryKind::ReachableEndpoints;
    n.reply.freshness.max_staleness = 40 * sim::kMillisecond;
    n.reply.freshness.unreachable = {SwitchId(3)};
    return n;
  }

  /// Runs `open` against every truncation and a bit flip in every byte of
  /// `packet`'s payload; `open` must never throw, and flipped variants may
  /// only succeed with their authenticity bit cleared (`ok_means_authentic`
  /// false allows flips that survive as unauthenticated parses).
  template <class Open>
  void assault(const Packet& packet, Open&& open) {
    // Truncations at every length.
    for (std::size_t len = 0; len < packet.payload.size(); ++len) {
      Packet t = packet;
      t.payload.resize(len);
      EXPECT_NO_THROW(open(t)) << "truncated to " << len;
    }
    // Single bit flip in every byte.
    for (std::size_t i = 0; i < packet.payload.size(); ++i) {
      Packet t = packet;
      t.payload[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_NO_THROW(open(t)) << "bit flip at byte " << i;
    }
  }

  /// Trailing junk after a well-formed envelope: must not crash (the box /
  /// signature content is still authenticated, so acceptance is harmless
  /// and left unspecified).
  template <class Open>
  void inflate(const Packet& packet, Open&& open) {
    Packet big = packet;
    big.payload.insert(big.payload.end(), 64, 0xee);
    EXPECT_NO_THROW(open(big));
  }
};

TEST_F(CodecFixture, RequestPacketSurvivesTruncationAndBitFlips) {
  const Packet packet = inband::make_request_packet(
      addr, sample_request(), enclave.box_public(), rng);
  ASSERT_TRUE(inband::open_request(packet, enclave).has_value());
  assault(packet, [&](const Packet& p) {
    const auto opened = inband::open_request(p, enclave);
    // A tampered box must never decrypt: sealed boxes are authenticated.
    if (p.payload != packet.payload) {
      EXPECT_FALSE(opened.has_value());
    }
  });
  inflate(packet, [&](const Packet& p) { (void)inband::open_request(p, enclave); });
}

TEST_F(CodecFixture, SubscribePacketSurvivesTruncationAndBitFlips) {
  const Packet packet = inband::make_subscribe_packet(
      addr, sample_subscribe(), client_key, enclave.box_public(), rng);
  ASSERT_TRUE(inband::open_subscribe(packet, enclave).has_value());
  assault(packet, [&](const Packet& p) {
    const auto opened = inband::open_subscribe(p, enclave);
    if (p.payload != packet.payload) {
      EXPECT_FALSE(opened.has_value());
    }
  });
  inflate(packet,
          [&](const Packet& p) { (void)inband::open_subscribe(p, enclave); });
}

TEST_F(CodecFixture, NotifyPacketSurvivesTruncationAndBitFlips) {
  const Packet packet = inband::make_notify_packet(
      sample_notification(), enclave, client_box.public_element(), rng);
  const auto opened =
      inband::open_notify(packet, client_box, enclave.verify_key());
  ASSERT_TRUE(opened.has_value());
  ASSERT_TRUE(opened->signature_ok);
  assault(packet, [&](const Packet& p) {
    const auto o = inband::open_notify(p, client_box, enclave.verify_key());
    if (p.payload != packet.payload) {
      EXPECT_FALSE(o.has_value());
    }
  });
  inflate(packet, [&](const Packet& p) {
    (void)inband::open_notify(p, client_box, enclave.verify_key());
  });
}

TEST_F(CodecFixture, DegradedNotifyPacketSurvivesTruncationAndBitFlips) {
  const Packet packet = inband::make_notify_packet(
      sample_degraded_notification(), enclave, client_box.public_element(),
      rng);
  const auto opened =
      inband::open_notify(packet, client_box, enclave.verify_key());
  ASSERT_TRUE(opened.has_value());
  ASSERT_TRUE(opened->signature_ok);
  EXPECT_EQ(opened->notification.kind, NotificationKind::VerificationDegraded);
  EXPECT_TRUE(opened->notification.reply.freshness.degraded());
  assault(packet, [&](const Packet& p) {
    const auto o = inband::open_notify(p, client_box, enclave.verify_key());
    if (p.payload != packet.payload) {
      EXPECT_FALSE(o.has_value());
    }
  });
  inflate(packet, [&](const Packet& p) {
    (void)inband::open_notify(p, client_box, enclave.verify_key());
  });
}

/// The freshness section must round-trip exactly: a dropped or reordered
/// unreachable list would silently change a fail-stale verdict.
TEST_F(CodecFixture, FreshnessSectionRoundTripsThroughReplyAndNotify) {
  {
    const Packet packet = inband::make_reply_packet(
        sample_reply(), enclave, client_box.public_element(), rng);
    const auto opened =
        inband::open_reply(packet, client_box, enclave.verify_key());
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->reply.freshness, sample_reply().freshness);
  }
  {
    const Packet packet = inband::make_notify_packet(
        sample_degraded_notification(), enclave, client_box.public_element(),
        rng);
    const auto opened =
        inband::open_notify(packet, client_box, enclave.verify_key());
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(opened->notification.reply.freshness,
              sample_degraded_notification().reply.freshness);
  }
}

TEST_F(CodecFixture, ReplyPacketSurvivesTruncationAndBitFlips) {
  const Packet packet = inband::make_reply_packet(
      sample_reply(), enclave, client_box.public_element(), rng);
  const auto opened =
      inband::open_reply(packet, client_box, enclave.verify_key());
  ASSERT_TRUE(opened.has_value());
  ASSERT_TRUE(opened->signature_ok);
  assault(packet, [&](const Packet& p) {
    const auto o = inband::open_reply(p, client_box, enclave.verify_key());
    if (p.payload != packet.payload) {
      EXPECT_FALSE(o.has_value());
    }
  });
  inflate(packet, [&](const Packet& p) {
    (void)inband::open_reply(p, client_box, enclave.verify_key());
  });
}

/// The policy_report section must round-trip exactly: a reordered or
/// reworded crossing would change which violation a client attributes to
/// which domain pair.
TEST_F(CodecFixture, PolicyReportRoundTripsThroughReply) {
  const Packet packet = inband::make_reply_packet(
      sample_reply(), enclave, client_box.public_element(), rng);
  const auto opened =
      inband::open_reply(packet, client_box, enclave.verify_key());
  ASSERT_TRUE(opened.has_value());
  ASSERT_EQ(opened->reply.policy_report.size(), 1u);
  EXPECT_EQ(opened->reply.policy_report, sample_reply().policy_report);
}

/// Federated subquery payloads (v2) bind the crossing point, the crossing
/// header space fingerprint AND the remaining walk depth. A signature
/// recorded for one crossing must not verify for a different space or a
/// different budget — otherwise a compromised domain could replay an old
/// authorization for traffic it was never asked about.
TEST_F(CodecFixture, SubqueryPayloadBindsSpaceAndDepth) {
  const PortRef ingress{SwitchId(4), PortNo(2)};
  const hsa::HeaderSpace tcp(hsa::match_to_cube(
      Match().exact(Field::IpProto, sdn::kIpProtoTcp)));
  const hsa::HeaderSpace udp(hsa::match_to_cube(
      Match().exact(Field::IpProto, sdn::kIpProtoUdp)));

  const util::Bytes payload = Federation::subquery_payload(ingress, tcp, 5);
  const crypto::Signature sig = enclave.sign(payload);
  ASSERT_TRUE(enclave.verify_key().verify(payload, sig));

  // Same crossing, different traffic: rejected.
  EXPECT_FALSE(enclave.verify_key().verify(
      Federation::subquery_payload(ingress, udp, 5), sig));
  // Same traffic, different remaining depth: rejected.
  EXPECT_FALSE(enclave.verify_key().verify(
      Federation::subquery_payload(ingress, tcp, 4), sig));
  // Different crossing point: rejected.
  EXPECT_FALSE(enclave.verify_key().verify(
      Federation::subquery_payload(PortRef{SwitchId(4), PortNo(3)}, tcp, 5),
      sig));
}

TEST_F(CodecFixture, AuthPacketsSurviveTruncationAndBitFlips) {
  inband::AuthRequest req;
  req.request_id = 11;
  req.nonce = 0x1234;
  req.target = PortRef{SwitchId(3), PortNo(1)};
  const Packet request = inband::make_auth_request(req, enclave);
  ASSERT_TRUE(
      inband::verify_auth_request(request, enclave.verify_key()).has_value());
  assault(request, [&](const Packet& p) {
    const auto o = inband::verify_auth_request(p, enclave.verify_key());
    // Auth requests are signed plaintext: any tamper breaks the signature.
    if (p.payload != request.payload) {
      EXPECT_FALSE(o.has_value());
    }
  });

  inband::AuthReply reply;
  reply.request_id = 11;
  reply.nonce = 0x1234;
  reply.client = HostId(1000);
  const Packet reply_packet = inband::make_auth_reply(addr, reply, client_key);
  ASSERT_TRUE(inband::parse_auth_reply(reply_packet).has_value());
  assault(reply_packet, [&](const Packet& p) {
    // parse_auth_reply parses without verifying; it must simply not crash.
    (void)inband::parse_auth_reply(p);
  });
  inflate(request, [&](const Packet& p) {
    (void)inband::verify_auth_request(p, enclave.verify_key());
  });
  inflate(reply_packet,
          [&](const Packet& p) { (void)inband::parse_auth_reply(p); });
}

// --- oversized length prefixes: reject before allocating ---

/// A message claiming a 4 GiB payload over a few real bytes must be
/// rejected by the bounds check, not by an allocation attempt. ByteReader
/// verifies `need(n)` against the remaining buffer before materializing
/// bytes, so the claim is rejected in O(1).
TEST_F(CodecFixture, OversizedLengthPrefixRejectedWithoutAllocation) {
  util::ByteWriter w;
  w.put_u32(0xffffffffu);  // claimed length: 4 GiB - 1
  w.put_u8(0xaa);          // actual content: 1 byte
  util::ByteReader r(w.data());
  EXPECT_THROW((void)r.get_bytes(), util::DecodeError);

  // The same claim inside a packet envelope: open_* reports tamper.
  Packet p;
  p.hdr.eth_type = sdn::kEthTypeIpv4;
  p.hdr.ip_proto = sdn::kIpProtoUdp;
  p.hdr.l4_dst = sdn::kPortRvaasRequest;
  util::ByteWriter pw;
  pw.put_u32(0x52565131u);  // "RVQ1"
  pw.put_u32(0xfffffff0u);  // box length claim far past the buffer
  pw.put_u64(0);
  p.payload = pw.take();
  EXPECT_EQ(inband::open_request(p, enclave), std::nullopt);
}

/// Structure-level decoders loop over u32 element counts; a huge count over
/// a truncated buffer must throw on the first missing element instead of
/// reserving or looping 2^32 times over allocations.
TEST_F(CodecFixture, HugeElementCountsThrowFastOnTruncatedBuffers) {
  {
    util::ByteWriter w;
    w.put_u64(1);           // request_id
    w.put_u8(0);            // kind
    w.put_u32(0xffffffffu); // endpoint count claim
    util::ByteReader r(w.data());
    EXPECT_THROW((void)QueryReply::deserialize(r), util::DecodeError);
  }
  {
    util::ByteWriter w;
    w.put_bool(false);      // no in_port
    w.put_u32(0xffffffffu); // field-match count claim
    util::ByteReader r(w.data());
    EXPECT_THROW((void)Match::deserialize(r), util::DecodeError);
  }
  {
    util::ByteWriter w;
    w.put_u32(0xffffffffu); // allowed-endpoint count claim
    util::ByteReader r(w.data());
    EXPECT_THROW((void)Expectation::deserialize(r), util::DecodeError);
  }
  {
    util::ByteWriter w;
    w.put_u64(1);           // max_staleness
    w.put_u32(0xffffffffu); // unreachable-switch count claim
    util::ByteReader r(w.data());
    EXPECT_THROW((void)FreshnessInfo::deserialize(r), util::DecodeError);
  }
  {
    util::ByteWriter w;
    w.put_u64(9);           // subscription id
    w.put_u64(1);           // sequence
    w.put_u8(0);            // kind
    w.put_u64(0);           // epoch
    w.put_u64(0);           // fingerprint
    w.put_u64(1);           // reply request_id
    w.put_u8(0);            // reply kind
    w.put_u32(0x7fffffffu); // reply endpoint count claim
    util::ByteReader r(w.data());
    EXPECT_THROW((void)Notification::deserialize(r), util::DecodeError);
  }
}

/// Seeded random garbage across all in-band entry points: no crashes, no
/// accidental accepts (the tag/classify gate plus authenticated sealing
/// keeps garbage out).
TEST_F(CodecFixture, RandomGarbageNeverCrashesOrAuthenticates) {
  util::Rng garbage_rng(20260729);
  for (int i = 0; i < 300; ++i) {
    Packet p;
    p.hdr.eth_type = sdn::kEthTypeIpv4;
    p.hdr.ip_proto = sdn::kIpProtoUdp;
    p.hdr.l4_dst = i % 3 == 0   ? sdn::kPortRvaasRequest
                   : i % 3 == 1 ? sdn::kPortRvaasReply
                                : sdn::kPortRvaasAuth;
    const std::size_t len = garbage_rng.below(96);
    p.payload.resize(len);
    for (auto& byte : p.payload) {
      byte = static_cast<std::uint8_t>(garbage_rng.below(256));
    }
    if (i % 5 == 0 && len >= 4) {
      // Give a fifth of the corpus a valid tag so decoding goes deeper,
      // cycling through all six envelopes ('Q' requests, 'A' auth
      // requests, 'R' auth replies, 'P' replies, 'S' subscribes,
      // 'N' notifications).
      static constexpr std::uint8_t kTagBytes[] = {0x51, 0x41, 0x52,
                                                   0x50, 0x53, 0x4e};
      p.payload[0] = 0x31;
      p.payload[1] = kTagBytes[garbage_rng.below(6)];
      p.payload[2] = 0x56;
      p.payload[3] = 0x52;
    }
    EXPECT_NO_THROW({
      (void)inband::open_request(p, enclave);
      (void)inband::open_subscribe(p, enclave);
      (void)inband::parse_auth_reply(p);
      (void)inband::open_reply(p, client_box, enclave.verify_key());
      (void)inband::open_notify(p, client_box, enclave.verify_key());
      (void)inband::verify_auth_request(p, enclave.verify_key());
    });
    EXPECT_FALSE(inband::open_request(p, enclave).has_value());
  }
}

// --- socket-level assault ---
// The same contract one layer down: the TCP front-end (src/net) parses
// attacker-controlled stream bytes before any envelope is opened, so
// truncated frames, bit flips and seeded garbage fired into a live server
// must never crash it and never produce a verified reply — and legitimate
// sessions must keep working throughout.

struct SocketAssault : ::testing::Test {
  void SetUp() override {
    workload::ScenarioConfig config;
    config.generated = workload::linear_fanout(2, 2);
    config.seed = 0xa55a;
    const auto& hosts = config.generated.hosts;
    wire_hosts.assign(hosts.end() - 2, hosts.end());
    config.wire_hosts = wire_hosts;
    runtime = std::make_unique<workload::ScenarioRuntime>(std::move(config));
    runtime->settle(50 * sim::kMillisecond);
    service = std::make_unique<net::WireService>(runtime->loop());
    server = std::make_unique<net::WireServer>(
        net::WireServerConfig{}, runtime->rvaas(), *service,
        runtime->ias().root_key(), workload::wire_slots(*runtime, wire_hosts),
        0xbad);
    service->start();
    server->start();
  }

  void TearDown() override {
    server->stop();
    service->stop();
  }

  /// Raw TCP connection to the server, bypassing WireClient entirely.
  int raw_connect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  }

  void raw_send(int fd, std::span<const std::uint8_t> bytes) {
    (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  }

  /// Blocks up to `timeout_ms` for the next frame on a raw socket; nullopt
  /// on EOF, error or timeout.
  std::optional<util::Bytes> raw_read_frame(int fd, net::FrameDecoder& decoder,
                                            int timeout_ms = 30'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (true) {
      if (auto frame = decoder.take()) return frame;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd, POLLIN, 0};
      if (left.count() <= 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return std::nullopt;
      }
      std::uint8_t buf[4096];
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n <= 0 || !decoder.feed({buf, static_cast<std::size_t>(n)})) {
        return std::nullopt;
      }
    }
  }

  /// The liveness probe: a fresh legitimate session must still handshake,
  /// attest and get a signed Geo reply.
  void expect_server_alive(std::uint64_t seed) {
    net::WireClientConfig config;
    config.port = server->port();
    config.requested_host = wire_hosts[0].value;
    config.seed = seed;
    net::WireClient client(config);
    ASSERT_EQ(client.connect(), net::WelcomeStatus::Ok);
    Query query;
    query.kind = QueryKind::Geo;
    const auto outcome = client.query(query, 30'000);
    ASSERT_TRUE(outcome.reply.has_value());
    EXPECT_TRUE(outcome.signature_ok);
    client.close();
  }

  std::vector<HostId> wire_hosts;
  std::unique_ptr<workload::ScenarioRuntime> runtime;
  std::unique_ptr<net::WireService> service;
  std::unique_ptr<net::WireServer> server;
};

TEST_F(SocketAssault, TruncatedAndBogusFramesNeverWedgeTheServer) {
  {  // Oversized length claim straight after connect.
    const int fd = raw_connect();
    const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
    raw_send(fd, huge);
    ::close(fd);
  }
  {  // Zero-length claim.
    const int fd = raw_connect();
    const std::uint8_t zero[4] = {0, 0, 0, 0};
    raw_send(fd, zero);
    ::close(fd);
  }
  {  // Truncated frame: claim 64 KiB, deliver 10 bytes, vanish.
    const int fd = raw_connect();
    const std::uint8_t prefix[4] = {0x00, 0x01, 0x00, 0x00};
    raw_send(fd, prefix);
    const std::uint8_t stub[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    raw_send(fd, stub);
    ::close(fd);
  }
  {  // Split length prefix, then abrupt close mid-prefix.
    const int fd = raw_connect();
    const std::uint8_t half[2] = {0x00, 0x00};
    raw_send(fd, half);
    ::close(fd);
  }
  expect_server_alive(0x11fe);
}

TEST_F(SocketAssault, SeededGarbageStreamsNeverCrashOrAuthenticate) {
  util::Rng rng(20260808);
  for (int i = 0; i < 40; ++i) {
    const int fd = raw_connect();
    util::Bytes stream;
    if (i % 2 == 0) {
      // Well-framed garbage: valid length prefixes over random payloads,
      // a quarter of them leading with a real wire tag so the server
      // parses deeper before rejecting.
      util::Bytes payload(1 + rng.below(200));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
      if (i % 4 == 0 && payload.size() >= 4) {
        payload[0] = 0x31;  // "1HVR" little-endian = WireTag::Hello
        payload[1] = 0x48;
        payload[2] = 0x56;
        payload[3] = 0x52;
      }
      stream = net::encode_frame(payload);
    } else {
      // Raw noise, length prefix and all.
      stream.resize(1 + rng.below(64));
      for (auto& b : stream) b = static_cast<std::uint8_t>(rng.below(256));
    }
    // Bit-flip a random position so even "valid" prefixes get corrupted
    // half the time.
    if (!stream.empty() && rng.below(2) == 0) {
      stream[rng.below(stream.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    raw_send(fd, stream);
    ::close(fd);
  }
  expect_server_alive(0x11ff);
  const auto stats = server->stats();
  EXPECT_GT(stats.bad_frames + stats.bad_hellos, 0u);
}

TEST_F(SocketAssault, HangupWithRepliesQueuedNeverKillsTheServer) {
  // A tenant pipelines sealed queries, reads the first reply and hangs up,
  // so the server keeps writing replies into a socket the peer closed. Each
  // such write must cost that connection, never the process (SIGPIPE's
  // default action would end it).
  Query query;
  query.kind = QueryKind::Geo;
  for (int round = 0; round < 10; ++round) {
    const int fd = raw_connect();
    ClientSession session(util::Rng(0x5160 + round));
    net::WireHello hello;
    hello.client_key = session.verify_key();
    hello.client_box_pub = session.box_public();
    hello.requested_host = wire_hosts[1].value;
    raw_send(fd, net::encode_frame(hello.encode()));
    net::FrameDecoder decoder;
    const auto welcome_frame = raw_read_frame(fd, decoder);
    ASSERT_TRUE(welcome_frame.has_value()) << "round " << round;
    const auto welcome = net::WireWelcome::decode(*welcome_frame);
    ASSERT_TRUE(welcome.has_value()) << "round " << round;
    ASSERT_EQ(welcome->status, net::WelcomeStatus::Ok) << "round " << round;
    session.trust_rvaas(welcome->rvaas_key, welcome->rvaas_box_pub);
    session.bind(welcome->host, welcome->address);

    util::Bytes burst;
    for (int i = 0; i < 8; ++i) {
      const util::Bytes frame = net::encode_frame(
          net::encode_inband(session.seal_query(query).packet));
      burst.insert(burst.end(), frame.begin(), frame.end());
    }
    raw_send(fd, burst);
    ASSERT_TRUE(raw_read_frame(fd, decoder).has_value()) << "round " << round;
    ::close(fd);

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server->sessions().active() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(server->sessions().active(), 0u) << "round " << round;
  }
  expect_server_alive(0x1200);
}

TEST_F(SocketAssault, RefusedHelloThenResetNeverTouchesAFreedConnection) {
  // A HELLO for a taken slot is answered with a refusal, then the server
  // closes. When the peer has already reset the connection, that send fails
  // and closes (frees) the connection inside the send, so the refusal path
  // must not touch it afterwards (AddressSanitizer catches a use after
  // free here).
  net::WireClientConfig config;
  config.port = server->port();
  config.requested_host = wire_hosts[1].value;
  config.seed = 0x7a4e;
  net::WireClient holder(config);
  ASSERT_EQ(holder.connect(), net::WelcomeStatus::Ok);

  ClientSession session(util::Rng(0x7a4f));
  net::WireHello hello;
  hello.client_key = session.verify_key();
  hello.client_box_pub = session.box_public();
  hello.requested_host = wire_hosts[1].value;
  const util::Bytes frame = net::encode_frame(hello.encode());
  for (int i = 0; i < 100; ++i) {
    const int fd = raw_connect();
    raw_send(fd, frame);
    // Varied pauses let some refusals be read before the reset arrives.
    std::this_thread::sleep_for(std::chrono::microseconds(i % 50));
    const linger reset{1, 0};  // close() now sends RST instead of FIN
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
    ::close(fd);
  }
  expect_server_alive(0x1201);
  holder.close();
}

TEST_F(SocketAssault, PostHandshakeGarbageNeverYieldsVerifiedTraffic) {
  net::WireClientConfig config;
  config.port = server->port();
  config.requested_host = wire_hosts[1].value;
  config.seed = 0x5ab07a9e;
  net::WireClient client(config);
  ASSERT_EQ(client.connect(), net::WelcomeStatus::Ok);

  // Fire well-framed garbage down the established session: random payloads,
  // some tagged INBAND so the packet/envelope decoders run. The frames are
  // length-valid, so the stream stays parseable and the session stays up.
  util::Rng rng(0xf1a6);
  for (int i = 0; i < 60; ++i) {
    util::Bytes payload(4 + rng.below(120));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    if (i % 2 == 0) {
      payload[0] = 0x31;  // WireTag::Inband "RVF1"
      payload[1] = 0x46;
      payload[2] = 0x56;
      payload[3] = 0x52;
    }
    ASSERT_TRUE(client.send_raw(net::encode_frame(payload)));
  }

  // Nothing the garbage provoked passes the client's signature checks.
  EXPECT_FALSE(client.wait_notification(300).has_value());
  EXPECT_EQ(client.stats().notifications_received, 0u);

  // The same connection still serves legitimate queries afterwards.
  Query query;
  query.kind = QueryKind::TransferSummary;
  const auto outcome = client.query(query, 30'000);
  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_TRUE(outcome.signature_ok);

  const auto stats = server->stats();
  EXPECT_GT(stats.bad_frames + stats.bad_envelopes, 0u);
  client.close();
}

}  // namespace
}  // namespace rvaas::core
