// Wire front-end integration: the framing layer must survive adversarial
// segmentation and reject bogus length claims before allocating, the session
// table must enforce slot semantics, and a TCP session must be
// indistinguishable from an in-process agent — byte-identical replies for
// every QueryKind, working subscription pushes, and eviction (not a wedged
// sweep) when its socket dies. A client that never established trust must
// refuse requests explicitly.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/client.hpp"
#include "net/server.hpp"
#include "rvaas/inband.hpp"
#include "util/ensure.hpp"
#include "util/rng.hpp"
#include "workload/wire_world.hpp"

namespace rvaas::net {
namespace {

using core::Property;
using core::Query;
using core::QueryKind;
using core::QueryReply;
using sdn::HostId;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

constexpr sdn::ControllerId kProviderId{1};

/// Serialized reply with the request id normalized away (wire and in-process
/// sessions hand out ids from independent counters; everything
/// verdict-relevant must be byte-identical).
util::Bytes reply_bytes(QueryReply reply) {
  reply.request_id = 0;
  util::ByteWriter w;
  reply.serialize(w);
  return w.take();
}

// --- framing ---

TEST(Framing, SurvivesAdversarialSegmentation) {
  util::Rng rng(0x5e9);
  std::vector<util::Bytes> payloads;
  util::Bytes stream;
  for (int i = 0; i < 8; ++i) {
    util::Bytes payload(1 + rng.below(300));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.below(256));
    const util::Bytes frame = encode_frame(payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
    payloads.push_back(std::move(payload));
  }

  for (int trial = 0; trial < 50; ++trial) {
    FrameDecoder decoder;
    std::size_t offset = 0;
    std::vector<util::Bytes> got;
    while (offset < stream.size()) {
      // 1-byte reads on trial 0 (splits every length prefix), random
      // segment sizes after.
      const std::size_t chunk =
          trial == 0 ? 1
                     : std::min<std::size_t>(1 + rng.below(37),
                                             stream.size() - offset);
      ASSERT_TRUE(decoder.feed(
          std::span(stream.data() + offset, chunk)));
      offset += chunk;
      while (auto frame = decoder.take()) got.push_back(std::move(*frame));
    }
    ASSERT_EQ(got.size(), payloads.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], payloads[i]) << "trial " << trial << " frame " << i;
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(Framing, BogusLengthClaimsPoisonBeforeAllocation) {
  {  // Zero-length claim: not a valid frame.
    FrameDecoder decoder;
    const std::uint8_t zero[4] = {0, 0, 0, 0};
    EXPECT_FALSE(decoder.feed(zero));
    EXPECT_TRUE(decoder.poisoned());
  }
  {  // A 4 GiB claim must poison without buffering anything near it, even
    // when the prefix arrives split.
    FrameDecoder decoder;
    const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
    EXPECT_TRUE(decoder.feed(std::span(huge, 2)));
    EXPECT_FALSE(decoder.feed(std::span(huge + 2, 2)));
    EXPECT_TRUE(decoder.poisoned());
    EXPECT_LE(decoder.buffered(), kFrameLengthBytes);
    // Poisoned decoders ignore all further input.
    const std::uint8_t more[8] = {};
    EXPECT_FALSE(decoder.feed(more));
    EXPECT_FALSE(decoder.take().has_value());
    EXPECT_LE(decoder.buffered(), kFrameLengthBytes);
  }
  {  // One past the bound is rejected; the bound itself is accepted.
    FrameDecoder decoder;
    const std::uint32_t claim = kMaxFrameBytes + 1;
    const std::uint8_t prefix[4] = {
        static_cast<std::uint8_t>(claim >> 24),
        static_cast<std::uint8_t>(claim >> 16),
        static_cast<std::uint8_t>(claim >> 8),
        static_cast<std::uint8_t>(claim)};
    EXPECT_FALSE(decoder.feed(prefix));
    EXPECT_TRUE(decoder.poisoned());

    FrameDecoder ok;
    const util::Bytes max_payload(kMaxFrameBytes, 0xab);
    EXPECT_TRUE(ok.feed(encode_frame(max_payload)));
    const auto frame = ok.take();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->size(), kMaxFrameBytes);
  }
}

// --- session table ---

TEST(SessionTable, SlotSemantics) {
  std::vector<WireSlot> slots(2);
  slots[0].host = HostId(1001);
  slots[0].access_point = PortRef{SwitchId(1), PortNo(1)};
  slots[1].host = HostId(1002);
  slots[1].access_point = PortRef{SwitchId(1), PortNo(2)};
  SessionTable table(std::move(slots));
  EXPECT_EQ(table.capacity(), 2u);
  EXPECT_EQ(table.active(), 0u);

  WireSlot got;
  EXPECT_EQ(table.claim(1001, /*conn=*/10, &got), WelcomeStatus::Ok);
  EXPECT_EQ(got.host, HostId(1001));
  EXPECT_EQ(table.claim(1001, 11, &got), WelcomeStatus::SlotTaken);
  EXPECT_EQ(table.claim(4242, 11, &got), WelcomeStatus::BadHello);
  EXPECT_EQ(table.claim(0, 11, &got), WelcomeStatus::Ok);  // any free
  EXPECT_EQ(got.host, HostId(1002));
  EXPECT_EQ(table.claim(0, 12, &got), WelcomeStatus::NoFreeSlot);
  EXPECT_EQ(table.active(), 2u);

  EXPECT_EQ(table.owner_of_port(PortRef{SwitchId(1), PortNo(1)}),
            std::uint64_t{10});
  EXPECT_EQ(table.owner_of_port(PortRef{SwitchId(1), PortNo(2)}),
            std::uint64_t{11});

  const auto released = table.release(10);
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->host, HostId(1001));
  EXPECT_FALSE(table.release(10).has_value());  // idempotent
  EXPECT_FALSE(
      table.owner_of_port(PortRef{SwitchId(1), PortNo(1)}).has_value());
  EXPECT_EQ(table.claim(1001, 13, &got), WelcomeStatus::Ok);
}

// --- client preconditions ---

TEST(WireClient, RequestsBeforeTrustFailExplicitly) {
  // A bound socket that never listens refuses the connection, so the client
  // never gets to pin the RVaaS keys.
  const int refuser = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(refuser, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(refuser, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::getsockname(refuser, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  WireClientConfig config;
  config.port = ntohs(addr.sin_port);
  WireClient client(config);
  EXPECT_EQ(client.connect(), WelcomeStatus::BadHello);
  EXPECT_FALSE(client.connected());
  ::close(refuser);

  Property property;
  property.kind = QueryKind::ReachableEndpoints;
  EXPECT_THROW(client.subscribe(property), util::InvariantViolation);
  // Nothing was recorded: the id that subscribe would have drawn (ids start
  // at 0 before a host is bound) is no live subscription, so this is a no-op.
  client.unsubscribe(0);
  const auto outcome = client.query(property.query(), 100);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_FALSE(outcome.reply.has_value());

  const WireClient::Stats& stats = client.stats();
  EXPECT_EQ(stats.subscribes_sent, 0u);
  EXPECT_EQ(stats.unsubscribes_sent, 0u);
  EXPECT_EQ(stats.queries_sent, 0u);
  EXPECT_EQ(stats.crypto_ops, 0u);  // nothing signed or sealed
}

// --- live server fixtures ---

struct WireWorld {
  std::unique_ptr<workload::ScenarioRuntime> runtime;
  std::unique_ptr<WireService> service;
  std::unique_ptr<WireServer> server;
  std::vector<HostId> wire_hosts;
};

/// A small line fabric with the last `wire_slots` hosts reserved for TCP
/// sessions. A generous auth timeout keeps reach-family replies identical
/// across real-time (wire) and fast-forward (in-process) evaluation.
WireWorld make_wire_world(std::uint64_t seed, std::size_t wire_slots,
                          std::size_t io_threads = 1) {
  workload::ScenarioConfig config;
  config.generated = workload::linear_fanout(3, 2);
  config.seed = seed;
  config.rvaas.auth_timeout = 500 * sim::kMillisecond;
  const auto& hosts = config.generated.hosts;
  WireWorld world;
  world.wire_hosts.assign(hosts.end() - wire_slots, hosts.end());
  config.wire_hosts = world.wire_hosts;
  world.runtime =
      std::make_unique<workload::ScenarioRuntime>(std::move(config));
  world.runtime->settle(50 * sim::kMillisecond);
  world.service = std::make_unique<WireService>(world.runtime->loop());
  WireServerConfig server_config;
  server_config.io_threads = io_threads;
  world.server = std::make_unique<WireServer>(
      server_config, world.runtime->rvaas(), *world.service,
      world.runtime->ias().root_key(),
      workload::wire_slots(*world.runtime, world.wire_hosts), seed ^ 0x3157);
  world.service->start();
  world.server->start();
  return world;
}

std::unique_ptr<WireClient> connect_client(const WireWorld& world,
                                           HostId host,
                                           std::uint64_t seed = 0xc11e) {
  WireClientConfig config;
  config.port = world.server->port();
  config.requested_host = host.value;
  config.seed = seed;
  auto client = std::make_unique<WireClient>(config);
  EXPECT_EQ(client->connect(), WelcomeStatus::Ok);
  return client;
}

TEST(WireServer, RepliesByteIdenticalToInProcessForAllKinds) {
  // Two worlds from the same seed: in world A every host runs an in-process
  // agent; in world B the last host is a wire slot (the config burns its rng
  // fork, so all other identities match). The wire session's replies must be
  // byte-identical to the in-process agent's.
  constexpr std::uint64_t kSeed = 20160628;
  workload::ScenarioConfig config_a;
  config_a.generated = workload::linear_fanout(3, 2);
  config_a.seed = kSeed;
  config_a.rvaas.auth_timeout = 500 * sim::kMillisecond;
  workload::ScenarioRuntime in_process(std::move(config_a));
  in_process.settle(50 * sim::kMillisecond);

  WireWorld wired = make_wire_world(kSeed, /*wire_slots=*/1);
  const HostId host = wired.wire_hosts.front();
  const HostId peer = in_process.hosts().front();
  auto client = connect_client(wired, host);

  for (const QueryKind kind :
       {QueryKind::ReachableEndpoints, QueryKind::ReachingSources,
        QueryKind::Isolation, QueryKind::Geo, QueryKind::PathLength,
        QueryKind::Fairness, QueryKind::TransferSummary}) {
    Property property;
    property.kind = kind;
    if (kind == QueryKind::PathLength) property.peer = peer;

    const auto wire = client->query(property.query(), 30'000);
    ASSERT_FALSE(wire.timed_out) << to_string(kind);
    ASSERT_TRUE(wire.reply.has_value()) << to_string(kind);
    EXPECT_TRUE(wire.signature_ok) << to_string(kind);

    const auto local =
        in_process.query_and_wait(host, property.query(), 2 * sim::kSecond);
    ASSERT_TRUE(local.reply.has_value()) << to_string(kind);
    EXPECT_EQ(reply_bytes(*wire.reply), reply_bytes(*local.reply))
        << to_string(kind);
  }

  client->close();
  wired.server->stop();
  wired.service->stop();
}

TEST(WireServer, RequestNamingAnotherHostIsRefused) {
  // Host A (in-process) seals a request from its own access point that
  // names wire host B and takes B's next request id. Admission must refuse
  // it: answered, it would be evaluated at A's access point and land on
  // B's socket as the answer to B's own query.
  WireWorld world = make_wire_world(/*seed=*/53, /*wire_slots=*/1);
  workload::ScenarioRuntime& runtime = *world.runtime;
  const HostId a = runtime.hosts().front();
  const HostId b = world.wire_hosts.front();
  auto client = connect_client(world, b);
  const auto counters = [&] {
    return world.service->call([&runtime] {
      const auto& stats = runtime.rvaas().stats();
      return std::make_pair(stats.queries_received, stats.bad_requests);
    });
  };
  const auto [received_before, bad_before] = counters();

  core::QueryRequest forged;
  forged.request_id = (std::uint64_t{b.value} << 32) | 1;
  forged.client = b;
  forged.query.kind = QueryKind::ReachableEndpoints;
  world.service->post([&runtime, a, forged] {
    util::Rng rng(0xf0e);
    runtime.network().host_send(
        a, runtime.network().topology().host_ports(a).front(),
        core::inband::make_request_packet(
            runtime.addressing().of(a), forged,
            runtime.rvaas().enclave().box_public(), rng));
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (counters().first == received_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(counters().first, received_before + 1);

  // B's own query is answered from B's own access point.
  Query query;
  query.kind = QueryKind::ReachableEndpoints;
  const auto outcome = client->query(query, 30'000);
  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_TRUE(outcome.signature_ok);
  EXPECT_FALSE(outcome.reply->endpoints.empty());
  for (const auto& endpoint : outcome.reply->endpoints) {
    EXPECT_NE(endpoint.access_point, client->access_point());
  }
  EXPECT_EQ(counters().second, bad_before + 1);

  client->close();
  world.server->stop();
  world.service->stop();
}

TEST(WireServer, WirePeerAnswersAuthRequestsOverItsSocket) {
  // Both ends of an auth round are wire sessions: A's query probes B's
  // access point, and B answers the signed auth request over its socket.
  WireWorld world = make_wire_world(/*seed=*/59, /*wire_slots=*/2);
  auto a = connect_client(world, world.wire_hosts[0], 0xa1);
  auto b = connect_client(world, world.wire_hosts[1], 0xb1);

  std::atomic<bool> done{false};
  std::thread pump([&] {
    while (!done) b->wait_notification(10);  // answers auth requests inline
  });
  Query query;
  query.kind = QueryKind::ReachableEndpoints;
  const auto outcome = a->query(query, 30'000);
  done = true;
  pump.join();

  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_TRUE(outcome.signature_ok);
  const core::QueryReply& reply = *outcome.reply;
  EXPECT_EQ(reply.auth.responded, reply.auth.issued);
  bool saw_b = false;
  for (const auto& endpoint : reply.endpoints) {
    if (endpoint.access_point != b->access_point()) continue;
    saw_b = true;
    EXPECT_TRUE(endpoint.authenticated);
    EXPECT_EQ(endpoint.authenticated_as, std::optional(b->host()));
  }
  EXPECT_TRUE(saw_b);
  EXPECT_GE(world.server->stats().auth_requests_out, 1u);

  a->close();
  b->close();
  world.server->stop();
  world.service->stop();
}

TEST(WireServer, SubscriptionPushesAndDeadSocketEvicts) {
  WireWorld world = make_wire_world(/*seed=*/31, /*wire_slots=*/2);
  auto doomed = connect_client(world, world.wire_hosts[0], 0xaa);
  auto survivor = connect_client(world, world.wire_hosts[1], 0xbb);

  Property property;
  property.kind = QueryKind::ReachableEndpoints;
  property.expect.require_full_auth = false;
  for (auto* client : {doomed.get(), survivor.get()}) {
    client->subscribe(property, core::NotifyPolicy::EveryChange);
    const auto baseline = client->wait_notification(30'000);
    ASSERT_TRUE(baseline.has_value());
    EXPECT_EQ(baseline->sequence, 1u);
  }

  // Partition the fabric: both sessions must receive the alert push.
  const SwitchId mid = world.runtime->network().topology().switches()[1];
  world.service->post([&runtime = *world.runtime, mid] {
    sdn::FlowMod mod;
    mod.priority = 1000;  // above routing rules, below the intercept
    mod.cookie = 0x0dd;
    mod.actions = {sdn::drop()};
    runtime.network().switch_sim(mid).apply_flow_mod(kProviderId, mod);
  });
  for (auto* client : {doomed.get(), survivor.get()}) {
    const auto push = client->wait_notification(30'000);
    ASSERT_TRUE(push.has_value());
    EXPECT_GT(push->sequence, 1u);
  }

  // Kill one socket without unsubscribing: the server must release the slot
  // and evict the session (its subscriptions die with it).
  doomed->close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (world.server->sessions().active() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(world.server->sessions().active(), 1u);
  EXPECT_GE(world.server->stats().evictions, 1u);

  // Heal the partition: the surviving session still gets its push — a dead
  // socket never wedges the sweep.
  world.service->post([&runtime = *world.runtime, mid] {
    for (const auto& entry : runtime.rvaas().snapshot().table(mid)) {
      if (entry.cookie != 0x0dd) continue;
      sdn::FlowMod del;
      del.command = sdn::FlowModCommand::Delete;
      del.target = entry.id;
      runtime.network().switch_sim(mid).apply_flow_mod(kProviderId, del);
    }
  });
  const auto recovery = survivor->wait_notification(30'000);
  ASSERT_TRUE(recovery.has_value());

  const WireServer::Stats stats = world.server->stats();
  EXPECT_EQ(stats.bad_frames + stats.bad_hellos + stats.bad_envelopes, 0u);
  survivor->close();
  world.server->stop();
  world.service->stop();
}

TEST(WireServer, StopWithLiveConnectionsIsSafe) {
  WireWorld world = make_wire_world(/*seed=*/47, /*wire_slots=*/2,
                                    /*io_threads=*/2);
  auto a = connect_client(world, world.wire_hosts[0], 0x1);
  auto b = connect_client(world, world.wire_hosts[1], 0x2);

  Query query;
  query.kind = QueryKind::Geo;
  ASSERT_TRUE(a->query(query, 30'000).reply.has_value());

  world.server->stop();  // live connections + a session table to drain
  world.server->stop();  // double-stop is a no-op
  EXPECT_EQ(world.server->sessions().active(), 0u);

  // A query against the stopped server fails cleanly (EOF or timeout),
  // never crashes.
  const auto outcome = b->query(query, 200);
  EXPECT_FALSE(outcome.reply.has_value());

  world.service->stop();
}

}  // namespace
}  // namespace rvaas::net
