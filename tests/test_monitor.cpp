// Push-style continuous verification: subscription notifications must be
// byte-identical to cold one-shot queries for every QueryKind across
// randomized churn, wakeups must be confined by the dependency footprint,
// and alerts must carry valid enclave signatures.

#include <gtest/gtest.h>

#include "rvaas/monitor.hpp"
#include "workload/scenario.hpp"

namespace rvaas::workload {
namespace {

using core::ClientAgent;
using core::NotificationKind;
using core::NotifyPolicy;
using core::Property;
using core::PropertyMonitor;
using core::Query;
using core::QueryKind;
using core::QueryReply;
using sdn::Field;
using sdn::FlowMod;
using sdn::HostId;
using sdn::Match;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

constexpr sdn::ControllerId kProviderId{1};

/// Serialized reply with the request id normalized away (a one-shot reply
/// carries the client's request id, a notification the subscription id; the
/// verdict-relevant content must be byte-identical).
util::Bytes reply_bytes(QueryReply reply) {
  reply.request_id = 0;
  util::ByteWriter w;
  reply.serialize(w);
  return w.take();
}

/// Applies a random (possibly routing-relevant) flow-table change through
/// the provider's authenticated channel, like a reconfiguring provider.
void random_churn(ScenarioRuntime& runtime, util::Rng& rng) {
  const auto switches = runtime.network().topology().switches();
  const SwitchId sw = switches[rng.below(switches.size())];
  FlowMod mod;
  mod.priority = static_cast<std::uint16_t>(1 + rng.below(30));
  mod.cookie = 0xc0ffee00 | rng.below(256);
  mod.match = Match().exact(Field::L4Dst, 7000 + rng.below(8));
  mod.actions = {sdn::output(PortNo(static_cast<std::uint32_t>(
      rng.below(4))))};
  runtime.network().switch_sim(sw).apply_flow_mod(kProviderId, mod);
}

TEST(Monitor, NotificationsByteIdenticalToColdQueriesAllKinds) {
  ScenarioConfig config;
  config.generated = linear(4);
  config.seed = 7;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  // One EveryChange subscription per QueryKind, all from hosts[0].
  struct Tracked {
    Property property;
    std::optional<QueryReply> last_reply;
    std::uint64_t events = 0;
  };
  std::vector<Tracked> tracked;
  for (const QueryKind kind :
       {QueryKind::ReachableEndpoints, QueryKind::ReachingSources,
        QueryKind::Isolation, QueryKind::Geo, QueryKind::PathLength,
        QueryKind::Fairness, QueryKind::TransferSummary}) {
    Property property;
    property.kind = kind;
    if (kind == QueryKind::PathLength) property.peer = hosts[3];
    tracked.push_back(Tracked{property, std::nullopt, 0});
  }
  for (Tracked& t : tracked) {
    runtime.client(hosts[0]).subscribe(
        t.property,
        [&t](const ClientAgent::MonitorEvent& event) {
          EXPECT_TRUE(event.signature_ok);
          t.last_reply = event.reply;
          ++t.events;
        },
        NotifyPolicy::EveryChange);
  }
  runtime.settle(20 * sim::kMillisecond);

  // The baseline push landed for every kind and matches a cold query.
  util::Rng rng(123);
  for (int round = 0; round < 6; ++round) {
    if (round > 0) {
      random_churn(runtime, rng);
      runtime.settle(20 * sim::kMillisecond);
    }
    for (Tracked& t : tracked) {
      ASSERT_TRUE(t.last_reply.has_value())
          << "no notification for " << to_string(t.property.kind);
      const auto cold = runtime.query_and_wait(hosts[0], t.property.query());
      ASSERT_TRUE(cold.reply.has_value());
      EXPECT_EQ(reply_bytes(*t.last_reply), reply_bytes(*cold.reply))
          << "round " << round << ", kind " << to_string(t.property.kind);
    }
  }
}

TEST(Monitor, WakeupsConfinedToFootprint) {
  ScenarioConfig config;
  config.generated = linear(5);
  config.seed = 11;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  // A subscription constrained to the next-door neighbor: its dependency
  // footprint covers the short path only, not the whole line.
  Property property;
  property.kind = QueryKind::ReachableEndpoints;
  property.constraint =
      Match().exact(Field::IpDst, runtime.addressing().of(hosts[1]).ip);
  std::uint64_t events = 0;
  const std::uint64_t sub_id = runtime.client(hosts[0]).subscribe(
      property, [&events](const ClientAgent::MonitorEvent&) { ++events; },
      NotifyPolicy::EveryChange);
  runtime.settle(20 * sim::kMillisecond);
  EXPECT_EQ(events, 1u);  // baseline

  const PropertyMonitor::Subscription* sub =
      runtime.rvaas().monitor().find(hosts[0], sub_id);
  ASSERT_NE(sub, nullptr);
  ASSERT_FALSE(sub->footprint.empty());

  // Pick a switch outside the footprint (the far end of the line).
  std::optional<SwitchId> outside;
  for (const SwitchId sw : runtime.network().topology().switches()) {
    if (std::find(sub->footprint.begin(), sub->footprint.end(), sw) ==
        sub->footprint.end()) {
      outside = sw;
    }
  }
  ASSERT_TRUE(outside.has_value()) << "footprint covers the whole topology";

  // Churn confined outside the footprint: the sweep runs but wakes nothing.
  const auto before = runtime.rvaas().monitor().stats();
  FlowMod mod;
  mod.priority = 3;
  mod.cookie = 0xd15c0;
  mod.match = Match().exact(Field::L4Dst, 9999);
  mod.actions = {sdn::drop()};
  runtime.network().switch_sim(*outside).apply_flow_mod(kProviderId, mod);
  runtime.settle(20 * sim::kMillisecond);

  const auto after = runtime.rvaas().monitor().stats();
  EXPECT_EQ(after.wakeups, before.wakeups);  // zero re-evaluations
  EXPECT_GT(after.sweeps, before.sweeps);    // the churn was considered
  EXPECT_EQ(events, 1u);                     // and nothing was pushed

  // Churn ON the footprint wakes the subscription.
  runtime.network()
      .switch_sim(sub->footprint.front())
      .apply_flow_mod(kProviderId, mod);
  runtime.settle(20 * sim::kMillisecond);
  EXPECT_GT(runtime.rvaas().monitor().stats().wakeups, after.wakeups);
}

TEST(Monitor, AlertOnViolationSignedAndAllClearOnRepair) {
  ScenarioConfig config;
  config.generated = linear(3);
  config.seed = 42;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  Property property;
  property.kind = QueryKind::ReachableEndpoints;
  property.expect.allowed_endpoints = {hosts[1], hosts[2]};

  std::vector<ClientAgent::MonitorEvent> events;
  runtime.client(hosts[0]).subscribe(
      property, [&events](const ClientAgent::MonitorEvent& event) {
        events.push_back(event);
      });
  runtime.settle(20 * sim::kMillisecond);

  // Baseline: all endpoints legitimate and authenticated.
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].signature_ok);
  EXPECT_EQ(events[0].kind, NotificationKind::AllClear);
  EXPECT_TRUE(events[0].verdict.ok);
  EXPECT_EQ(events[0].sequence, 1u);

  // The compromised provider clones the victim's flow to a dark port:
  // the monitor catches the flow-mod and pushes a signed ViolationAlert.
  attacks::ExfiltrationAttack attack(hosts[0], hosts[2]);
  const auto record = attack.launch(runtime.provider(), runtime.network());
  ASSERT_TRUE(record.has_value());
  runtime.settle(20 * sim::kMillisecond);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(events[1].signature_ok);  // verified against the enclave key
  EXPECT_EQ(events[1].kind, NotificationKind::ViolationAlert);
  EXPECT_FALSE(events[1].verdict.ok);
  EXPECT_EQ(events[1].sequence, 2u);
  bool dark_flagged = false;
  for (const auto& v : events[1].verdict.violations) {
    dark_flagged |= v.find("dark") != std::string::npos;
  }
  EXPECT_TRUE(dark_flagged);

  // Unrelated-verdict churn is suppressed under VerdictEdges...
  const auto suppressed_before =
      runtime.rvaas().monitor().stats().suppressed;
  FlowMod noise;
  noise.priority = 2;
  noise.cookie = 0xbeef;
  noise.match = Match().exact(Field::L4Dst, 8888);
  noise.actions = {sdn::drop()};
  runtime.network().switch_sim(SwitchId(2)).apply_flow_mod(kProviderId, noise);
  runtime.settle(20 * sim::kMillisecond);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_GT(runtime.rvaas().monitor().stats().suppressed, suppressed_before);

  // ...and deleting the injected rule (found by its cookie on the victim's
  // ingress switch) flips the verdict back: AllClear.
  std::size_t removed = 0;
  for (const SwitchId sw : runtime.network().topology().switches()) {
    for (const auto& entry : runtime.rvaas().snapshot().table(sw)) {
      if (entry.cookie != 0xe4f1) continue;
      FlowMod remove;
      remove.command = sdn::FlowModCommand::Delete;
      remove.target = entry.id;
      const auto result =
          runtime.network().switch_sim(sw).apply_flow_mod(kProviderId, remove);
      EXPECT_TRUE(result.ok());
      ++removed;
    }
  }
  ASSERT_EQ(removed, 1u);
  runtime.settle(20 * sim::kMillisecond);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].kind, NotificationKind::AllClear);
  EXPECT_TRUE(events[2].verdict.ok);
  EXPECT_EQ(events[2].sequence, 3u);

  const auto& stats = runtime.rvaas().stats();
  EXPECT_EQ(stats.subscribes_received, 1u);
  EXPECT_EQ(stats.notifications_sent, 3u);
  EXPECT_EQ(runtime.client(hosts[0]).stats().alerts_received, 1u);
  EXPECT_EQ(runtime.client(hosts[0]).stats().all_clears_received, 2u);
}

TEST(Monitor, UnsubscribeStopsNotifications) {
  ScenarioConfig config;
  config.generated = linear(3);
  config.seed = 5;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  std::uint64_t events = 0;
  Property property;
  property.kind = QueryKind::TransferSummary;
  const std::uint64_t sub_id = runtime.client(hosts[0]).subscribe(
      property, [&events](const ClientAgent::MonitorEvent&) { ++events; },
      NotifyPolicy::EveryChange);
  runtime.settle(20 * sim::kMillisecond);
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(runtime.rvaas().monitor().active(), 1u);

  runtime.client(hosts[0]).unsubscribe(sub_id);
  runtime.settle(20 * sim::kMillisecond);
  EXPECT_EQ(runtime.rvaas().monitor().active(), 0u);
  EXPECT_EQ(runtime.rvaas().stats().unsubscribes_received, 1u);

  util::Rng rng(9);
  random_churn(runtime, rng);
  runtime.settle(20 * sim::kMillisecond);
  EXPECT_EQ(events, 1u);  // nothing new
}

TEST(Monitor, PerClientSubscriptionCapEnforced) {
  ScenarioConfig config;
  config.generated = linear(3);
  config.seed = 6;
  config.rvaas.max_subscriptions_per_client = 1;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  Property property;
  property.kind = QueryKind::TransferSummary;
  auto noop = [](const ClientAgent::MonitorEvent&) {};
  runtime.client(hosts[0]).subscribe(property, noop);
  runtime.client(hosts[0]).subscribe(property, noop);  // over the cap
  runtime.settle(20 * sim::kMillisecond);

  EXPECT_EQ(runtime.rvaas().monitor().active(), 1u);
  EXPECT_GE(runtime.rvaas().stats().bad_requests, 1u);
  // Another client still has room.
  runtime.client(hosts[1]).subscribe(property, noop);
  runtime.settle(20 * sim::kMillisecond);
  EXPECT_EQ(runtime.rvaas().monitor().active(), 2u);
}

// --- a wakeup still waiting on authentication ---

TEST(Monitor, InflightWakeupSupersededOrDroppedBeforeItPushes) {
  // The last host of linear-3 is reserved for a wire session that never
  // connects: its access point stays in every reachable set and the auth
  // request sent there goes unanswered until auth_timeout, so the baseline
  // wakeup waits in flight that long. Three things may happen to it first.
  enum class Interrupt { Churn, Unsubscribe, Evict };
  for (const Interrupt interrupt :
       {Interrupt::Churn, Interrupt::Unsubscribe, Interrupt::Evict}) {
    SCOPED_TRACE(static_cast<int>(interrupt));
    ScenarioConfig config;
    config.generated = linear(3);
    config.seed = 17;
    config.rvaas.polling = core::PollingMode::Disabled;
    config.wire_hosts = {config.generated.hosts.back()};
    ScenarioRuntime runtime(std::move(config));
    const auto& hosts = runtime.hosts();
    core::RvaasController& rvaas = runtime.rvaas();

    std::vector<ClientAgent::MonitorEvent> events;
    Property property;
    property.kind = QueryKind::ReachableEndpoints;
    const std::uint64_t sub_id = runtime.client(hosts[0]).subscribe(
        property, [&events](const ClientAgent::MonitorEvent& event) {
          events.push_back(event);
        });

    // Step until the baseline evaluation has dispatched its auth requests.
    const sim::Time give_up = runtime.loop().now() + 5 * sim::kMillisecond;
    while (rvaas.monitor().stats().wakeups == 0 &&
           runtime.loop().now() < give_up) {
      runtime.loop().run_until(runtime.loop().now() + 50 * sim::kMicrosecond);
    }
    ASSERT_EQ(rvaas.monitor().stats().wakeups, 1u);
    const PropertyMonitor::Subscription* sub =
        rvaas.monitor().find(hosts[0], sub_id);
    ASSERT_NE(sub, nullptr);
    const std::uint64_t first_epoch = sub->evaluated_epoch;
    const std::uint64_t auth_ok = rvaas.stats().auth_replies_ok;

    switch (interrupt) {
      case Interrupt::Churn: {
        FlowMod mod;
        mod.priority = 3;
        mod.cookie = 0x5e5e;
        mod.match = Match().exact(Field::L4Dst, 9999);
        mod.actions = {sdn::drop()};
        runtime.network()
            .switch_sim(sub->footprint.front())
            .apply_flow_mod(kProviderId, mod);
        break;
      }
      case Interrupt::Unsubscribe:
        runtime.client(hosts[0]).unsubscribe(sub_id);
        break;
      case Interrupt::Evict:
        EXPECT_EQ(rvaas.evict_client(hosts[0]), 1u);
        break;
    }
    runtime.settle(20 * sim::kMillisecond);

    if (interrupt == Interrupt::Churn) {
      // The newer evaluation superseded the pending one: exactly one
      // baseline push, carrying the newer evaluation's epoch.
      EXPECT_EQ(rvaas.monitor().stats().wakeups, 2u);
      sub = rvaas.monitor().find(hosts[0], sub_id);
      ASSERT_NE(sub, nullptr);
      EXPECT_GT(sub->evaluated_epoch, first_epoch);
      EXPECT_EQ(rvaas.stats().notifications_sent, 1u);
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].sequence, 1u);
      EXPECT_EQ(events[0].epoch, sub->evaluated_epoch);
    } else {
      // The dropped evaluation never pushes, and the answering peer's auth
      // reply finds nothing left to admit it into.
      EXPECT_EQ(rvaas.monitor().active(), 0u);
      EXPECT_EQ(rvaas.stats().notifications_sent, 0u);
      EXPECT_EQ(rvaas.stats().auth_replies_ok, auth_ok);
      EXPECT_TRUE(events.empty());
    }
  }
}

// --- protocol round-trips for the new message pair ---

TEST(Monitor, SubscribeAndNotificationSerializationRoundTrip) {
  core::SubscribeRequest request;
  request.subscription_id = 77;
  request.client = HostId(4);
  request.policy = NotifyPolicy::EveryChange;
  request.property.kind = QueryKind::Isolation;
  request.property.constraint = Match().exact(Field::IpProto, 6);
  request.property.expect.allowed_endpoints = {HostId(1), HostId(2)};
  request.property.expect.allowed_jurisdictions = {"DE"};
  request.property.expect.require_optimal_path = true;
  request.freshness = 9001;

  util::ByteWriter w;
  request.serialize(w);
  util::ByteReader r(w.data());
  const auto decoded = core::SubscribeRequest::deserialize(r);
  EXPECT_EQ(decoded.subscription_id, request.subscription_id);
  EXPECT_EQ(decoded.client, request.client);
  EXPECT_EQ(decoded.unsubscribe, request.unsubscribe);
  EXPECT_EQ(decoded.policy, request.policy);
  EXPECT_EQ(decoded.property, request.property);
  EXPECT_EQ(decoded.freshness, request.freshness);
  EXPECT_EQ(decoded.signing_payload(), request.signing_payload());

  core::Notification notification;
  notification.subscription_id = 77;
  notification.sequence = 3;
  notification.kind = NotificationKind::ViolationAlert;
  notification.epoch = 41;
  notification.property_fingerprint = request.property.fingerprint();
  notification.reply.kind = QueryKind::Isolation;
  notification.reply.endpoints.push_back(core::EndpointInfo{
      PortRef{SwitchId(2), PortNo(1)}, true, false, std::nullopt});

  util::ByteWriter nw;
  notification.serialize(nw);
  util::ByteReader nr(nw.data());
  const auto ndecoded = core::Notification::deserialize(nr);
  EXPECT_EQ(ndecoded.subscription_id, notification.subscription_id);
  EXPECT_EQ(ndecoded.sequence, notification.sequence);
  EXPECT_EQ(ndecoded.kind, notification.kind);
  EXPECT_EQ(ndecoded.epoch, notification.epoch);
  EXPECT_EQ(ndecoded.property_fingerprint, notification.property_fingerprint);
  EXPECT_EQ(ndecoded.reply.endpoints, notification.reply.endpoints);
  EXPECT_EQ(ndecoded.signing_payload(), notification.signing_payload());
}

TEST(Monitor, GeoSubscriptionRejectedWithoutGeoProvider) {
  // A stored Geo subscription without a geo provider would throw inside
  // every later sweep — it must be rejected at subscribe time instead.
  ScenarioConfig config;
  config.generated = linear(3);
  config.seed = 15;
  config.with_geo = false;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  Property property;
  property.kind = QueryKind::Geo;
  const auto bad_before = runtime.rvaas().stats().bad_requests;
  runtime.client(hosts[0]).subscribe(
      property, [](const ClientAgent::MonitorEvent&) {});
  runtime.settle(20 * sim::kMillisecond);
  EXPECT_EQ(runtime.rvaas().monitor().active(), 0u);
  EXPECT_GT(runtime.rvaas().stats().bad_requests, bad_before);

  // Churn afterwards must be harmless (nothing stored, nothing thrown).
  util::Rng rng(3);
  random_churn(runtime, rng);
  runtime.settle(20 * sim::kMillisecond);
}

TEST(Monitor, ForgedSubscribeRejected) {
  // (Un)subscribe mutates controller state, so unlike a query it must be
  // signed by the enrolled client key: the provider (or any tenant) can
  // seal to the public enclave element, but cannot silence someone else's
  // subscription.
  ScenarioConfig config;
  config.generated = linear(3);
  config.seed = 13;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  Property property;
  property.kind = QueryKind::TransferSummary;
  const std::uint64_t sub_id = runtime.client(hosts[0]).subscribe(
      property, [](const ClientAgent::MonitorEvent&) {});
  runtime.settle(20 * sim::kMillisecond);
  ASSERT_EQ(runtime.rvaas().monitor().active(), 1u);

  // Attacker forges an unsubscribe for hosts[0] under its own key.
  util::Rng rng(99);
  const crypto::SigningKey attacker_key = crypto::SigningKey::generate(rng);
  core::SubscribeRequest forged;
  forged.subscription_id = sub_id;
  forged.client = hosts[0];
  forged.unsubscribe = true;
  forged.freshness = ~std::uint64_t{0};  // freshness alone must not help
  const auto bad_before = runtime.rvaas().stats().bad_requests;
  runtime.network().host_send(
      hosts[1], runtime.network().topology().host_ports(hosts[1]).front(),
      core::inband::make_subscribe_packet(
          runtime.addressing().of(hosts[1]), forged, attacker_key,
          runtime.rvaas().enclave().box_public(), rng));
  runtime.settle(20 * sim::kMillisecond);

  EXPECT_EQ(runtime.rvaas().monitor().active(), 1u);  // still subscribed
  EXPECT_GT(runtime.rvaas().stats().bad_requests, bad_before);
}

TEST(Monitor, ResubscribeIdempotentAndReplacementKeepsSequence) {
  // Engine-level: identical-fingerprint re-subscribe keeps all state; a
  // genuine replacement resets evaluation state but carries the sequence
  // forward (the client-side replay guard remembers the high-water mark).
  sdn::Topology topo;
  topo.add_switch(SwitchId(1), 4, {0, 0, "DE"});
  topo.attach_host(HostId(10), {SwitchId(1), PortNo(1)});
  core::SnapshotManager snap;
  const core::QueryEngine engine(topo, core::EngineConfig{});
  PropertyMonitor monitor(engine);

  PropertyMonitor::Subscription sub;
  sub.id = 1;
  sub.client = HostId(10);
  sub.request_point = PortRef{SwitchId(1), PortNo(1)};
  sub.property.kind = QueryKind::TransferSummary;
  monitor.subscribe(sub);

  core::QueryEngine::EvalContext ctx;
  ASSERT_EQ(monitor.sweep(snap, ctx).size(), 1u);
  const auto first =
      monitor.commit({HostId(10), 1}, QueryReply{});
  EXPECT_NE(first.push, PropertyMonitor::Push::None);
  EXPECT_EQ(first.sequence, 1u);

  // Identical re-subscribe: nothing to re-evaluate, nothing re-pushed.
  monitor.subscribe(sub);
  EXPECT_TRUE(monitor.sweep(snap, ctx).empty());

  // Replacement (different constraint): re-evaluates, sequence continues.
  PropertyMonitor::Subscription replacement = sub;
  replacement.property.constraint = Match().exact(Field::IpProto, 17);
  monitor.subscribe(replacement);
  ASSERT_EQ(monitor.sweep(snap, ctx).size(), 1u);
  const auto second = monitor.commit({HostId(10), 1}, QueryReply{});
  EXPECT_NE(second.push, PropertyMonitor::Push::None);
  EXPECT_EQ(second.sequence, 2u);
}

TEST(Monitor, PropertyFingerprintIsStableAndDiscriminating) {
  Property a;
  a.kind = QueryKind::Geo;
  a.constraint = Match().exact(Field::IpDst, 42);
  a.expect.allowed_jurisdictions = {"DE", "FR"};
  Property b = a;
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.kind = QueryKind::Isolation;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  b = a;
  b.expect.allowed_jurisdictions = {"DE"};
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace rvaas::workload
