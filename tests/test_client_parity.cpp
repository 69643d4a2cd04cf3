// Client-side parity of the two transports: each test body runs against the
// in-band core::ClientAgent and against the TCP net::WireClient, so both
// surface the same client protocol (verified pushes and their per-kind
// counters, the fail-stale outcome flag) and cannot drift apart again.

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <thread>

#include "attacks/attacks.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "sdn/fault_plane.hpp"
#include "workload/wire_world.hpp"

namespace rvaas::workload {
namespace {

using core::ClientSession;
using core::NotificationKind;
using core::Property;
using core::Query;
using core::QueryKind;
using core::RvaasController;
using sdn::FaultDirection;
using sdn::FaultPlane;
using sdn::FaultSpec;
using sdn::HostId;
using sdn::SwitchId;

constexpr sim::Time kMs = sim::kMillisecond;

/// The scenario's first host as an in-band agent; the simulated loop is
/// fast-forwarded by hand.
class InBand {
 public:
  explicit InBand(ScenarioConfig config) : runtime_(std::move(config)) {}

  template <typename Fn>
  auto on_world(Fn fn) {
    return fn(runtime_);
  }
  void settle(sim::Time d) { runtime_.settle(d); }

  ClientSession::Outcome query(const Query& query) {
    return runtime_.query_and_wait(host(), query, sim::kSecond);
  }
  void set_max_staleness(std::uint64_t bound) {
    agent().set_max_staleness(bound);
  }
  void subscribe(const Property& property) {
    agent().subscribe(property, [this](const ClientSession::Event& event) {
      events_.push_back(event);
    });
  }
  /// The next push, letting up to a simulated second pass for it.
  std::optional<ClientSession::Event> next_event() {
    for (int i = 0; i < 100 && events_.empty(); ++i) settle(10 * kMs);
    if (events_.empty()) return std::nullopt;
    ClientSession::Event event = std::move(events_.front());
    events_.pop_front();
    return event;
  }
  const ClientSession::Stats& stats() { return agent().stats(); }

 private:
  HostId host() const { return runtime_.hosts().front(); }
  core::ClientAgent& agent() { return runtime_.client(host()); }

  ScenarioRuntime runtime_;
  std::deque<ClientSession::Event> events_;
};

/// The scenario's first host as a TCP session against a live front-end; the
/// simulated loop runs in real time on the service thread.
class Wire {
 public:
  explicit Wire(ScenarioConfig config) {
    const HostId host = config.generated.hosts.front();
    config.wire_hosts = {host};
    runtime_ = std::make_unique<ScenarioRuntime>(std::move(config));
    service_ = std::make_unique<net::WireService>(runtime_->loop());
    server_ = std::make_unique<net::WireServer>(
        net::WireServerConfig{}, runtime_->rvaas(), *service_,
        runtime_->ias().root_key(), wire_slots(*runtime_, {host}),
        /*seed=*/0x3157);
    service_->start();
    server_->start();
    net::WireClientConfig config_client;
    config_client.port = server_->port();
    config_client.requested_host = host.value;
    client_ = std::make_unique<net::WireClient>(config_client);
    EXPECT_EQ(client_->connect(), net::WelcomeStatus::Ok);
  }
  ~Wire() {
    client_->close();
    server_->stop();
    service_->stop();
  }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  template <typename Fn>
  auto on_world(Fn fn) {
    return service_->call([&] { return fn(*runtime_); });
  }
  /// Waits until `d` of simulated time has passed on the service thread.
  void settle(sim::Time d) {
    const auto now = [this] {
      return on_world([](ScenarioRuntime& r) { return r.loop().now(); });
    };
    const sim::Time until = now() + d;
    while (now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  ClientSession::Outcome query(const Query& query) {
    return client_->query(query, 30'000);
  }
  void set_max_staleness(std::uint64_t bound) {
    client_->set_max_staleness(bound);
  }
  void subscribe(const Property& property) { client_->subscribe(property); }
  std::optional<ClientSession::Event> next_event() {
    return client_->wait_notification(30'000);
  }
  const ClientSession::Stats& stats() { return client_->stats(); }

 private:
  std::unique_ptr<ScenarioRuntime> runtime_;
  std::unique_ptr<net::WireService> service_;
  std::unique_ptr<net::WireServer> server_;
  std::unique_ptr<net::WireClient> client_;
};

/// Lets simulated time pass in 10ms steps until `done` holds, for at most a
/// simulated second.
template <typename Transport, typename Pred>
bool settle_until(Transport& client, Pred done) {
  for (int i = 0; i < 100 && !done(); ++i) client.settle(10 * kMs);
  return done();
}

template <typename Transport>
class ClientParity : public ::testing::Test {};

using Transports = ::testing::Types<InBand, Wire>;
TYPED_TEST_SUITE(ClientParity, Transports);

TYPED_TEST(ClientParity, AlertThenAllClearPushes) {
  ScenarioConfig config;
  config.generated = linear(3);
  config.seed = 42;
  const std::vector<HostId> hosts = config.generated.hosts;
  TypeParam client(std::move(config));

  Property property;
  property.kind = QueryKind::ReachableEndpoints;
  property.expect.allowed_endpoints = {hosts[1], hosts[2]};
  client.subscribe(property);

  // Baseline: all endpoints legitimate and authenticated.
  const auto baseline = client.next_event();
  ASSERT_TRUE(baseline.has_value());
  EXPECT_TRUE(baseline->signature_ok);
  EXPECT_EQ(baseline->kind, NotificationKind::AllClear);
  EXPECT_TRUE(baseline->verdict.ok);
  EXPECT_EQ(baseline->sequence, 1u);

  // The compromised provider clones the victim's flow to a dark port: a
  // signed ViolationAlert whose local re-check fails as well.
  attacks::ExfiltrationAttack attack(hosts[0], hosts[2]);
  ASSERT_TRUE(client.on_world([&attack](ScenarioRuntime& runtime) {
    return attack.launch(runtime.provider(), runtime.network()).has_value();
  }));
  const auto alert = client.next_event();
  ASSERT_TRUE(alert.has_value());
  EXPECT_TRUE(alert->signature_ok);
  EXPECT_EQ(alert->kind, NotificationKind::ViolationAlert);
  EXPECT_FALSE(alert->verdict.ok);
  EXPECT_EQ(alert->sequence, 2u);

  // Removing the injected rule flips the verdict back.
  client.on_world([&attack](ScenarioRuntime& runtime) {
    attack.revert(runtime.provider(), runtime.network());
  });
  const auto clear = client.next_event();
  ASSERT_TRUE(clear.has_value());
  EXPECT_EQ(clear->kind, NotificationKind::AllClear);
  EXPECT_TRUE(clear->verdict.ok);
  EXPECT_EQ(clear->sequence, 3u);

  const ClientSession::Stats& stats = client.stats();
  EXPECT_EQ(stats.subscribes_sent, 1u);
  EXPECT_EQ(stats.notifications_received, 3u);
  EXPECT_EQ(stats.bad_notifications, 0u);
  EXPECT_EQ(stats.alerts_received, 1u);
  EXPECT_EQ(stats.all_clears_received, 2u);
}

TYPED_TEST(ClientParity, MaxStalenessFlagsDegradedRepliesUntilHeal) {
  // Declared before the world so it outlives the Network holding it.
  FaultPlane plane(3);
  ScenarioConfig config;
  config.generated = linear(4);
  config.seed = 7;
  config.rvaas.polling = core::PollingMode::Fixed;
  config.rvaas.poll_period = 20 * kMs;
  TypeParam client(std::move(config));

  // Blackhole a transit switch, not the client's access switch: the query
  // path stays up while the verifier's view of part of the footprint goes
  // stale.
  const SwitchId dark = client.on_world([&plane](ScenarioRuntime& runtime) {
    plane.set_scope(sdn::ControllerId(2));  // the RVaaS controller
    runtime.network().set_fault_plane(&plane);
    const SwitchId sw = runtime.network().topology().switches()[2];
    FaultSpec blackhole;
    blackhole.drop_probability = 1.0;
    plane.set_fault(sw, FaultDirection::ToSwitch, blackhole);
    plane.set_fault(sw, FaultDirection::FromSwitch, blackhole);
    return sw;
  });
  const auto health = [&] {
    return client.on_world([dark](ScenarioRuntime& runtime) {
      return runtime.rvaas().switch_health(dark);
    });
  };
  ASSERT_TRUE(settle_until(client, [&] {
    return health() == RvaasController::SwitchHealth::Unreachable;
  }));

  // Fail-stale is opt-in: the degraded reply alone is not flagged...
  const Query query;
  const auto lenient = client.query(query);
  ASSERT_TRUE(lenient.reply.has_value());
  EXPECT_TRUE(lenient.reply->freshness.degraded());
  EXPECT_FALSE(lenient.stale);

  // ...but breaches a 1ns bound.
  client.set_max_staleness(1);
  const auto stale = client.query(query);
  ASSERT_TRUE(stale.reply.has_value());
  EXPECT_TRUE(stale.signature_ok);
  EXPECT_TRUE(stale.stale);

  // After the heal the same query under the same bound is fresh again.
  client.on_world([&plane](ScenarioRuntime&) { plane.heal_all(); });
  ASSERT_TRUE(settle_until(client, [&] {
    return health() == RvaasController::SwitchHealth::Healthy;
  }));
  const auto fresh = client.query(query);
  ASSERT_TRUE(fresh.reply.has_value());
  EXPECT_FALSE(fresh.reply->freshness.degraded());
  EXPECT_FALSE(fresh.stale);
  EXPECT_EQ(client.stats().timeouts, 0u);
}

}  // namespace
}  // namespace rvaas::workload
