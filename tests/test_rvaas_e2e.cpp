// End-to-end integration tests: the full Fig. 1 / Fig. 2 protocol, attack
// detection through client queries, monitoring disciplines, suppression
// timeout, attestation failure paths, and the link prober.

#include <gtest/gtest.h>

#include "workload/scenario.hpp"

namespace rvaas::workload {
namespace {

using core::Expectation;
using core::Query;
using core::QueryKind;
using core::Verdict;
using sdn::HostId;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

ScenarioConfig line_config(std::uint32_t n = 3, std::size_t tenants = 1) {
  ScenarioConfig config;
  config.generated = linear(n);
  config.tenant_count = tenants;
  config.seed = 42;
  return config;
}

TEST(E2E, Figure1And2ProtocolRoundTrip) {
  ScenarioRuntime runtime(line_config(3));
  const auto& hosts = runtime.hosts();

  Query query;
  query.kind = QueryKind::ReachableEndpoints;
  const auto outcome = runtime.query_and_wait(hosts[0], query);

  ASSERT_FALSE(outcome.timed_out);
  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_TRUE(outcome.signature_ok);

  // The client's traffic reaches the other two tenant members; both
  // authenticated in-band (Fig. 2).
  const core::QueryReply& reply = *outcome.reply;
  EXPECT_EQ(reply.endpoints.size(), 2u);
  EXPECT_EQ(reply.auth.issued, 2u);
  EXPECT_EQ(reply.auth.responded, 2u);
  for (const auto& e : reply.endpoints) {
    EXPECT_TRUE(e.authenticated);
    ASSERT_TRUE(e.authenticated_as.has_value());
  }

  Expectation expect;
  expect.allowed_endpoints = {hosts[1], hosts[2]};
  const Verdict verdict = core::evaluate_reply(reply, expect);
  EXPECT_TRUE(verdict.ok) << (verdict.violations.empty()
                                  ? ""
                                  : verdict.violations[0]);

  // Paper: endpoint-only answers reveal no paths.
  EXPECT_TRUE(reply.disclosed_paths.empty());

  // Protocol stats: 1 query, 2 auth requests, 2 auth replies, 1 reply.
  const auto& stats = runtime.rvaas().stats();
  EXPECT_EQ(stats.queries_received, 1u);
  EXPECT_EQ(stats.auth_requests_sent, 2u);
  EXPECT_EQ(stats.auth_replies_ok, 2u);
  EXPECT_EQ(stats.replies_sent, 1u);
}

TEST(E2E, ExfiltrationDetectedByReachQuery) {
  ScenarioRuntime runtime(line_config(3));
  const auto& hosts = runtime.hosts();

  attacks::ExfiltrationAttack attack(hosts[0], hosts[2]);
  const auto record = attack.launch(runtime.provider(), runtime.network());
  ASSERT_TRUE(record.has_value());
  runtime.settle();

  Query query;
  query.kind = QueryKind::ReachableEndpoints;
  const auto outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(outcome.reply.has_value());

  Expectation expect;
  expect.allowed_endpoints = {hosts[1], hosts[2]};
  const Verdict verdict = core::evaluate_reply(*outcome.reply, expect);
  EXPECT_FALSE(verdict.ok);
  // The cloned copy surfaces as a dark endpoint.
  bool dark_flagged = false;
  for (const auto& v : verdict.violations) {
    dark_flagged |= v.find("dark") != std::string::npos;
  }
  EXPECT_TRUE(dark_flagged);
}

TEST(E2E, JoinAttackDetectedByIsolationQuery) {
  ScenarioRuntime runtime(line_config(4));
  const auto& hosts = runtime.hosts();

  // Attacker plugs into a dark port on switch 4.
  const PortRef attacker_port{SwitchId(4), PortNo(3)};
  attacks::JoinAttack attack(hosts[0], attacker_port);
  ASSERT_TRUE(attack.launch(runtime.provider(), runtime.network()).has_value());
  runtime.settle();

  Query query;
  query.kind = QueryKind::Isolation;
  const auto outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(outcome.reply.has_value());

  Expectation expect;
  expect.allowed_endpoints = {hosts[1], hosts[2], hosts[3]};
  const Verdict verdict = core::evaluate_reply(*outcome.reply, expect);
  EXPECT_FALSE(verdict.ok);

  // The rogue access point appears among the endpoints.
  bool rogue_listed = false;
  for (const auto& e : outcome.reply->endpoints) {
    rogue_listed |= (e.access_point == attacker_port);
  }
  EXPECT_TRUE(rogue_listed);
}

TEST(E2E, IsolationBreachDetectedByVictim) {
  ScenarioRuntime runtime(line_config(4, /*tenants=*/2));
  const auto& hosts = runtime.hosts();
  // hosts[0], hosts[2] in tenant 1; hosts[1], hosts[3] in tenant 2.

  attacks::IsolationBreachAttack attack(hosts[1], hosts[2]);
  ASSERT_TRUE(attack.launch(runtime.provider(), runtime.network()).has_value());
  runtime.settle();

  // Victim hosts[2] asks who can reach it.
  Query query;
  query.kind = QueryKind::ReachingSources;
  const auto outcome = runtime.query_and_wait(hosts[2], query);
  ASSERT_TRUE(outcome.reply.has_value());

  Expectation expect;
  expect.allowed_endpoints = {hosts[0]};  // only the tenant peer
  const Verdict verdict = core::evaluate_reply(*outcome.reply, expect);
  EXPECT_FALSE(verdict.ok);
}

TEST(E2E, GeoDiversionDetectedByGeoQuery) {
  // Line of 6: jurisdictions change in thirds (DE DE FR FR US US).
  ScenarioRuntime runtime(line_config(6));
  const auto& hosts = runtime.hosts();

  // Baseline: traffic from host0 to host1 stays within the first third...
  Query query;
  query.kind = QueryKind::Geo;
  query.constraint = sdn::Match().exact(
      sdn::Field::IpDst, runtime.addressing().of(hosts[1]).ip);
  {
    const auto outcome = runtime.query_and_wait(hosts[0], query);
    ASSERT_TRUE(outcome.reply.has_value());
    Expectation expect;
    expect.allowed_jurisdictions = {"DE"};
    EXPECT_TRUE(core::evaluate_reply(*outcome.reply, expect).ok);
  }

  // ...until the compromised controller diverts it through switch 5.
  attacks::GeoDiversionAttack attack(hosts[0], hosts[1], SwitchId(5));
  ASSERT_TRUE(attack.launch(runtime.provider(), runtime.network()).has_value());
  runtime.settle();

  const auto outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(outcome.reply.has_value());
  Expectation expect;
  expect.allowed_jurisdictions = {"DE"};
  const Verdict verdict = core::evaluate_reply(*outcome.reply, expect);
  EXPECT_FALSE(verdict.ok);
}

TEST(E2E, QuerySuppressionDetectedByTimeout) {
  ScenarioRuntime runtime(line_config(3));
  const auto& hosts = runtime.hosts();

  attacks::QuerySuppressionAttack attack(SwitchId(1));
  ASSERT_TRUE(attack.launch(runtime.provider(), runtime.network()).has_value());
  runtime.settle();

  Query query;
  query.kind = QueryKind::ReachableEndpoints;
  const auto outcome =
      runtime.query_and_wait(hosts[0], query, 30 * sim::kMillisecond);
  EXPECT_TRUE(outcome.timed_out);
  EXPECT_EQ(runtime.client(hosts[0]).stats().timeouts, 1u);
}

TEST(E2E, FlappingRuleCaughtByPassiveMonitoring) {
  ScenarioConfig config = line_config(3);
  config.rvaas.passive_monitoring = true;
  config.rvaas.polling = core::PollingMode::Disabled;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  attacks::ReconfigFlappingAttack attack(hosts[0], 20 * sim::kMillisecond,
                                         2 * sim::kMillisecond);
  ASSERT_TRUE(attack
                  .launch(runtime.provider(), runtime.network(),
                          runtime.loop().now() + 100 * sim::kMillisecond)
                  .has_value());
  runtime.settle(120 * sim::kMillisecond);
  EXPECT_GE(attack.cycles_run(), 4u);

  // Passive monitoring records every transient rule.
  const auto flapping =
      runtime.rvaas().snapshot().short_lived(5 * sim::kMillisecond);
  EXPECT_GE(flapping.size(), attack.cycles_run());
  EXPECT_TRUE(runtime.rvaas().snapshot().history_contains(
      [](const core::HistoryRecord& r) { return r.entry.cookie == 0xf1a9; }));
}

TEST(E2E, ActiveOnlyPollingMissesShortDwell) {
  // With passive monitoring off and slow fixed polling, a short-dwell
  // flapping rule is likely never observed — the motivation for passive
  // events + randomized polls.
  ScenarioConfig config = line_config(3);
  config.rvaas.passive_monitoring = false;
  config.rvaas.polling = core::PollingMode::Fixed;
  config.rvaas.poll_period = 50 * sim::kMillisecond;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  attacks::ReconfigFlappingAttack attack(hosts[0], 50 * sim::kMillisecond,
                                         1 * sim::kMillisecond);
  ASSERT_TRUE(attack
                  .launch(runtime.provider(), runtime.network(),
                          runtime.loop().now() + 200 * sim::kMillisecond)
                  .has_value());
  runtime.settle(250 * sim::kMillisecond);

  const bool observed = runtime.rvaas().snapshot().history_contains(
      [](const core::HistoryRecord& r) { return r.entry.cookie == 0xf1a9; });
  // Fixed 50ms polls vs 1ms dwell: with this seed the attacker stays
  // invisible (deterministic, so assert the miss).
  EXPECT_FALSE(observed);
}

TEST(E2E, AttestationRejectsTamperedEnclave) {
  ScenarioRuntime runtime(line_config(3));
  const auto& hosts = runtime.hosts();
  util::Rng rng(123);

  // A fake RVaaS with different code identity cannot pass the client check.
  enclave::Enclave fake("evil-rvaas", "1.0", rng);
  const enclave::Quote fake_quote = runtime.ias().quote(
      fake, enclave::bind_keys(fake.verify_key(), fake.box_public()));
  const bool accepted = runtime.client(hosts[0]).verify_attestation(
      fake_quote, runtime.ias().root_key(),
      enclave::measure_code("rvaas", "1.0"), fake.verify_key(),
      fake.box_public());
  EXPECT_FALSE(accepted);

  // Quote for the genuine enclave, but binding different keys: rejected.
  const bool key_swap = runtime.client(hosts[0]).verify_attestation(
      runtime.rvaas().quote(), runtime.ias().root_key(),
      enclave::measure_code("rvaas", "1.0"), fake.verify_key(),
      fake.box_public());
  EXPECT_FALSE(key_swap);
}

TEST(E2E, PathLengthQueryReportsOptimality) {
  ScenarioRuntime runtime(line_config(4));
  const auto& hosts = runtime.hosts();

  Query query;
  query.kind = QueryKind::PathLength;
  query.peer = hosts[3];
  const auto outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_TRUE(outcome.reply->path_found);
  EXPECT_EQ(outcome.reply->installed_path_length, 4u);
  EXPECT_EQ(outcome.reply->optimal_path_length, 4u);

  Expectation expect;
  expect.require_optimal_path = true;
  EXPECT_TRUE(core::evaluate_reply(*outcome.reply, expect).ok);
}

TEST(E2E, TransferSummaryQueryAnswered) {
  ScenarioRuntime runtime(line_config(3));
  const auto& hosts = runtime.hosts();
  Query query;
  query.kind = QueryKind::TransferSummary;
  const auto outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_EQ(outcome.reply->transfer_summary.size(), 2u);  // two peers
}

TEST(E2E, FairnessQuerySeesTenantMeter) {
  ScenarioConfig config = line_config(4, /*tenants=*/2);
  config.tenant_meters[0] = sdn::MeterConfig{10'000'000, 10'000};
  // Fairness reads meters from polls; poll quickly.
  config.rvaas.poll_period = 5 * sim::kMillisecond;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();
  runtime.settle(20 * sim::kMillisecond);  // let polls collect meters

  Query query;
  query.kind = QueryKind::Fairness;
  // Constrain to untagged traffic (what the client's NIC actually emits);
  // unconstrained queries would also count VLAN-spoofed injections.
  query.constraint = sdn::Match().exact(sdn::Field::Vlan, 0);
  const auto metered = runtime.query_and_wait(hosts[0], query);  // tenant 1
  const auto unmetered = runtime.query_and_wait(hosts[1], query);  // tenant 2
  ASSERT_TRUE(metered.reply.has_value() && unmetered.reply.has_value());
  EXPECT_EQ(metered.reply->fairness[0].value, 10'000'000u);
  EXPECT_EQ(unmetered.reply->fairness[0].value, ~std::uint64_t{0});
}

TEST(E2E, FullPathsPolicyLeaksAndEndpointsOnlyDoesNot) {
  // E5 ablation at test scale: the strawman discloses the path behind an
  // endpoint answer; under the default policy no query kind's reply
  // discloses any path.
  for (const auto policy : {core::ConfidentialityPolicy::FullPaths,
                            core::ConfidentialityPolicy::EndpointsOnly}) {
    ScenarioConfig config = line_config(3);
    config.rvaas.policy = policy;
    ScenarioRuntime runtime(std::move(config));
    const auto& hosts = runtime.hosts();

    for (const QueryKind kind :
         {QueryKind::ReachableEndpoints, QueryKind::ReachingSources,
          QueryKind::Isolation, QueryKind::Geo, QueryKind::PathLength,
          QueryKind::Fairness, QueryKind::TransferSummary}) {
      Query query;
      query.kind = kind;
      if (kind == QueryKind::PathLength) query.peer = hosts[2];
      const auto outcome = runtime.query_and_wait(hosts[0], query);
      ASSERT_TRUE(outcome.reply.has_value()) << core::to_string(kind);
      if (policy == core::ConfidentialityPolicy::EndpointsOnly) {
        EXPECT_TRUE(outcome.reply->disclosed_paths.empty())
            << core::to_string(kind);
      } else if (kind == QueryKind::ReachableEndpoints) {
        EXPECT_FALSE(outcome.reply->disclosed_paths.empty());
      }
    }
  }
}

TEST(E2E, LinkProberStaysQuietOnIntactWiring) {
  ScenarioConfig config = line_config(3);
  config.rvaas.enable_link_prober = true;
  config.rvaas.probe_period = 10 * sim::kMillisecond;
  ScenarioRuntime runtime(std::move(config));
  runtime.settle(50 * sim::kMillisecond);
  EXPECT_GT(runtime.rvaas().stats().probes_sent, 0u);
  EXPECT_TRUE(runtime.rvaas().wiring_alarms().empty());
}

TEST(E2E, RandomizedPollingKeepsSnapshotFresh) {
  ScenarioConfig config = line_config(3);
  config.rvaas.passive_monitoring = false;
  config.rvaas.polling = core::PollingMode::Randomized;
  config.rvaas.poll_period = 5 * sim::kMillisecond;
  ScenarioRuntime runtime(std::move(config));
  runtime.settle(40 * sim::kMillisecond);

  // Active-only: the snapshot converges to the provider's installed rules
  // purely via polls (recorded as discrepancies, adopted as truth).
  EXPECT_GT(runtime.rvaas().snapshot().polls_applied(), 0u);
  EXPECT_GT(runtime.rvaas().snapshot().entry_count(), 0u);

  const auto& hosts = runtime.hosts();
  Query query;
  query.kind = QueryKind::ReachableEndpoints;
  const auto outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_EQ(outcome.reply->endpoints.size(), 2u);
}

TEST(E2E, QueriesWorkOnFatTree) {
  ScenarioConfig config;
  config.generated = fat_tree(4);
  config.seed = 9;
  ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  Query query;
  query.kind = QueryKind::ReachableEndpoints;
  const auto outcome =
      runtime.query_and_wait(hosts[0], query, 100 * sim::kMillisecond);
  ASSERT_TRUE(outcome.reply.has_value());
  EXPECT_EQ(outcome.reply->endpoints.size(), hosts.size() - 1);
  EXPECT_EQ(outcome.reply->auth.responded, outcome.reply->auth.issued);
}

}  // namespace
}  // namespace rvaas::workload
