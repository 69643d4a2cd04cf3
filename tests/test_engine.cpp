// QueryEngine::evaluate: every query kind's answer, per-client evaluation,
// confidentiality redaction, plus the geo providers.

#include <gtest/gtest.h>

#include "rvaas/engine.hpp"
#include "workload/scenario.hpp"

namespace rvaas::core {
namespace {

using sdn::Field;
using sdn::FlowEntry;
using sdn::FlowUpdate;
using sdn::FlowUpdateKind;
using sdn::HostId;
using sdn::Match;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

// h10 - s1 - s2 - s3 - h11; h12 at s2; dark port s3:p2.
struct EngineFixture {
  sdn::Topology topo;
  SnapshotManager snap;
  std::uint64_t next_id = 1;

  EngineFixture() {
    topo.add_switch(SwitchId(1), 4, {50.0, 8.0, "DE"});
    topo.add_switch(SwitchId(2), 4, {48.8, 2.3, "FR"});
    topo.add_switch(SwitchId(3), 4, {40.7, -74.0, "US"});
    topo.add_link({SwitchId(1), PortNo(0)}, {SwitchId(2), PortNo(0)});
    topo.add_link({SwitchId(2), PortNo(1)}, {SwitchId(3), PortNo(0)});
    topo.attach_host(HostId(10), {SwitchId(1), PortNo(1)});
    topo.attach_host(HostId(11), {SwitchId(3), PortNo(1)});
    topo.attach_host(HostId(12), {SwitchId(2), PortNo(2)});
  }

  void add_rule(SwitchId sw, std::uint16_t priority, Match match,
                sdn::ActionList actions,
                std::optional<sdn::MeterId> meter = std::nullopt) {
    FlowEntry e;
    e.id = sdn::FlowEntryId(next_id++);
    e.priority = priority;
    e.match = std::move(match);
    e.actions = std::move(actions);
    e.meter = meter;
    snap.apply_update({sw, FlowUpdateKind::Added, e}, 0);
  }

  void install_line_routing() {
    add_rule(SwitchId(1), 5, Match().in_port(PortNo(1)),
             {sdn::output(PortNo(0))});
    add_rule(SwitchId(2), 5, Match().in_port(PortNo(0)),
             {sdn::output(PortNo(1))});
    add_rule(SwitchId(3), 5, Match().in_port(PortNo(0)),
             {sdn::output(PortNo(1))});
    // Reverse path.
    add_rule(SwitchId(3), 5, Match().in_port(PortNo(1)),
             {sdn::output(PortNo(0))});
    add_rule(SwitchId(2), 5, Match().in_port(PortNo(1)),
             {sdn::output(PortNo(0))});
    add_rule(SwitchId(1), 5, Match().in_port(PortNo(0)),
             {sdn::output(PortNo(1))});
  }

  QueryEngine engine(ConfidentialityPolicy policy =
                         ConfidentialityPolicy::EndpointsOnly) {
    return QueryEngine(topo, EngineConfig{policy, 64});
  }
};

// h10's access point: every evaluation below asks from here unless noted.
const PortRef kH10Ap{SwitchId(1), PortNo(1)};

Property of_kind(QueryKind kind) {
  Property property;
  property.kind = kind;
  return property;
}

QueryEngine::EvalContext from(PortRef ap) {
  QueryEngine::EvalContext ctx;
  ctx.from = ap;
  return ctx;
}

TEST(Engine, ReachableEndpointsBasic) {
  EngineFixture f;
  f.install_line_routing();
  const QueryEngine engine = f.engine();
  const auto ev = engine.evaluate(
      f.snap, of_kind(QueryKind::ReachableEndpoints), from(kH10Ap));

  ASSERT_EQ(ev.reply.endpoints.size(), 1u);
  EXPECT_EQ(ev.reply.endpoints[0].access_point,
            (PortRef{SwitchId(3), PortNo(1)}));
  EXPECT_FALSE(ev.reply.endpoints[0].dark);
  EXPECT_EQ(ev.to_authenticate,
            (std::vector<PortRef>{{SwitchId(3), PortNo(1)}}));
  ASSERT_NE(ev.primary_reach, nullptr);
  EXPECT_TRUE(ev.primary_reach->loops.empty());
}

TEST(Engine, DarkEndpointMarked) {
  EngineFixture f;
  f.add_rule(SwitchId(1), 5, Match().in_port(PortNo(1)),
             {sdn::output(PortNo(2))});  // s1:p2 is dark
  const QueryEngine engine = f.engine();
  const auto ev = engine.evaluate(
      f.snap, of_kind(QueryKind::ReachableEndpoints), from(kH10Ap));
  ASSERT_EQ(ev.reply.endpoints.size(), 1u);
  EXPECT_TRUE(ev.reply.endpoints[0].dark);
  EXPECT_TRUE(ev.to_authenticate.empty());  // nobody to probe
}

TEST(Engine, ReachingSourcesFindsSenders) {
  EngineFixture f;
  f.install_line_routing();
  const QueryEngine engine = f.engine();
  const auto ev =
      engine.evaluate(f.snap, of_kind(QueryKind::ReachingSources),
                      from(PortRef{SwitchId(3), PortNo(1)}));
  ASSERT_EQ(ev.reply.endpoints.size(), 1u);
  EXPECT_EQ(ev.reply.endpoints[0].access_point, kH10Ap);
}

TEST(Engine, IsolationUnionsBothDirections) {
  EngineFixture f;
  f.install_line_routing();
  // Extra one-way path h12 -> h10 (h12 can reach h10 but not vice versa).
  f.add_rule(SwitchId(2), 6, Match().in_port(PortNo(2)),
             {sdn::output(PortNo(0))});
  const QueryEngine engine = f.engine();
  const auto ev =
      engine.evaluate(f.snap, of_kind(QueryKind::Isolation), from(kH10Ap));
  // Endpoints: h11's AP (forward) + h12's AP (backward source).
  ASSERT_EQ(ev.reply.endpoints.size(), 2u);
  std::set<PortRef> got;
  for (const auto& e : ev.reply.endpoints) got.insert(e.access_point);
  EXPECT_TRUE(got.contains(PortRef{SwitchId(3), PortNo(1)}));
  EXPECT_TRUE(got.contains(PortRef{SwitchId(2), PortNo(2)}));
  // No duplicates in the auth list.
  EXPECT_EQ(ev.to_authenticate.size(), 2u);
}

TEST(Engine, GeoJurisdictionsAlongPath) {
  EngineFixture f;
  f.install_line_routing();
  const QueryEngine engine = f.engine();
  const DisclosedGeo geo(f.topo);
  QueryEngine::EvalContext ctx = from(kH10Ap);
  ctx.geo = &geo;
  const auto ev = engine.evaluate(f.snap, of_kind(QueryKind::Geo), ctx);
  EXPECT_EQ(ev.reply.jurisdictions,
            (std::vector<std::string>{"DE", "FR", "US"}));
}

TEST(Engine, PathLengthOptimalAndDetour) {
  EngineFixture f;
  f.install_line_routing();
  const QueryEngine engine = f.engine();
  control::HostAddressing addressing;
  addressing.assign(HostId(11));
  Property property = of_kind(QueryKind::PathLength);
  property.peer = HostId(11);
  QueryEngine::EvalContext ctx = from(kH10Ap);
  ctx.addressing = &addressing;
  const auto ev = engine.evaluate(f.snap, property, ctx);
  // h11's address is matched by the wildcard line rules.
  EXPECT_TRUE(ev.reply.path_found);
  EXPECT_EQ(ev.reply.installed_path_length, 3u);
  EXPECT_EQ(ev.reply.optimal_path_length, 3u);
}

TEST(Engine, FairnessReportsMeters) {
  EngineFixture f;
  f.install_line_routing();
  // Meter on s2's forward rule.
  f.snap.reconcile(
      [] {
        sdn::StatsReply reply;
        reply.sw = SwitchId(2);
        reply.meters = {{sdn::MeterId(7), sdn::MeterConfig{5'000'000, 1000}}};
        return reply;
      }(),
      0);
  // Re-add s2's rule with the meter attached (reconcile wiped entries for
  // s2, since the stats reply carried none).
  f.add_rule(SwitchId(2), 5, Match().in_port(PortNo(0)),
             {sdn::output(PortNo(1))}, sdn::MeterId(7));

  const QueryEngine engine = f.engine();
  const auto metrics =
      engine.evaluate(f.snap, of_kind(QueryKind::Fairness), from(kH10Ap))
          .reply.fairness;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].name, "min-rate-bps");
  EXPECT_EQ(metrics[0].value, 5'000'000u);
  EXPECT_EQ(metrics[1].name, "metered-switches");
  EXPECT_EQ(metrics[1].value, 1u);
}

TEST(Engine, FairnessUnmeteredIsMax) {
  EngineFixture f;
  f.install_line_routing();
  const QueryEngine engine = f.engine();
  const auto metrics =
      engine.evaluate(f.snap, of_kind(QueryKind::Fairness), from(kH10Ap))
          .reply.fairness;
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].value, ~std::uint64_t{0});
}

TEST(Engine, TransferSummaryCountsCubes) {
  EngineFixture f;
  // TCP one way, everything else another way.
  f.add_rule(SwitchId(1), 9,
             Match().in_port(PortNo(1)).exact(Field::IpProto, sdn::kIpProtoTcp),
             {sdn::output(PortNo(0))});
  f.add_rule(SwitchId(1), 5, Match().in_port(PortNo(1)),
             {sdn::output(PortNo(2))});
  f.add_rule(SwitchId(2), 5, Match().in_port(PortNo(0)),
             {sdn::output(PortNo(2))});

  const QueryEngine engine = f.engine();
  const auto summary =
      engine
          .evaluate(f.snap, of_kind(QueryKind::TransferSummary), from(kH10Ap))
          .reply.transfer_summary;
  ASSERT_EQ(summary.size(), 2u);
  for (const auto& entry : summary) EXPECT_GE(entry.cube_count, 1u);
}

TEST(Engine, ConstraintSpaceRestrictsQueries) {
  EngineFixture f;
  f.add_rule(SwitchId(1), 9,
             Match().in_port(PortNo(1)).exact(Field::IpProto, sdn::kIpProtoTcp),
             {sdn::output(PortNo(0))});
  f.add_rule(SwitchId(2), 5, Match(), {sdn::output(PortNo(2))});
  const QueryEngine engine = f.engine();

  // Constrained to UDP: the TCP-only rule cannot carry it anywhere.
  Property property = of_kind(QueryKind::ReachableEndpoints);
  property.constraint = Match().exact(Field::IpProto, sdn::kIpProtoUdp);
  const auto ev = engine.evaluate(f.snap, property, from(kH10Ap));
  EXPECT_TRUE(ev.reply.endpoints.empty());
}

TEST(Engine, DifferentClientsGetDifferentAnswers) {
  workload::ScenarioConfig config;
  config.generated = workload::linear(4);
  config.tenant_count = 2;
  config.seed = 7;
  workload::ScenarioRuntime runtime(std::move(config));
  const sdn::Topology& topo = runtime.network().topology();
  const QueryEngine engine(topo, EngineConfig{});
  const auto ask = [&](HostId client) {
    return engine
        .evaluate(runtime.rvaas().snapshot(),
                  of_kind(QueryKind::ReachableEndpoints),
                  from(topo.host_ports(client).front()))
        .reply;
  };

  // Tenants are assigned round-robin, so host 0 and host 1 live in different
  // tenants and must see different endpoint sets.
  const QueryReply r0 = ask(runtime.hosts()[0]);
  const QueryReply r1 = ask(runtime.hosts()[1]);
  EXPECT_FALSE(r0.endpoints.empty());
  EXPECT_NE(r0.signing_payload(), r1.signing_payload());
}

TEST(Engine, RenderPathsDeduplicates) {
  EngineFixture f;
  f.install_line_routing();
  // TCP takes its own rule at s1 but the same switch path as the rest.
  f.add_rule(SwitchId(1), 9,
             Match().in_port(PortNo(1)).exact(Field::IpProto, sdn::kIpProtoTcp),
             {sdn::output(PortNo(0))});
  const QueryEngine engine = f.engine(ConfidentialityPolicy::FullPaths);
  const auto ev = engine.evaluate(
      f.snap, of_kind(QueryKind::ReachableEndpoints), from(kH10Ap));
  // Two delivered subspaces (TCP and the rest), one rendered path.
  ASSERT_NE(ev.primary_reach, nullptr);
  EXPECT_EQ(ev.primary_reach->endpoints.size(), 2u);
  EXPECT_EQ(ev.reply.disclosed_paths,
            (std::vector<std::string>{"s1->s2->s3"}));
}

// A standing subscription keeps its evaluation's footprint for its whole
// lifetime, so the union footprint must not keep the slots each traversal
// appended before the sort-unique (ReachingSources and Isolation run one
// traversal per access point).
TEST(Engine, FootprintSizedToContentsForEveryKind) {
  workload::ScenarioConfig config;
  config.generated = workload::grid(3, 3);
  workload::ScenarioRuntime runtime(std::move(config));
  const sdn::Topology& topo = runtime.network().topology();
  const QueryEngine engine(topo, EngineConfig{});
  const DisclosedGeo geo(topo);
  QueryEngine::EvalContext ctx =
      from(topo.host_ports(runtime.hosts().front()).front());
  ctx.geo = &geo;
  ctx.addressing = &runtime.addressing();

  for (const QueryKind kind :
       {QueryKind::ReachableEndpoints, QueryKind::ReachingSources,
        QueryKind::Isolation, QueryKind::Geo, QueryKind::PathLength,
        QueryKind::Fairness, QueryKind::TransferSummary,
        QueryKind::PolicyCompliance}) {
    Property property = of_kind(kind);
    property.peer = runtime.hosts().back();
    const auto ev = engine.evaluate(runtime.rvaas().snapshot(), property, ctx);
    // PolicyCompliance without a federation walk consults no switch.
    EXPECT_EQ(ev.footprint.empty(), kind == QueryKind::PolicyCompliance)
        << to_string(kind);
    EXPECT_EQ(ev.footprint.capacity(), ev.footprint.size()) << to_string(kind);
  }
}

// --- geo providers ---

TEST(GeoProviders, DisclosedReturnsTruth) {
  EngineFixture f;
  const DisclosedGeo geo(f.topo);
  ASSERT_TRUE(geo.locate(SwitchId(1)).has_value());
  EXPECT_EQ(geo.locate(SwitchId(1))->jurisdiction, "DE");
  EXPECT_FALSE(geo.locate(SwitchId(99)).has_value());
}

TEST(GeoProviders, CrowdSourcedAveragesReports) {
  EngineFixture f;
  CrowdSourcedGeo geo(f.topo);
  geo.add_report({SwitchId(1), PortNo(1)}, {50.0, 8.0, "DE"});
  geo.add_report({SwitchId(1), PortNo(1)}, {50.2, 8.2, "DE"});
  geo.add_report({SwitchId(1), PortNo(1)}, {50.1, 8.1, "FR"});

  const auto loc = geo.locate(SwitchId(1));
  ASSERT_TRUE(loc.has_value());
  EXPECT_NEAR(loc->latitude, 50.1, 1e-9);
  EXPECT_EQ(loc->jurisdiction, "DE");  // majority
}

TEST(GeoProviders, CrowdSourcedBorrowsFromNeighbors) {
  EngineFixture f;
  CrowdSourcedGeo geo(f.topo);
  geo.add_report({SwitchId(1), PortNo(1)}, {50.0, 8.0, "DE"});
  // s2 has no reports; nearest reporting neighbor is s1.
  const auto loc = geo.locate(SwitchId(2));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->jurisdiction, "DE");
  // s99 unknown entirely.
  EXPECT_FALSE(geo.locate(SwitchId(99)).has_value());
}

TEST(GeoProviders, GeoIpUsesAttachedHosts) {
  EngineFixture f;
  control::HostAddressing addressing;
  addressing.assign(HostId(10));
  addressing.assign(HostId(11));
  GeoIpDb db;
  db.add(addressing.of(HostId(10)).ip, "DE");
  db.add(addressing.of(HostId(11)).ip, "US");
  const GeoIpGeo geo(f.topo, addressing, std::move(db));

  ASSERT_TRUE(geo.locate(SwitchId(1)).has_value());
  EXPECT_EQ(geo.locate(SwitchId(1))->jurisdiction, "DE");
  EXPECT_EQ(geo.locate(SwitchId(3))->jurisdiction, "US");
  // s2's host (12) has no geo-IP entry: borrow from a neighbor.
  ASSERT_TRUE(geo.locate(SwitchId(2)).has_value());
}

TEST(GeoProviders, JurisdictionsOfMarksUnknown) {
  EngineFixture f;
  CrowdSourcedGeo geo(f.topo);  // no reports at all
  const auto jurisdictions =
      jurisdictions_of({{SwitchId(1), SwitchId(2)}}, geo);
  EXPECT_EQ(jurisdictions, (std::vector<std::string>{"unknown"}));
}

}  // namespace
}  // namespace rvaas::core
