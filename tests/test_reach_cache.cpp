// ReachCache (the L2 result tier): cached reachability must be
// indistinguishable from a cold model.reach() — structurally and as
// serialized query replies (including the EndpointsOnly redaction) — across
// randomized churn, while invalidating exactly the entries whose dependency
// footprint intersects the dirty switches.

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

FlowEntry make_entry(std::uint64_t id, std::uint16_t priority, Match match,
                     sdn::ActionList actions) {
  FlowEntry e;
  e.id = sdn::FlowEntryId(id);
  e.priority = priority;
  e.match = std::move(match);
  e.actions = std::move(actions);
  return e;
}

util::Bytes reply_bytes(const QueryReply& reply) {
  util::ByteWriter w;
  reply.serialize(w);
  return w.data();
}

// Two disjoint two-switch lines: s1-s2 (h1, h2) and s3-s4 (h3, h4).
// Traffic injected on one island never consults the other island's
// switches, so footprints separate the two cleanly.
struct IslandFixture {
  sdn::Topology topo;
  SnapshotManager snap;
  std::uint64_t next_id = 1;

  IslandFixture() {
    for (std::uint32_t sw = 1; sw <= 4; ++sw) {
      topo.add_switch(SwitchId(sw), 4);
    }
    topo.add_link({SwitchId(1), PortNo(0)}, {SwitchId(2), PortNo(0)});
    topo.add_link({SwitchId(3), PortNo(0)}, {SwitchId(4), PortNo(0)});
    topo.attach_host(HostId(1), {SwitchId(1), PortNo(1)});
    topo.attach_host(HostId(2), {SwitchId(2), PortNo(1)});
    topo.attach_host(HostId(3), {SwitchId(3), PortNo(1)});
    topo.attach_host(HostId(4), {SwitchId(4), PortNo(1)});
    for (std::uint32_t sw = 1; sw <= 4; ++sw) {
      add_rule(SwitchId(sw), 5, Match().in_port(PortNo(1)),
               {sdn::output(PortNo(0))});
      add_rule(SwitchId(sw), 5, Match().in_port(PortNo(0)),
               {sdn::output(PortNo(1))});
    }
  }

  void add_rule(SwitchId sw, std::uint16_t priority, Match match,
                sdn::ActionList actions) {
    snap.apply_update({sw, FlowUpdateKind::Added,
                       make_entry(next_id++, priority, std::move(match),
                                  std::move(actions))},
                      0);
  }
};

// A provider-routed 24-switch grid mirrored into a locally owned
// SnapshotManager (same shape as the test_incremental fixture).
struct ChurnFixture {
  workload::ScenarioRuntime runtime;
  SnapshotManager snap;
  std::uint64_t next_id = 1 << 20;

  ChurnFixture()
      : runtime([] {
          workload::ScenarioConfig config;
          config.generated = workload::grid(6, 4);
          config.tenant_count = 2;
          config.seed = 17;
          return config;
        }()) {
    runtime.settle();
    for (const auto& [sw, entries] : runtime.rvaas().snapshot().table_dump()) {
      for (const FlowEntry& e : entries) {
        snap.apply_update({sw, FlowUpdateKind::Added, e}, 0);
      }
    }
  }

  const sdn::Topology& topo() { return runtime.network().topology(); }

  SwitchId random_switch(util::Rng& rng) {
    const auto ids = snap.switch_ids();
    return ids[rng.below(ids.size())];
  }

  void churn_switch(SwitchId sw, util::Rng& rng) {
    const auto table = snap.table(sw);
    const std::uint64_t op = rng.below(3);
    if (op == 0 || table.empty()) {  // add
      const PortNo port(
          static_cast<std::uint32_t>(rng.below(topo().num_ports(sw))));
      snap.apply_update(
          {sw, FlowUpdateKind::Added,
           make_entry(next_id++, static_cast<std::uint16_t>(rng.below(100)),
                      Match().exact(Field::IpDst,
                                    static_cast<std::uint32_t>(rng.next_u64())),
                      {sdn::output(port)})},
          0);
    } else if (op == 1) {  // modify
      FlowEntry e = table[rng.below(table.size())];
      e.actions = {sdn::output(PortNo(static_cast<std::uint32_t>(
          rng.below(topo().num_ports(sw)))))};
      snap.apply_update({sw, FlowUpdateKind::Modified, e}, 0);
    } else {  // remove
      snap.apply_update(
          {sw, FlowUpdateKind::Removed, table[rng.below(table.size())]}, 0);
    }
  }
};

TEST(ReachCache, RepeatLookupsHitAndMatchColdResults) {
  IslandFixture f;
  QueryEngine engine(f.topo, EngineConfig{});
  const hsa::NetworkModel model = engine.model(f.snap);
  const PortRef ap{SwitchId(1), PortNo(1)};

  const auto first = engine.reach(model, f.snap, ap, hsa::HeaderSpace::all());
  const auto again = engine.reach(model, f.snap, ap, hsa::HeaderSpace::all());
  EXPECT_EQ(first.get(), again.get());  // the same cached object

  const hsa::ReachabilityResult cold =
      engine.model_uncached(f.snap).reach(ap, hsa::HeaderSpace::all());
  EXPECT_EQ(*first, cold);

  const auto s = engine.reach_stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(ReachCache, FootprintConfinesInvalidationToTouchedSwitches) {
  IslandFixture f;
  QueryEngine engine(f.topo, EngineConfig{});
  const PortRef island1{SwitchId(1), PortNo(1)};

  const auto before = engine.reach(engine.model(f.snap), f.snap, island1,
                                   hsa::HeaderSpace::all());
  // The traversal stayed on its island: s1, s2 only.
  EXPECT_EQ(before->footprint,
            (std::vector<SwitchId>{SwitchId(1), SwitchId(2)}));

  // Churn on the OTHER island: the cached entry survives and is served.
  f.add_rule(SwitchId(3), 9, Match().exact(Field::IpProto, sdn::kIpProtoTcp),
             {sdn::output(PortNo(0))});
  const auto after = engine.reach(engine.model(f.snap), f.snap, island1,
                                  hsa::HeaderSpace::all());
  EXPECT_EQ(before.get(), after.get());
  EXPECT_EQ(engine.reach_stats().entries_invalidated, 0u);

  // Churn on a footprint switch: the entry is dropped, recomputed, and the
  // fresh result reflects the new table.
  f.add_rule(SwitchId(2), 9, Match().in_port(PortNo(0)),
             {sdn::output(PortNo(2))});  // reroute to a dark port
  const auto rerouted = engine.reach(engine.model(f.snap), f.snap, island1,
                                     hsa::HeaderSpace::all());
  EXPECT_NE(rerouted.get(), before.get());
  EXPECT_GE(engine.reach_stats().entries_invalidated, 1u);
  ASSERT_EQ(rerouted->endpoints.size(), 1u);
  EXPECT_EQ(rerouted->endpoints[0].egress, (PortRef{SwitchId(2), PortNo(2)}));
  EXPECT_EQ(*rerouted,
            engine.model_uncached(f.snap).reach(island1,
                                                hsa::HeaderSpace::all()));
}

TEST(ReachCache, DistinctSpacesAndIngressesCacheSeparately) {
  IslandFixture f;
  QueryEngine engine(f.topo, EngineConfig{});
  const hsa::NetworkModel model = engine.model(f.snap);
  const PortRef ap{SwitchId(1), PortNo(1)};

  const auto tcp = QueryEngine::constraint_space(
      Match().exact(Field::IpProto, sdn::kIpProtoTcp));
  const auto udp = QueryEngine::constraint_space(
      Match().exact(Field::IpProto, sdn::kIpProtoUdp));

  (void)engine.reach(model, f.snap, ap, tcp);
  (void)engine.reach(model, f.snap, ap, udp);
  (void)engine.reach(model, f.snap, PortRef{SwitchId(2), PortNo(1)}, tcp);
  EXPECT_EQ(engine.reach_stats().misses, 3u);

  (void)engine.reach(model, f.snap, ap, tcp);
  EXPECT_EQ(engine.reach_stats().hits, 1u);
}

TEST(ReachCache, ReconcileAdoptionInvalidatesAgreeingPollsDoNot) {
  IslandFixture f;
  QueryEngine engine(f.topo, EngineConfig{});
  const PortRef ap{SwitchId(1), PortNo(1)};
  (void)engine.reach(engine.model(f.snap), f.snap, ap,
                     hsa::HeaderSpace::all());

  // Agreeing poll: epoch-neutral, the entry stays hot.
  sdn::StatsReply agree;
  agree.sw = SwitchId(2);
  agree.entries = f.snap.table(SwitchId(2));
  f.snap.reconcile(agree, 1);
  (void)engine.reach(engine.model(f.snap), f.snap, ap,
                     hsa::HeaderSpace::all());
  EXPECT_EQ(engine.reach_stats().hits, 1u);
  EXPECT_EQ(engine.reach_stats().entries_invalidated, 0u);

  // Diverging poll on a footprint switch: adopted -> entry dropped, and the
  // recomputation matches a cold run on the adopted view.
  sdn::StatsReply diverge;
  diverge.sw = SwitchId(2);
  diverge.entries = f.snap.table(SwitchId(2));
  diverge.entries.pop_back();
  f.snap.reconcile(diverge, 2);
  const auto recomputed = engine.reach(engine.model(f.snap), f.snap, ap,
                                       hsa::HeaderSpace::all());
  EXPECT_GE(engine.reach_stats().entries_invalidated, 1u);
  EXPECT_EQ(*recomputed,
            engine.model_uncached(f.snap).reach(ap, hsa::HeaderSpace::all()));
}

TEST(ReachCache, CachedAnswersStayByteIdenticalAcrossChurn) {
  ChurnFixture f;
  util::Rng rng(2024);
  QueryEngine engine(f.topo(), EngineConfig{});  // EndpointsOnly redaction
  const auto access_points = f.topo().all_access_points();
  ASSERT_FALSE(access_points.empty());

  for (int round = 0; round < 25; ++round) {
    const std::uint64_t touches = 1 + rng.below(2);
    for (std::uint64_t t = 0; t < touches; ++t) {
      if (rng.below(4) == 0) {
        const SwitchId sw = f.random_switch(rng);
        sdn::StatsReply reply;
        reply.sw = sw;
        reply.entries = f.snap.table(sw);
        if (!reply.entries.empty()) {
          reply.entries.erase(
              reply.entries.begin() +
              static_cast<std::ptrdiff_t>(rng.below(reply.entries.size())));
        }
        f.snap.reconcile(reply, round);
      } else {
        f.churn_switch(f.random_switch(rng), rng);
      }
    }

    QueryEngine::EvalContext ctx;
    ctx.from = access_points[rng.below(access_points.size())];
    Property property;
    property.kind = rng.below(2) == 0 ? QueryKind::ReachableEndpoints
                                      : QueryKind::Isolation;

    // Warm path: incremental model + reach cache. Cold path: a FRESH engine
    // (empty caches) on a full recompilation — every traversal recomputed.
    const hsa::NetworkModel model = engine.model(f.snap);
    const auto warm = engine.evaluate(model, f.snap, property, ctx);
    QueryEngine cold_engine(f.topo(), EngineConfig{});
    const hsa::NetworkModel cold_model = cold_engine.model_uncached(f.snap);
    const auto cold = cold_engine.evaluate(cold_model, f.snap, property, ctx);

    ASSERT_EQ(reply_bytes(warm.reply), reply_bytes(cold.reply))
        << "round " << round;
    ASSERT_EQ(warm.to_authenticate, cold.to_authenticate) << "round " << round;

    // Asking again without churn must serve pure hits and the same bytes.
    const auto misses_before = engine.reach_stats().misses;
    const auto repeat = engine.evaluate(model, f.snap, property, ctx);
    ASSERT_EQ(reply_bytes(repeat.reply), reply_bytes(warm.reply));
    ASSERT_EQ(engine.reach_stats().misses, misses_before);
  }

  const auto s = engine.reach_stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.full_clears, 0u);
}

TEST(ReachCache, SnapshotIdentityChangeClearsEverything) {
  IslandFixture a;
  IslandFixture b;
  QueryEngine engine(a.topo, EngineConfig{});
  const PortRef ap{SwitchId(1), PortNo(1)};

  (void)engine.reach(engine.model(a.snap), a.snap, ap,
                     hsa::HeaderSpace::all());
  // A different snapshot instance (same topology shape) must not be served
  // another view's traversals.
  (void)engine.reach(engine.model(b.snap), b.snap, ap,
                     hsa::HeaderSpace::all());
  const auto s = engine.reach_stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.full_clears, 1u);
}

TEST(ReachCache, CapacityOverflowFlushesTheTier) {
  IslandFixture f;
  QueryEngine engine(f.topo, EngineConfig{});
  const hsa::NetworkModel model = engine.model(f.snap);
  const PortRef ap{SwitchId(1), PortNo(1)};
  const auto space = [](std::uint32_t ip) {
    return QueryEngine::constraint_space(Match().exact(Field::IpDst, ip));
  };

  // One distinct space more than the tier holds: the last insert flushes.
  for (std::uint32_t ip = 0; ip <= ReachCache::kMaxEntries; ++ip) {
    (void)engine.reach(model, f.snap, ap, space(ip));
  }
  EXPECT_EQ(engine.reach_stats().misses, ReachCache::kMaxEntries + 1);
  EXPECT_EQ(engine.reach_stats().capacity_flushes, 1u);

  // The first space went with the flush: it is recomputed, and the
  // recomputation equals a cold traversal.
  const auto again = engine.reach(model, f.snap, ap, space(0));
  EXPECT_EQ(engine.reach_stats().misses, ReachCache::kMaxEntries + 2);
  EXPECT_EQ(*again, engine.model_uncached(f.snap).reach(ap, space(0)));
}

}  // namespace
}  // namespace rvaas::core
