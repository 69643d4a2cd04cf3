// CompiledModelCache: incremental snapshot→model compilation must be
// indistinguishable from a cold full recompile — structurally (compiled
// transfer functions) and observably (byte-identical query replies) — across
// randomized churn sequences, while recompiling only dirty switches.

#include <gtest/gtest.h>

#include "rvaas/engine.hpp"
#include "workload/scenario.hpp"

namespace rvaas::core {
namespace {

using sdn::Field;
using sdn::FlowEntry;
using sdn::FlowUpdate;
using sdn::FlowUpdateKind;
using sdn::Match;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

FlowEntry make_entry(std::uint64_t id, std::uint16_t priority,
                     std::uint32_t ip_dst, PortNo out_port) {
  FlowEntry e;
  e.id = sdn::FlowEntryId(id);
  e.priority = priority;
  e.match = Match().exact(Field::IpDst, ip_dst);
  e.actions = {sdn::output(out_port)};
  return e;
}

util::Bytes reply_bytes(const QueryReply& reply) {
  util::ByteWriter w;
  reply.serialize(w);
  return w.data();
}

// A provider-routed 24-switch grid, mirrored into a locally owned
// SnapshotManager so tests can churn it directly.
struct ChurnFixture {
  workload::ScenarioRuntime runtime;
  SnapshotManager snap;
  std::uint64_t next_id = 1 << 20;  // ids above anything the provider used

  ChurnFixture()
      : runtime([] {
          workload::ScenarioConfig config;
          config.generated = workload::grid(6, 4);
          config.tenant_count = 2;
          config.seed = 11;
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

  /// One random mutation of `sw`'s table through the passive path.
  void churn_switch(SwitchId sw, util::Rng& rng) {
    const auto table = snap.table(sw);
    const std::uint64_t op = rng.below(3);
    if (op == 0 || table.empty()) {  // add
      const PortNo port(static_cast<std::uint32_t>(
          rng.below(topo().num_ports(sw))));
      snap.apply_update(
          {sw, FlowUpdateKind::Added,
           make_entry(next_id++, static_cast<std::uint16_t>(rng.below(100)),
                      static_cast<std::uint32_t>(rng.next_u64()), port)},
          0);
    } else if (op == 1) {  // modify
      FlowEntry e = table[rng.below(table.size())];
      e.cookie = rng.next_u64();
      snap.apply_update({sw, FlowUpdateKind::Modified, e}, 0);
    } else {  // remove
      snap.apply_update(
          {sw, FlowUpdateKind::Removed, table[rng.below(table.size())]}, 0);
    }
  }
};

TEST(CompiledModelCache, CountsRebuildsHitsAndPerSwitchRecompiles) {
  const auto generated = workload::linear(3);
  SnapshotManager snap;
  for (const SwitchId sw : generated.topo.switches()) {
    snap.apply_update({sw, FlowUpdateKind::Added,
                       make_entry(1, 10, 0x0a000001, PortNo(1))},
                      0);
  }

  QueryEngine engine(generated.topo, EngineConfig{});
  ASSERT_EQ(engine.cache_stats().lookups, 0u);

  // First lookup: full rebuild, one compilation per switch.
  (void)engine.model(snap);
  auto s = engine.cache_stats();
  EXPECT_EQ(s.full_rebuilds, 1u);
  EXPECT_EQ(s.switch_recompiles, 3u);

  // Unchanged snapshot: clean hit, nothing recompiled.
  (void)engine.model(snap);
  s = engine.cache_stats();
  EXPECT_EQ(s.clean_hits, 1u);
  EXPECT_EQ(s.switch_recompiles, 3u);
  EXPECT_EQ(s.switch_hits, 3u);

  // One dirty switch: exactly one recompilation, the rest reused.
  const SwitchId dirty = generated.topo.switches()[1];
  snap.apply_update({dirty, FlowUpdateKind::Added,
                     make_entry(2, 20, 0x0a000002, PortNo(0))},
                    1);
  (void)engine.model(snap);
  s = engine.cache_stats();
  EXPECT_EQ(s.full_rebuilds, 1u);
  EXPECT_EQ(s.switch_recompiles, 4u);
  EXPECT_EQ(s.switch_hits, 5u);
  EXPECT_GT(s.switch_hit_rate(), 0.5);
}

TEST(CompiledModelCache, IncrementalIsByteIdenticalToColdAcrossChurn) {
  ChurnFixture f;
  util::Rng rng(42);
  QueryEngine engine(f.topo(), EngineConfig{});
  const auto access_points = f.topo().all_access_points();
  ASSERT_FALSE(access_points.empty());

  for (int round = 0; round < 30; ++round) {
    // Churn 1–3 random switches, occasionally through the active path
    // (a reconcile whose dump diverges from the view).
    const std::uint64_t touches = 1 + rng.below(3);
    for (std::uint64_t t = 0; t < touches; ++t) {
      const SwitchId sw = f.random_switch(rng);
      if (rng.below(4) == 0) {
        sdn::StatsReply reply;
        reply.sw = sw;
        reply.entries = f.snap.table(sw);
        if (!reply.entries.empty()) {
          reply.entries.erase(reply.entries.begin() +
                              static_cast<std::ptrdiff_t>(
                                  rng.below(reply.entries.size())));
        }
        f.snap.reconcile(reply, round);
      } else {
        f.churn_switch(sw, rng);
      }
    }

    const hsa::NetworkModel incremental = engine.model(f.snap);
    const hsa::NetworkModel cold = engine.model_uncached(f.snap);

    // Structural pin: the compiled transfer functions are equal maps.
    ASSERT_EQ(incremental.transfer(), cold.transfer()) << "round " << round;

    // Observable pin: replies computed on both models serialize to the
    // same bytes.
    QueryEngine::EvalContext ctx;
    ctx.from = access_points[rng.below(access_points.size())];
    Property property;
    property.kind = QueryKind::ReachableEndpoints;
    const auto inc_reply = engine.evaluate(incremental, f.snap, property, ctx);
    const auto cold_reply = engine.evaluate(cold, f.snap, property, ctx);
    ASSERT_EQ(reply_bytes(inc_reply.reply), reply_bytes(cold_reply.reply))
        << "round " << round;
    ASSERT_EQ(inc_reply.to_authenticate, cold_reply.to_authenticate)
        << "round " << round;
  }

  // The whole sequence must have been served incrementally: exactly the
  // initial full rebuild, and strictly fewer per-switch compilations than
  // rebuilding every switch each round would cost.
  const auto s = engine.cache_stats();
  EXPECT_EQ(s.full_rebuilds, 1u);
  EXPECT_LT(s.switch_recompiles, s.switch_hits);
}

TEST(CompiledModelCache, AgreeingPollsKeepTheCacheHot) {
  ChurnFixture f;
  QueryEngine engine(f.topo(), EngineConfig{});
  (void)engine.model(f.snap);
  const auto warm = engine.cache_stats();

  // A full agreeing poll cycle: every switch dumps exactly the view.
  for (const SwitchId sw : f.snap.switch_ids()) {
    sdn::StatsReply reply;
    reply.sw = sw;
    reply.entries = f.snap.table(sw);
    f.snap.reconcile(reply, 1);
  }

  (void)engine.model(f.snap);
  const auto s = engine.cache_stats();
  EXPECT_EQ(s.switch_recompiles, warm.switch_recompiles);
  EXPECT_EQ(s.clean_hits, warm.clean_hits + 1);
}

TEST(CompiledModelCache, SwitchMaterializedByNoOpUpdateEntersTheModel) {
  const auto generated = workload::linear(3);
  SnapshotManager snap;
  const SwitchId known = generated.topo.switches()[0];
  const SwitchId late = generated.topo.switches()[2];
  snap.apply_update({known, FlowUpdateKind::Added,
                     make_entry(1, 10, 0x0a000001, PortNo(1))},
                    0);

  QueryEngine engine(generated.topo, EngineConfig{});
  (void)engine.model(snap);

  // A Removed for an unknown id materializes `late` with an empty table;
  // the incremental model must pick it up exactly like a cold compile does.
  snap.apply_update({late, FlowUpdateKind::Removed,
                     make_entry(7, 1, 0, PortNo(0))},
                    1);
  EXPECT_EQ(engine.model(snap).transfer(),
            engine.model_uncached(snap).transfer());
  EXPECT_EQ(engine.cache_stats().full_rebuilds, 1u);
}

TEST(CompiledModelCache, DistinctSnapshotsNeverAlias) {
  const auto generated = workload::linear(4);
  QueryEngine engine(generated.topo, EngineConfig{});

  SnapshotManager a;
  SnapshotManager b;
  for (const SwitchId sw : generated.topo.switches()) {
    a.apply_update(
        {sw, FlowUpdateKind::Added, make_entry(1, 10, 0xa, PortNo(1))}, 0);
    b.apply_update(
        {sw, FlowUpdateKind::Added, make_entry(1, 10, 0xb, PortNo(0))}, 0);
  }

  // Alternating lookups on two same-epoch views must each match their own
  // cold compilation — the instance id keeps them apart.
  EXPECT_EQ(engine.model(a).transfer(), engine.model_uncached(a).transfer());
  EXPECT_EQ(engine.model(b).transfer(), engine.model_uncached(b).transfer());
  EXPECT_EQ(engine.model(a).transfer(), engine.model_uncached(a).transfer());
  EXPECT_EQ(engine.cache_stats().full_rebuilds, 3u);
}

TEST(CompiledModelCache, OutstandingModelsAreImmutableUnderChurn) {
  ChurnFixture f;
  util::Rng rng(7);
  QueryEngine engine(f.topo(), EngineConfig{});

  const hsa::NetworkModel before = engine.model(f.snap);
  const hsa::NetworkTransfer before_copy = before.transfer();

  // Churn and recompile while `before` is still alive: copy-on-write must
  // leave the old model untouched.
  f.churn_switch(f.random_switch(rng), rng);
  const hsa::NetworkModel after = engine.model(f.snap);

  EXPECT_EQ(before.transfer(), before_copy);
  EXPECT_NE(after.transfer(), before_copy);
  EXPECT_EQ(after.transfer(), engine.model_uncached(f.snap).transfer());
}

}  // namespace
}  // namespace rvaas::core
