// Equivalence oracle for the monitor's inverted footprint index: after
// every randomized subscribe / unsubscribe / churn / sweep / identity step,
// indexed_wakeups() must equal linear_wakeups() byte-for-byte — the index is
// an O(affected) accelerator over the retired O(subs) footprint scan, never
// a different selection (the reference-path pattern of testing/reference_hsa
// applied to the monitor). Also covers the fallback anchors (snapshot copy,
// epoch regression), index-entry bookkeeping across replacement and
// unsubscribe, and the test-only stale-index fault the fuzzer drills.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "controlplane/routing.hpp"
#include "rvaas/geo.hpp"
#include "rvaas/monitor.hpp"
#include "util/rng.hpp"

namespace rvaas::core {
namespace {

using sdn::Field;
using sdn::HostId;
using sdn::Match;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

/// The 3-switch line of test_engine/test_monitor: h10 - s1 - s2 - s3 - h11,
/// h12 at s2. Small enough that evaluations are instant, shaped enough that
/// footprints genuinely differ per access point and constraint.
sdn::Topology make_topo() {
  sdn::Topology topo;
  topo.add_switch(SwitchId(1), 4, {50.0, 8.0, "DE"});
  topo.add_switch(SwitchId(2), 4, {48.8, 2.3, "FR"});
  topo.add_switch(SwitchId(3), 4, {40.7, -74.0, "US"});
  topo.add_link({SwitchId(1), PortNo(0)}, {SwitchId(2), PortNo(0)});
  topo.add_link({SwitchId(2), PortNo(1)}, {SwitchId(3), PortNo(0)});
  topo.attach_host(HostId(10), {SwitchId(1), PortNo(1)});
  topo.attach_host(HostId(11), {SwitchId(3), PortNo(1)});
  topo.attach_host(HostId(12), {SwitchId(2), PortNo(2)});
  return topo;
}

void seed_routing(SnapshotManager& snap, std::uint64_t& next_id) {
  const auto add_rule = [&](SwitchId sw, Match match,
                            sdn::ActionList actions) {
    sdn::FlowEntry e;
    e.id = sdn::FlowEntryId(next_id++);
    e.priority = 5;
    e.match = std::move(match);
    e.actions = std::move(actions);
    snap.apply_update({sw, sdn::FlowUpdateKind::Added, e}, 0);
  };
  add_rule(SwitchId(1), Match().in_port(PortNo(1)), {sdn::output(PortNo(0))});
  add_rule(SwitchId(2), Match().in_port(PortNo(0)), {sdn::output(PortNo(1))});
  add_rule(SwitchId(3), Match().in_port(PortNo(0)), {sdn::output(PortNo(1))});
  add_rule(SwitchId(3), Match().in_port(PortNo(1)), {sdn::output(PortNo(0))});
  add_rule(SwitchId(2), Match().in_port(PortNo(1)), {sdn::output(PortNo(0))});
  add_rule(SwitchId(1), Match().in_port(PortNo(0)), {sdn::output(PortNo(1))});
}

/// Engine-level harness: one monitor over one snapshot, with the linear
/// reference consulted after every mutation.
class IndexOracle : public ::testing::Test {
 protected:
  IndexOracle()
      : topo_(make_topo()),
        engine_(topo_, EngineConfig{}),
        monitor_(engine_) {
    seed_routing(snap_, next_entry_id_);
    addressing_.assign(HostId(10));
    addressing_.assign(HostId(11));
    addressing_.assign(HostId(12));
    ctx_.geo = &geo_;
    ctx_.addressing = &addressing_;
  }

  void TearDown() override { PropertyMonitor::test_fault_freeze_index(false); }

  /// The oracle: both selections, in both plain and force_all form, must be
  /// identical Key lists. Returns the selection so steps can assert on it.
  std::vector<PropertyMonitor::Key> expect_equivalent(const char* where) {
    const auto indexed = monitor_.indexed_wakeups(snap_);
    const auto linear = monitor_.linear_wakeups(snap_);
    EXPECT_EQ(indexed, linear) << where;
    EXPECT_EQ(monitor_.indexed_wakeups(snap_, /*force_all=*/true),
              monitor_.linear_wakeups(snap_, /*force_all=*/true))
        << where << " (force_all)";
    return indexed;
  }

  /// Index-entry bookkeeping: the entry count must equal the summed
  /// footprint sizes of evaluated subscriptions (the index invariant's
  /// "entries exist exactly for registry footprints").
  void expect_entry_count(const char* where) {
    std::size_t expected = 0;
    for (const auto& key : all_keys_) {
      const auto* sub = monitor_.find(key.first, key.second);
      if (sub != nullptr && sub->evaluated) expected += sub->footprint.size();
    }
    EXPECT_EQ(monitor_.index_entries(), expected) << where;
  }

  void subscribe(std::uint64_t id, HostId client, std::uint32_t shape) {
    PropertyMonitor::Subscription sub;
    sub.id = id;
    sub.client = client;
    sub.request_point = topo_.host_ports(client).front();
    switch (shape % 4) {
      case 0:
        sub.property.kind = QueryKind::ReachableEndpoints;
        break;
      case 1:
        sub.property.kind = QueryKind::Isolation;
        break;
      case 2:
        sub.property.kind = QueryKind::TransferSummary;
        sub.property.constraint =
            Match().exact(Field::IpProto, sdn::kIpProtoUdp);
        break;
      default:
        sub.property.kind = QueryKind::PathLength;
        sub.property.peer = HostId(11);
        break;
    }
    monitor_.subscribe(std::move(sub));
    all_keys_.insert({client, id});
  }

  void churn(SwitchId sw, std::uint32_t salt) {
    sdn::FlowEntry e;
    e.id = sdn::FlowEntryId(next_entry_id_++);
    e.priority = static_cast<std::uint16_t>(1 + salt % 4);
    e.match = Match().exact(Field::L4Dst, 7000 + salt % 8);
    e.actions = {sdn::drop()};
    snap_.apply_update({sw, sdn::FlowUpdateKind::Added, e}, 0);
  }

  sdn::Topology topo_;
  SnapshotManager snap_;
  QueryEngine engine_;
  PropertyMonitor monitor_;
  DisclosedGeo geo_{topo_};
  control::HostAddressing addressing_;
  QueryEngine::EvalContext ctx_;
  std::uint64_t next_entry_id_ = 1;
  std::set<PropertyMonitor::Key> all_keys_;
};

TEST_F(IndexOracle, RandomizedScheduleStaysEquivalent) {
  // 400 random steps across subscribe / unsubscribe / churn / sweep /
  // force_all sweep / identity reset; the oracle and the entry-count
  // invariant are checked after every single one.
  util::Rng rng(20260808);
  std::uint64_t next_sub_id = 1;
  const HostId clients[] = {HostId(10), HostId(11), HostId(12)};
  const SwitchId switches[] = {SwitchId(1), SwitchId(2), SwitchId(3)};

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(step);
    const std::uint64_t w = rng.below(100);
    if (w < 25) {
      subscribe(next_sub_id++, clients[rng.below(3)],
                static_cast<std::uint32_t>(rng.below(16)));
    } else if (w < 35 && !all_keys_.empty()) {
      // Unsubscribe a random known key (may already be gone — that exercises
      // the unknown-key path too).
      auto it = all_keys_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.below(all_keys_.size())));
      monitor_.unsubscribe(it->first, it->second);
    } else if (w < 45 && !all_keys_.empty()) {
      // Replacement under an existing key: a different property fingerprint
      // must drop the old footprint's index entries and re-enter
      // unevaluated_.
      auto it = all_keys_.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(
                           rng.below(all_keys_.size())));
      subscribe(it->second, it->first,
                static_cast<std::uint32_t>(rng.below(16)));
    } else if (w < 75) {
      churn(switches[rng.below(3)], static_cast<std::uint32_t>(rng.below(64)));
    } else if (w < 90) {
      monitor_.sweep(snap_, ctx_);
    } else if (w < 96) {
      monitor_.sweep(snap_, ctx_, /*force_all=*/true);
    } else {
      // Restart semantics: same content, fresh identity — the next selection
      // must take the linear fallback and still agree.
      snap_.reset_identity();
    }
    expect_equivalent("after step");
    expect_entry_count("after step");
  }

  // The schedule must actually have exercised the indexed fast path, not
  // just the fallback.
  EXPECT_GT(monitor_.stats().indexed_sweeps, 0u);
  EXPECT_GT(monitor_.stats().fallback_sweeps, 0u);
}

TEST_F(IndexOracle, SingleSwitchChurnWakesOnlyAffected) {
  // Two subscriptions with disjoint-ish footprints: churn on a switch only
  // one footprint contains must select exactly that one — O(affected), the
  // tentpole property, asserted through the public selection.
  subscribe(1, HostId(10), 0);  // ReachableEndpoints from s1
  subscribe(2, HostId(11), 0);  // ReachableEndpoints from s3
  monitor_.sweep(snap_, ctx_);
  expect_equivalent("baseline");

  const auto* left = monitor_.find(HostId(10), 1);
  const auto* right = monitor_.find(HostId(11), 2);
  ASSERT_NE(left, nullptr);
  ASSERT_NE(right, nullptr);
  ASSERT_TRUE(left->evaluated);
  ASSERT_TRUE(right->evaluated);

  churn(SwitchId(1), 7);
  const auto selected = expect_equivalent("after churn");
  const bool left_hit =
      std::find(left->footprint.begin(), left->footprint.end(),
                SwitchId(1)) != left->footprint.end();
  const bool right_hit =
      std::find(right->footprint.begin(), right->footprint.end(),
                SwitchId(1)) != right->footprint.end();
  std::vector<PropertyMonitor::Key> expected;
  if (left_hit) expected.push_back({HostId(10), 1});
  if (right_hit) expected.push_back({HostId(11), 2});
  EXPECT_EQ(selected, expected);
}

TEST_F(IndexOracle, SnapshotCopyFallsBackAndAgrees) {
  subscribe(1, HostId(10), 0);
  subscribe(2, HostId(12), 2);
  monitor_.sweep(snap_, ctx_);
  churn(SwitchId(2), 3);

  // A copied snapshot has a fresh instance id: the index anchors do not
  // apply, the selection must detect that and fall back — and still match
  // the linear scan over the copy.
  const SnapshotManager copy = snap_;
  const auto before = monitor_.stats().fallback_sweeps;
  EXPECT_EQ(monitor_.indexed_wakeups(copy), monitor_.linear_wakeups(copy));
  monitor_.sweep(copy, ctx_);
  EXPECT_GT(monitor_.stats().fallback_sweeps, before);
}

TEST_F(IndexOracle, UnsubscribeAndReplacementDropIndexEntries) {
  subscribe(1, HostId(10), 0);
  subscribe(2, HostId(11), 3);
  monitor_.sweep(snap_, ctx_);
  expect_entry_count("after baseline sweep");
  ASSERT_GT(monitor_.index_entries(), 0u);

  // Replacement with a different fingerprint drops the old entries until
  // the next sweep re-evaluates.
  const std::size_t with_both = monitor_.index_entries();
  subscribe(1, HostId(10), 2);
  EXPECT_LT(monitor_.index_entries(), with_both);
  expect_equivalent("after replacement");
  monitor_.sweep(snap_, ctx_);
  expect_entry_count("after re-evaluation");

  EXPECT_TRUE(monitor_.unsubscribe(HostId(11), 2));
  all_keys_.erase({HostId(11), 2});
  expect_entry_count("after unsubscribe");
  EXPECT_TRUE(monitor_.unsubscribe(HostId(10), 1));
  all_keys_.erase({HostId(10), 1});
  EXPECT_EQ(monitor_.index_entries(), 0u);
  expect_equivalent("empty registry");
}

TEST_F(IndexOracle, FootprintChangeRewritesIndexEntries) {
  // The fixture's churn() never changes forwarding; here a high-priority
  // drop at s1 cuts the s1-s2-s3 path short, so the re-evaluation shrinks
  // the footprint and the sweep must move the index entries with it (and
  // back again once the drop is removed).
  subscribe(1, HostId(10), 0);
  monitor_.sweep(snap_, ctx_);
  const auto* sub = monitor_.find(HostId(10), 1);
  ASSERT_NE(sub, nullptr);
  const std::vector<SwitchId> full = sub->footprint;
  ASSERT_GT(full.size(), 1u);

  sdn::FlowEntry cut;
  cut.id = sdn::FlowEntryId(next_entry_id_++);
  cut.priority = 9;
  cut.match = Match().in_port(PortNo(1));
  cut.actions = {sdn::drop()};
  snap_.apply_update({SwitchId(1), sdn::FlowUpdateKind::Added, cut}, 0);
  monitor_.sweep(snap_, ctx_);
  EXPECT_EQ(sub->footprint, std::vector<SwitchId>{SwitchId(1)});
  expect_entry_count("after the footprint shrank");
  churn(SwitchId(3), 1);  // outside the shrunk footprint: wakes nothing
  EXPECT_TRUE(expect_equivalent("churn off the shrunk footprint").empty());

  snap_.apply_update({SwitchId(1), sdn::FlowUpdateKind::Removed, cut}, 0);
  monitor_.sweep(snap_, ctx_);
  EXPECT_EQ(sub->footprint, full);
  expect_entry_count("after the footprint grew back");
  churn(SwitchId(3), 2);
  EXPECT_EQ(expect_equivalent("churn on the restored footprint").size(), 1u);
}

TEST_F(IndexOracle, FrozenIndexDivergesFromLinearReference) {
  // The stale-index fault the fuzzer drills: freeze maintenance, let a
  // subscription get its baseline evaluation (footprint never indexed),
  // churn its footprint — the linear reference selects it, the frozen index
  // cannot. The oracle must see the divergence; unfreezing and sweeping
  // heals nothing by itself (the entries were never written), so the drill
  // also documents that the fault is sticky until the next re-evaluation
  // writes the footprint back.
  subscribe(1, HostId(10), 0);
  PropertyMonitor::test_fault_freeze_index(true);
  monitor_.sweep(snap_, ctx_);  // baseline evaluated, index frozen
  EXPECT_EQ(monitor_.index_entries(), 0u);

  churn(SwitchId(1), 1);
  churn(SwitchId(2), 2);
  churn(SwitchId(3), 3);  // every footprint is now dirty
  const auto linear = monitor_.linear_wakeups(snap_);
  const auto indexed = monitor_.indexed_wakeups(snap_);
  EXPECT_FALSE(linear.empty());
  EXPECT_NE(indexed, linear);

  // Unfreezing alone does NOT heal: the post-evaluation hook only rewrites
  // entries for footprints that changed, and the frozen-era footprint is
  // already in the registry — exactly why the fuzzer treats this fault as
  // sticky. A replacement (different fingerprint) resets the evaluation
  // state, and the next sweep indexes the fresh footprint.
  PropertyMonitor::test_fault_freeze_index(false);
  subscribe(1, HostId(10), 2);
  monitor_.sweep(snap_, ctx_);
  expect_equivalent("after replacement heal");
  expect_entry_count("after replacement heal");
}

}  // namespace
}  // namespace rvaas::core
