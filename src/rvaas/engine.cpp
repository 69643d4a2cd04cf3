#include "rvaas/engine.hpp"

#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>

#include "hsa/transfer.hpp"
#include "util/ensure.hpp"
#include "util/fnv.hpp"

namespace rvaas::core {

using sdn::PortRef;
using sdn::SwitchId;

namespace {
// TEST-ONLY fault switches (see test_fault_freeze_invalidation).
std::atomic<bool> g_l1_invalidation_frozen{false};
std::atomic<bool> g_l2_invalidation_frozen{false};

void compile_switches(const SnapshotManager& snap,
                      const std::vector<SwitchId>& work,
                      hsa::NetworkTransfer& into) {
  for (const SwitchId sw : work) {
    into[sw] = hsa::SwitchTransfer::compile(snap.table(sw));
  }
}
}  // namespace

void CompiledModelCache::test_fault_freeze_invalidation(bool on) {
  g_l1_invalidation_frozen.store(on, std::memory_order_relaxed);
}

void ReachCache::test_fault_freeze_invalidation(bool on) {
  g_l2_invalidation_frozen.store(on, std::memory_order_relaxed);
}

hsa::NetworkModel CompiledModelCache::model(const sdn::Topology& topo,
                                            const SnapshotManager& snap) {
  ++stats_.lookups;

  // TEST-ONLY fault: serve the last compiled model without refreshing.
  if (g_l1_invalidation_frozen.load(std::memory_order_relaxed) && transfer_ &&
      snap.instance_id() == snapshot_id_) {
    ++stats_.clean_hits;
    return hsa::NetworkModel(topo, transfer_);
  }

  // Identity check: a different view instance — or an epoch that moved
  // backwards, which only a moved-from view being reused can produce —
  // cannot be patched incrementally.
  if (!transfer_ || snap.instance_id() != snapshot_id_ ||
      snap.epoch() < snapshot_epoch_) {
    transfer_ = std::make_shared<hsa::NetworkTransfer>();
    const std::vector<SwitchId> all = snap.switch_ids();
    compile_switches(snap, all, *transfer_);
    stats_.switch_recompiles += all.size();
    ++stats_.full_rebuilds;
    snapshot_id_ = snap.instance_id();
    snapshot_epoch_ = snap.epoch();
    return hsa::NetworkModel(topo, transfer_);
  }

  // Incremental path. The dirty set is complete: a switch's first
  // appearance bumps its epoch (see snapshot.hpp), so a switch we have not
  // compiled yet is necessarily in it.
  const std::vector<SwitchId> dirty = snap.dirty_since(snapshot_epoch_);

  if (dirty.empty()) {
    ++stats_.clean_hits;
  } else {
    // Copy-on-write: previously returned models may still reference the
    // compiled map; never mutate it under them.
    if (transfer_.use_count() > 1) {
      transfer_ = std::make_shared<hsa::NetworkTransfer>(*transfer_);
    }
    compile_switches(snap, dirty, *transfer_);
    stats_.switch_recompiles += dirty.size();
  }
  stats_.switch_hits += transfer_->size() - dirty.size();
  snapshot_epoch_ = snap.epoch();
  return hsa::NetworkModel(topo, transfer_);
}

std::size_t ReachCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.fingerprint;
  h = util::fnv1a_mix(h, std::hash<sdn::PortRef>{}(k.ingress));
  h = util::fnv1a_mix(h, k.max_depth);
  return static_cast<std::size_t>(h);
}

void ReachCache::validate(const SnapshotManager& snap) {
  // Identity check: a different view instance — or an epoch that moved
  // backwards, which only a moved-from view being reused can produce —
  // cannot be patched by a dirty set.
  if (snap.instance_id() != snapshot_id_ || snap.epoch() < validated_epoch_) {
    if (snapshot_id_ != 0) ++stats_.full_clears;
    entries_.clear();
    snapshot_id_ = snap.instance_id();
    validated_epoch_ = snap.epoch();
    return;
  }
  if (snap.epoch() == validated_epoch_) return;

  // TEST-ONLY fault: pretend the epoch never advanced — stale entries
  // survive the churn they should have been evicted by.
  if (g_l2_invalidation_frozen.load(std::memory_order_relaxed)) {
    validated_epoch_ = snap.epoch();
    return;
  }

  // Epoch advanced: drop exactly the entries whose traversal consulted a
  // switch that changed since they were computed. Everything else is still
  // byte-identical to a recomputation and stays.
  const std::vector<SwitchId> dirty = snap.dirty_since(validated_epoch_);
  stats_.entries_invalidated +=
      std::erase_if(entries_, [&](const auto& entry) {
        return entry.second->depends_on(dirty);
      });
  validated_epoch_ = snap.epoch();
}

ReachCache::ResultPtr ReachCache::reach(const hsa::NetworkModel& model,
                                        const SnapshotManager& snap,
                                        sdn::PortRef ingress,
                                        const hsa::HeaderSpace& hs,
                                        std::size_t max_depth) {
  ++stats_.lookups;
  validate(snap);

  Key key{hs.fingerprint(), ingress, max_depth, hs};
  if (const auto it = entries_.find(key); it != entries_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  auto result = std::make_shared<const hsa::ReachabilityResult>(
      model.reach(ingress, hs, max_depth));

  // Capacity bound: clients choose the constraint spaces, so without a cap
  // distinct entries would accumulate forever on a stable snapshot. A flush
  // only costs future misses.
  if (entries_.size() >= kMaxEntries) {
    entries_.clear();
    ++stats_.capacity_flushes;
  }
  entries_.emplace(std::move(key), result);
  return result;
}

hsa::NetworkModel QueryEngine::model(const SnapshotManager& snap) const {
  return model_cache_.model(*topo_, snap);
}

hsa::NetworkModel QueryEngine::model_uncached(
    const SnapshotManager& snap) const {
  return hsa::NetworkModel::from_tables(*topo_, snap.table_dump());
}

ReachCache::ResultPtr QueryEngine::reach(const hsa::NetworkModel& model,
                                         const SnapshotManager& snap,
                                         sdn::PortRef ingress,
                                         const hsa::HeaderSpace& hs) const {
  return reach_cache_.reach(model, snap, ingress, hs, config_.max_depth);
}

hsa::HeaderSpace QueryEngine::constraint_space(const sdn::Match& constraint) {
  return hsa::HeaderSpace(hsa::match_to_cube(constraint));
}

namespace {

/// The traversals of one evaluation: each is served through the engine's
/// L2 cache and appends its dependency footprint to `footprint` (unsorted;
/// evaluate() canonicalizes).
struct Traversals {
  const QueryEngine& engine;
  const hsa::NetworkModel& model;
  const SnapshotManager& snap;
  std::vector<SwitchId>& footprint;

  ReachCache::ResultPtr reach(PortRef ingress,
                              const hsa::HeaderSpace& hs) const {
    ReachCache::ResultPtr r = engine.reach(model, snap, ingress, hs);
    footprint.insert(footprint.end(), r->footprint.begin(),
                     r->footprint.end());
    return r;
  }
};

/// Result of the logical step for endpoint-style queries: the endpoint
/// skeleton plus which access points need in-band authentication.
struct ReachComputation {
  std::vector<EndpointInfo> endpoints;
  /// Access points with hosts behind them, to be probed via auth requests.
  std::vector<PortRef> to_authenticate;
  /// Switch paths (internal; disclosed only under FullPaths).
  std::vector<std::vector<SwitchId>> paths;
};

ReachComputation from_reach_result(const hsa::ReachabilityResult& r,
                                   std::optional<PortRef> exclude) {
  ReachComputation out;
  std::set<PortRef> seen;
  for (const auto& e : r.endpoints) {
    if (exclude && e.egress == *exclude) continue;
    out.paths.push_back(e.path());
    if (!seen.insert(e.egress).second) continue;
    EndpointInfo info;
    info.access_point = e.egress;
    info.dark = !e.host.has_value();
    out.endpoints.push_back(info);
    if (e.host) out.to_authenticate.push_back(e.egress);
  }
  return out;
}

/// Which access points have installed routes reaching `target`?
ReachComputation reaching_sources(const Traversals& t, PortRef target,
                                  const hsa::HeaderSpace& hs) {
  const sdn::Topology& topo = t.engine.topology();
  ReachComputation out;
  for (const PortRef ap : topo.all_access_points()) {
    if (ap == target) continue;
    const ReachCache::ResultPtr r = t.reach(ap, hs);
    for (const auto& e : r->endpoints) {
      if (e.egress != target) continue;
      EndpointInfo info;
      info.access_point = ap;
      info.dark = !topo.host_at(ap).has_value();
      out.endpoints.push_back(info);
      if (!info.dark) out.to_authenticate.push_back(ap);
      out.paths.push_back(e.path());
      break;  // one entry per source access point
    }
  }
  return out;
}

/// Union of both directions (the §IV.B.1 isolation check); the forward
/// direction excludes the requester's own access point.
ReachComputation isolation(const Traversals& t, PortRef request_point,
                           const hsa::HeaderSpace& hs) {
  ReachComputation forward =
      from_reach_result(*t.reach(request_point, hs), request_point);
  const ReachComputation backward = reaching_sources(t, request_point, hs);

  std::set<PortRef> seen;
  for (const EndpointInfo& e : forward.endpoints) seen.insert(e.access_point);
  for (const EndpointInfo& e : backward.endpoints) {
    if (!seen.insert(e.access_point).second) continue;
    forward.endpoints.push_back(e);
    if (!e.dark) forward.to_authenticate.push_back(e.access_point);
  }
  forward.paths.insert(forward.paths.end(), backward.paths.begin(),
                       backward.paths.end());

  // Deduplicate the auth list (an endpoint may appear in both directions).
  std::sort(forward.to_authenticate.begin(), forward.to_authenticate.end());
  forward.to_authenticate.erase(
      std::unique(forward.to_authenticate.begin(),
                  forward.to_authenticate.end()),
      forward.to_authenticate.end());
  return forward;
}

/// Jurisdictions any traffic in `hs` from `from` may cross.
std::vector<std::string> geo_jurisdictions(const Traversals& t, PortRef from,
                                           const hsa::HeaderSpace& hs,
                                           const GeoProvider& geo) {
  const ReachCache::ResultPtr r = t.reach(from, hs);
  std::vector<std::vector<SwitchId>> paths;
  for (const auto& e : r->endpoints) paths.push_back(e.path());
  for (const auto& c : r->controller_hits) paths.push_back(c.path);
  for (const auto& l : r->loops) paths.push_back(l.path);
  return jurisdictions_of(paths, geo);
}

/// Length of the installed route from `from` to the host at `peer_ap`
/// (addressed `peer_ip`), against the topology optimum.
void path_length(const Traversals& t, PortRef from, PortRef peer_ap,
                 std::uint32_t peer_ip, QueryReply& reply) {
  hsa::Wildcard cube;
  cube.set_field(sdn::Field::IpDst, peer_ip);
  const ReachCache::ResultPtr r = t.reach(from, hsa::HeaderSpace(cube));

  std::uint32_t best = ~std::uint32_t{0};
  for (const auto& e : r->endpoints) {
    if (e.egress != peer_ap) continue;
    reply.path_found = true;
    best = std::min(best, static_cast<std::uint32_t>(e.hops.size()));
  }
  if (reply.path_found) reply.installed_path_length = best;

  const auto optimal =
      control::shortest_switch_path(t.engine.topology(), from.sw, peer_ap.sw);
  if (optimal) {
    reply.optimal_path_length = static_cast<std::uint32_t>(optimal->size());
  }
}

/// Meter-based fairness metrics for traffic in `hs` from `from`:
///   min-rate-bps       — tightest meter on any of the client's paths
///                        (uint64 max if unmetered),
///   metered-switches   — how many traversed switches meter this traffic,
///   paths              — number of distinct egress spaces considered.
std::vector<FairnessMetric> fairness(const Traversals& t, PortRef from,
                                     const hsa::HeaderSpace& hs) {
  const ReachCache::ResultPtr r = t.reach(from, hs);

  // Exact attribution: the reach result records which flow entries carried
  // each delivered subspace; collect the meters of exactly those rules
  // (point lookups — no full table_dump copy on the query path).
  std::uint64_t min_rate = ~std::uint64_t{0};
  std::set<SwitchId> metered_switches;
  for (const auto& endpoint : r->endpoints) {
    for (const auto& [sw, entry_id] : endpoint.hops) {
      const sdn::FlowEntry* entry = t.snap.find_entry(sw, entry_id);
      const auto meters_it = t.snap.meters().find(sw);
      if (entry == nullptr || !entry->meter ||
          meters_it == t.snap.meters().end()) {
        continue;
      }
      for (const auto& [meter_id, config] : meters_it->second) {
        if (meter_id == *entry->meter) {
          min_rate = std::min(min_rate, config.rate_bps);
          metered_switches.insert(sw);
        }
      }
    }
  }

  return {
      FairnessMetric{"min-rate-bps", min_rate},
      FairnessMetric{"metered-switches", metered_switches.size()},
      FairnessMetric{"paths", static_cast<std::uint64_t>(r->endpoints.size())},
  };
}

/// Compact representation of the client's transfer function: egress ports
/// with the cube count of the traffic subspace reaching them.
std::vector<TransferSummaryEntry> transfer_summary(
    const Traversals& t, PortRef from, const hsa::HeaderSpace& hs) {
  const ReachCache::ResultPtr r = t.reach(from, hs);
  std::map<PortRef, std::uint32_t> cubes;
  for (const auto& e : r->endpoints) {
    if (e.egress == from) continue;  // hairpin back to the requester
    cubes[e.egress] += static_cast<std::uint32_t>(e.space.cube_count());
  }
  std::vector<TransferSummaryEntry> out;
  for (const auto& [egress, count] : cubes) {
    out.push_back(TransferSummaryEntry{egress, count});
  }
  return out;
}

/// Renders paths for FullPaths mode (E5 leakage strawman), deduplicated.
std::vector<std::string> render_paths(
    const std::vector<std::vector<SwitchId>>& paths) {
  std::set<std::string> unique;
  for (const auto& path : paths) {
    std::ostringstream os;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i > 0) os << "->";
      os << "s" << path[i].value;
    }
    unique.insert(os.str());
  }
  return {unique.begin(), unique.end()};
}

}  // namespace

QueryEngine::Evaluation QueryEngine::evaluate(const hsa::NetworkModel& model,
                                              const SnapshotManager& snap,
                                              const Property& property,
                                              const EvalContext& ctx) const {
  Evaluation out;
  out.reply.kind = property.kind;
  const hsa::HeaderSpace hs = ctx.space_override != nullptr
                                  ? *ctx.space_override
                                  : constraint_space(property.constraint);
  const Traversals t{*this, model, snap, out.footprint};

  std::optional<ReachComputation> reach_comp;  // endpoint-style kinds only
  switch (property.kind) {
    case QueryKind::ReachableEndpoints:
      // The primary traversal is kept on the Evaluation: the federation
      // path needs its per-endpoint egress subspaces to cross peerings.
      out.primary_reach = t.reach(ctx.from, hs);
      reach_comp = from_reach_result(
          *out.primary_reach, ctx.exclude_requester
                                  ? std::optional<PortRef>(ctx.from)
                                  : std::nullopt);
      break;
    case QueryKind::ReachingSources:
      reach_comp = reaching_sources(t, ctx.from, hs);
      break;
    case QueryKind::Isolation:
      reach_comp = isolation(t, ctx.from, hs);
      break;
    case QueryKind::Geo:
      util::ensure(ctx.geo != nullptr, "geo query without a geo provider");
      out.reply.jurisdictions = geo_jurisdictions(t, ctx.from, hs, *ctx.geo);
      break;
    case QueryKind::PathLength:
      if (property.peer && ctx.addressing != nullptr) {
        const auto peer_ports = topo_->host_ports(*property.peer);
        if (!peer_ports.empty()) {
          path_length(t, ctx.from, peer_ports.front(),
                      ctx.addressing->of(*property.peer).ip, out.reply);
        }
      }
      break;
    case QueryKind::Fairness:
      out.reply.fairness = fairness(t, ctx.from, hs);
      break;
    case QueryKind::TransferSummary:
      out.reply.transfer_summary = transfer_summary(t, ctx.from, hs);
      break;
    case QueryKind::PolicyCompliance:
      // The cross-domain walk lives in the federation layer; the dependency
      // footprint is left empty because the crossings depend on OTHER
      // domains' snapshots, which this engine's change clock cannot see.
      if (ctx.policy != nullptr) {
        out.reply.policy_report = ctx.policy->walk(ctx.from, hs);
      }
      break;
  }

  if (reach_comp) {
    out.reply.endpoints = std::move(reach_comp->endpoints);
    if (config_.policy == ConfidentialityPolicy::FullPaths) {
      out.reply.disclosed_paths = render_paths(reach_comp->paths);
    }
    for (const PortRef ap : reach_comp->to_authenticate) {
      // Never probe the requester's own access point.
      if (ctx.exclude_requester && ap == ctx.from) continue;
      out.to_authenticate.push_back(ap);
    }
  }

  // Canonicalize the union footprint (each traversal appended its own) and
  // drop the appended slots: a standing subscription keeps this vector for
  // its whole lifetime.
  std::sort(out.footprint.begin(), out.footprint.end());
  out.footprint.erase(std::unique(out.footprint.begin(), out.footprint.end()),
                      out.footprint.end());
  out.footprint.shrink_to_fit();
  return out;
}

QueryEngine::Evaluation QueryEngine::evaluate(const SnapshotManager& snap,
                                              const Property& property,
                                              const EvalContext& ctx) const {
  return evaluate(model(snap), snap, property, ctx);
}

}  // namespace rvaas::core
