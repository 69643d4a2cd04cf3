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
  std::lock_guard lock(mu_);
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

void CompiledModelCache::invalidate() {
  std::lock_guard lock(mu_);
  transfer_.reset();
  snapshot_id_ = 0;
  snapshot_epoch_ = 0;
}

CompiledModelCache::Stats CompiledModelCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t ReachCache::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.space_fingerprint;
  h = util::fnv1a_mix(h, std::hash<sdn::PortRef>{}(k.ingress));
  h = util::fnv1a_mix(h, k.max_depth);
  return static_cast<std::size_t>(h);
}

void ReachCache::clear_entries() {
  for (Shard& shard : shards_) {
    shard.buckets.clear();
    shard.coverage = 0;
    shard.entries = 0;
  }
  entry_count_ = 0;
}

void ReachCache::validate(const SnapshotManager& snap) {
  // Identity check: a different view instance — or an epoch that moved
  // backwards, which only a moved-from view being reused can produce —
  // cannot be patched by a dirty set.
  if (snap.instance_id() != snapshot_id_ || snap.epoch() < validated_epoch_) {
    if (snapshot_id_ != 0) ++stats_.full_clears;
    clear_entries();
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
  // byte-identical to a recomputation and stays. The walk is sharded: a
  // shard whose coverage mask is disjoint from the dirty partitions cannot
  // hold a stale entry and is skipped whole; within a walked shard the
  // per-entry mask skips the exact intersect for most survivors.
  const std::vector<SwitchId> dirty = snap.dirty_since(validated_epoch_);
  const std::uint32_t dirty_mask = footprint_shard_mask(dirty);
  for (Shard& shard : shards_) {
    if (shard.entries == 0) continue;
    if ((shard.coverage & dirty_mask) == 0) {
      ++stats_.shards_skipped;
      continue;
    }
    ++stats_.shards_walked;
    std::uint32_t coverage = 0;
    for (auto it = shard.buckets.begin(); it != shard.buckets.end();) {
      auto& bucket = it->second;
      std::erase_if(bucket, [&](const Entry& e) {
        const bool stale = (e.footprint_mask & dirty_mask) != 0 &&
                           e.result->depends_on(dirty);
        if (stale) {
          ++stats_.entries_invalidated;
          --shard.entries;
          --entry_count_;
        } else {
          coverage |= e.footprint_mask;
        }
        return stale;
      });
      it = bucket.empty() ? shard.buckets.erase(it) : std::next(it);
    }
    shard.coverage = coverage;
  }
  validated_epoch_ = snap.epoch();
}

ReachCache::ResultPtr ReachCache::reach(const hsa::NetworkModel& model,
                                        const SnapshotManager& snap,
                                        sdn::PortRef ingress,
                                        const hsa::HeaderSpace& hs,
                                        std::size_t max_depth) {
  std::unique_lock lock(mu_);
  ++stats_.lookups;
  validate(snap);
  const std::uint64_t id_token = snapshot_id_;
  const std::uint64_t epoch_token = validated_epoch_;

  const Key key{ingress, hs.fingerprint(), max_depth};
  Shard& shard = shards_[switch_shard(ingress.sw)];
  if (const auto it = shard.buckets.find(key); it != shard.buckets.end()) {
    for (const Entry& e : it->second) {
      if (e.hs == hs) {
        ++stats_.hits;
        return e.result;
      }
    }
  }
  ++stats_.misses;

  // Compute outside the lock so a traversal never blocks another thread's
  // lookups; the model is immutable.
  lock.unlock();
  auto result =
      std::make_shared<const hsa::ReachabilityResult>(
          model.reach(ingress, hs, max_depth));
  lock.lock();

  // Only store a result that is still current: the snapshot may have churned
  // (or been swapped) while we computed, and another thread may have raced
  // us to the same key (first insert wins; the results are identical).
  if (snapshot_id_ != id_token || validated_epoch_ != epoch_token) {
    return result;
  }
  // Capacity bound: clients choose the constraint spaces, so without a cap
  // distinct entries would accumulate forever on a stable snapshot. A flush
  // only costs future misses.
  if (entry_count_ >= kMaxEntries) {
    clear_entries();
    ++stats_.capacity_flushes;
  }
  Shard& home = shards_[switch_shard(ingress.sw)];
  auto& bucket = home.buckets[key];
  for (const Entry& e : bucket) {
    if (e.hs == hs) return e.result;
  }
  const std::uint32_t mask = footprint_shard_mask(result->footprint);
  bucket.push_back(Entry{hs, result, mask});
  home.coverage |= mask;
  ++home.entries;
  ++entry_count_;
  return result;
}

void ReachCache::invalidate() {
  std::lock_guard lock(mu_);
  clear_entries();
  snapshot_id_ = 0;
  validated_epoch_ = 0;
}

std::size_t ReachCache::size() const {
  std::lock_guard lock(mu_);
  return entry_count_;
}

ReachCache::Stats ReachCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

hsa::NetworkModel QueryEngine::model(const SnapshotManager& snap) const {
  return cache_->model(*topo_, snap);
}

hsa::NetworkModel QueryEngine::model_uncached(
    const SnapshotManager& snap) const {
  return hsa::NetworkModel::from_tables(*topo_, snap.table_dump());
}

ReachCache::ResultPtr QueryEngine::reach(const hsa::NetworkModel& model,
                                         const SnapshotManager& snap,
                                         sdn::PortRef ingress,
                                         const hsa::HeaderSpace& hs) const {
  return reach_cache_->reach(model, snap, ingress, hs, config_.max_depth);
}

ReachCache::ResultPtr QueryEngine::reach_tracked(
    const hsa::NetworkModel& model, const SnapshotManager& snap,
    PortRef ingress, const hsa::HeaderSpace& hs,
    std::vector<SwitchId>* fp) const {
  ReachCache::ResultPtr r = reach(model, snap, ingress, hs);
  if (fp != nullptr) {
    fp->insert(fp->end(), r->footprint.begin(), r->footprint.end());
  }
  return r;
}

hsa::HeaderSpace QueryEngine::constraint_space(const sdn::Match& constraint) {
  return hsa::HeaderSpace(hsa::match_to_cube(constraint));
}

ReachComputation QueryEngine::from_reach_result(
    const hsa::ReachabilityResult& r, std::optional<PortRef> exclude) const {
  ReachComputation out;
  out.loops = r.loops.size();

  std::set<PortRef> seen;
  for (const auto& e : r.endpoints) {
    if (exclude && e.egress == *exclude) continue;
    out.paths.push_back(e.path);
    if (!seen.insert(e.egress).second) continue;
    EndpointInfo info;
    info.access_point = e.egress;
    info.dark = !e.host.has_value();
    out.endpoints.push_back(info);
    if (e.host) out.to_authenticate.push_back(e.egress);
  }
  return out;
}

ReachComputation QueryEngine::reachable_endpoints(
    const hsa::NetworkModel& model, const SnapshotManager& snap, PortRef from,
    const hsa::HeaderSpace& hs, std::vector<SwitchId>* footprint) const {
  const ReachCache::ResultPtr r =
      reach_tracked(model, snap, from, hs, footprint);
  return from_reach_result(*r, from);
}

ReachComputation QueryEngine::reaching_sources(
    const hsa::NetworkModel& model, const SnapshotManager& snap,
    PortRef target, const hsa::HeaderSpace& hs,
    std::vector<SwitchId>* footprint) const {
  ReachComputation out;
  for (const PortRef ap : topo_->all_access_points()) {
    if (ap == target) continue;
    // Hold the ResultPtr: the cache may not retain a result computed during
    // concurrent churn, and a reference into the temporary would dangle.
    const ReachCache::ResultPtr rp =
        reach_tracked(model, snap, ap, hs, footprint);
    const hsa::ReachabilityResult& r = *rp;
    out.loops += r.loops.size();
    for (const auto& e : r.endpoints) {
      if (e.egress != target) continue;
      EndpointInfo info;
      info.access_point = ap;
      info.dark = !topo_->host_at(ap).has_value();
      out.endpoints.push_back(info);
      if (!info.dark) out.to_authenticate.push_back(ap);
      out.paths.push_back(e.path);
      break;  // one entry per source access point
    }
  }
  return out;
}

ReachComputation QueryEngine::isolation(const hsa::NetworkModel& model,
                                        const SnapshotManager& snap,
                                        PortRef request_point,
                                        const hsa::HeaderSpace& hs,
                                        std::vector<SwitchId>* footprint) const {
  ReachComputation forward =
      reachable_endpoints(model, snap, request_point, hs, footprint);
  const ReachComputation backward =
      reaching_sources(model, snap, request_point, hs, footprint);

  std::set<PortRef> seen;
  for (const EndpointInfo& e : forward.endpoints) seen.insert(e.access_point);
  for (const EndpointInfo& e : backward.endpoints) {
    if (!seen.insert(e.access_point).second) continue;
    forward.endpoints.push_back(e);
    if (!e.dark) forward.to_authenticate.push_back(e.access_point);
  }
  forward.paths.insert(forward.paths.end(), backward.paths.begin(),
                       backward.paths.end());
  forward.loops += backward.loops;

  // Deduplicate the auth list (an endpoint may appear in both directions).
  std::sort(forward.to_authenticate.begin(), forward.to_authenticate.end());
  forward.to_authenticate.erase(
      std::unique(forward.to_authenticate.begin(),
                  forward.to_authenticate.end()),
      forward.to_authenticate.end());
  return forward;
}

std::vector<std::string> QueryEngine::geo_jurisdictions(
    const hsa::NetworkModel& model, const SnapshotManager& snap, PortRef from,
    const hsa::HeaderSpace& hs, const GeoProvider& geo,
    std::vector<SwitchId>* footprint) const {
  const ReachCache::ResultPtr rp =
      reach_tracked(model, snap, from, hs, footprint);
  const hsa::ReachabilityResult& r = *rp;
  std::vector<std::vector<SwitchId>> paths;
  for (const auto& e : r.endpoints) paths.push_back(e.path);
  for (const auto& c : r.controller_hits) paths.push_back(c.path);
  for (const auto& l : r.loops) paths.push_back(l.path);
  return jurisdictions_of(paths, geo);
}

QueryEngine::PathLengthReport QueryEngine::path_length(
    const hsa::NetworkModel& model, const SnapshotManager& snap, PortRef from,
    PortRef peer_ap, std::uint32_t peer_ip,
    std::vector<SwitchId>* footprint) const {
  PathLengthReport report;

  hsa::Wildcard cube;
  cube.set_field(sdn::Field::IpDst, peer_ip);
  const ReachCache::ResultPtr rp =
      reach_tracked(model, snap, from, hsa::HeaderSpace(cube), footprint);
  const hsa::ReachabilityResult& r = *rp;

  std::uint32_t best = ~std::uint32_t{0};
  for (const auto& e : r.endpoints) {
    if (e.egress != peer_ap) continue;
    report.found = true;
    best = std::min(best, static_cast<std::uint32_t>(e.path.size()));
  }
  if (report.found) report.installed = best;

  const auto optimal =
      control::shortest_switch_path(*topo_, from.sw, peer_ap.sw);
  if (optimal) report.optimal = static_cast<std::uint32_t>(optimal->size());
  return report;
}

std::vector<FairnessMetric> QueryEngine::fairness(
    const hsa::NetworkModel& model, const SnapshotManager& snap, PortRef from,
    const hsa::HeaderSpace& hs, std::vector<SwitchId>* footprint) const {
  const ReachCache::ResultPtr rp =
      reach_tracked(model, snap, from, hs, footprint);
  const hsa::ReachabilityResult& r = *rp;

  // Exact attribution: the reach result records which flow entries carried
  // each delivered subspace; collect the meters of exactly those rules
  // (point lookups — no full table_dump copy on the query path).
  std::uint64_t min_rate = ~std::uint64_t{0};
  std::set<SwitchId> metered_switches;
  for (const auto& endpoint : r.endpoints) {
    for (const auto& [sw, entry_id] : endpoint.rules) {
      const sdn::FlowEntry* entry = snap.find_entry(sw, entry_id);
      const auto meters_it = snap.meters().find(sw);
      if (entry == nullptr || !entry->meter ||
          meters_it == snap.meters().end()) {
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
      FairnessMetric{"paths", static_cast<std::uint64_t>(r.endpoints.size())},
  };
}

std::vector<TransferSummaryEntry> QueryEngine::transfer_summary(
    const hsa::NetworkModel& model, const SnapshotManager& snap, PortRef from,
    const hsa::HeaderSpace& hs, std::vector<SwitchId>* footprint) const {
  const ReachCache::ResultPtr rp =
      reach_tracked(model, snap, from, hs, footprint);
  const hsa::ReachabilityResult& r = *rp;
  std::map<PortRef, std::uint32_t> cubes;
  for (const auto& e : r.endpoints) {
    if (e.egress == from) continue;  // hairpin back to the requester
    cubes[e.egress] += static_cast<std::uint32_t>(e.space.cube_count());
  }
  std::vector<TransferSummaryEntry> out;
  for (const auto& [egress, count] : cubes) {
    out.push_back(TransferSummaryEntry{egress, count});
  }
  return out;
}

QueryEngine::Evaluation QueryEngine::evaluate(const hsa::NetworkModel& model,
                                              const SnapshotManager& snap,
                                              const Property& property,
                                              const EvalContext& ctx) const {
  Evaluation out;
  out.reply.kind = property.kind;
  const hsa::HeaderSpace hs = ctx.space_override != nullptr
                                  ? *ctx.space_override
                                  : constraint_space(property.constraint);
  std::vector<SwitchId>* const fp = &out.footprint;

  ReachComputation reach_comp;
  bool has_endpoints = false;
  switch (property.kind) {
    case QueryKind::ReachableEndpoints:
      // The primary traversal is kept on the Evaluation: the federation
      // path needs its per-endpoint egress subspaces to cross peerings.
      out.primary_reach = reach_tracked(model, snap, ctx.from, hs, fp);
      reach_comp = from_reach_result(
          *out.primary_reach, ctx.exclude_requester
                                  ? std::optional<PortRef>(ctx.from)
                                  : std::nullopt);
      has_endpoints = true;
      break;
    case QueryKind::ReachingSources:
      reach_comp = reaching_sources(model, snap, ctx.from, hs, fp);
      has_endpoints = true;
      break;
    case QueryKind::Isolation:
      reach_comp = isolation(model, snap, ctx.from, hs, fp);
      has_endpoints = true;
      break;
    case QueryKind::Geo:
      util::ensure(ctx.geo != nullptr, "geo query without a geo provider");
      out.reply.jurisdictions =
          geo_jurisdictions(model, snap, ctx.from, hs, *ctx.geo, fp);
      break;
    case QueryKind::PathLength: {
      if (property.peer && ctx.addressing != nullptr) {
        const auto peer_ports = topo_->host_ports(*property.peer);
        if (!peer_ports.empty()) {
          const PathLengthReport report =
              path_length(model, snap, ctx.from, peer_ports.front(),
                          ctx.addressing->of(*property.peer).ip, fp);
          out.reply.path_found = report.found;
          out.reply.installed_path_length = report.installed;
          out.reply.optimal_path_length = report.optimal;
        }
      }
      break;
    }
    case QueryKind::Fairness:
      out.reply.fairness = fairness(model, snap, ctx.from, hs, fp);
      break;
    case QueryKind::TransferSummary:
      out.reply.transfer_summary =
          transfer_summary(model, snap, ctx.from, hs, fp);
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

  if (has_endpoints) {
    out.reply.endpoints = std::move(reach_comp.endpoints);
    if (config_.policy == ConfidentialityPolicy::FullPaths) {
      out.reply.disclosed_paths = render_paths(reach_comp.paths);
    }
    for (const PortRef ap : reach_comp.to_authenticate) {
      // Never probe the requester's own access point.
      if (ctx.exclude_requester && ap == ctx.from) continue;
      out.to_authenticate.push_back(ap);
    }
  }

  // Canonicalize the union footprint (helpers append per-traversal sets).
  std::sort(out.footprint.begin(), out.footprint.end());
  out.footprint.erase(std::unique(out.footprint.begin(), out.footprint.end()),
                      out.footprint.end());
  return out;
}

QueryEngine::Evaluation QueryEngine::evaluate(const SnapshotManager& snap,
                                              const Property& property,
                                              const EvalContext& ctx) const {
  return evaluate(model(snap), snap, property, ctx);
}

std::vector<std::string> QueryEngine::render_paths(
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

}  // namespace rvaas::core
