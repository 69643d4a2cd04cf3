#pragma once
// The RVaaS query engine: pure computation from a configuration snapshot to
// query results, built on the HSA reachability engine. No I/O — the
// controller (rvaas/controller.hpp) feeds it snapshots and dispatches the
// in-band authentication round-trips it prescribes.

#include <array>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "controlplane/routing.hpp"
#include "hsa/reachability.hpp"
#include "rvaas/geo.hpp"
#include "rvaas/query.hpp"
#include "rvaas/shard.hpp"
#include "rvaas/snapshot.hpp"

namespace rvaas::core {

/// What query answers may reveal about the provider's network (§III:
/// "clients should not be able to infer the topology"). Semantics and
/// rationale are documented in docs/CONFIDENTIALITY.md.
enum class ConfidentialityPolicy {
  EndpointsOnly,  ///< answers name access points only (default)
  FullPaths,      ///< strawman that discloses internal paths (experiment E5)
};

/// Incrementally maintained snapshot→model compiler — the §IV.A.2 hot path.
/// Keyed on (SnapshotManager::instance_id, table epochs): a model() call
/// recompiles only switches whose table content changed since the previous
/// call and reuses every other compiled transfer function. Returned models
/// share the compiled map by shared_ptr; if a previously returned model is
/// still alive when the cache must mutate, it copies-on-write, so models
/// stay immutable. Thread-safe (internal mutex).
class CompiledModelCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;           ///< model() calls
    std::uint64_t full_rebuilds = 0;     ///< first use / snapshot identity change
    std::uint64_t clean_hits = 0;        ///< lookups with zero dirty switches
    std::uint64_t switch_recompiles = 0; ///< per-switch compilations performed
    std::uint64_t switch_hits = 0;       ///< per-switch compilations reused

    /// Fraction of per-switch compilations avoided across all lookups.
    double switch_hit_rate() const {
      const std::uint64_t total = switch_recompiles + switch_hits;
      return total == 0 ? 0.0 : static_cast<double>(switch_hits) / total;
    }
  };

  /// A model of the snapshot's current state, recompiling only dirty
  /// switches. Results are always identical to a cold full compilation.
  hsa::NetworkModel model(const sdn::Topology& topo,
                          const SnapshotManager& snap);

  /// Drops all compiled state (the next lookup is a full rebuild).
  void invalidate();

  /// TEST-ONLY fault injection: while enabled, every instance stops
  /// refreshing dirty switches and serves its last compiled model unchanged
  /// — a deliberately broken invalidation path that the differential
  /// oracles (src/testing/oracles.hpp) must catch. Never enable outside
  /// tests; affects all instances process-wide.
  static void test_fault_freeze_invalidation(bool on);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::shared_ptr<hsa::NetworkTransfer> transfer_;
  std::uint64_t snapshot_id_ = 0;     ///< 0 = nothing cached
  std::uint64_t snapshot_epoch_ = 0;  ///< snapshot epoch at last refresh
  Stats stats_;
};

/// The second cache tier of the verification pipeline (L2; the
/// CompiledModelCache above is L1): memoizes ReachabilityResults keyed by
/// (ingress port, header-space structure, traversal depth) together with the
/// dependency footprint the traversal recorded. On snapshot churn, only
/// entries whose footprint intersects the dirty switches are dropped — a
/// change confined to switches a traversal never consulted cannot alter its
/// result — so steady-state reverification costs O(affected ingresses)
/// instead of O(network). Entries are sharded by ingress switch partition
/// (shard.hpp) with per-shard coverage masks, so the eviction walk visits
/// only shards the churn can touch — eviction cost tracks the dirty
/// partition, not total cache size. Thread-safe; misses compute outside the
/// lock, so a traversal never blocks another thread's lookups.
class ReachCache {
 public:
  using ResultPtr = std::shared_ptr<const hsa::ReachabilityResult>;

  /// Capacity bound: clients control the query constraint, so distinct
  /// header spaces would otherwise accumulate without limit on a stable
  /// snapshot. Overflow flushes the tier (entries are pure recomputations —
  /// a flush costs misses, never correctness).
  static constexpr std::size_t kMaxEntries = 1 << 14;

  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;    ///< served from cache
    std::uint64_t misses = 0;  ///< computed (and, when still current, stored)
    std::uint64_t entries_invalidated = 0;  ///< evicted by footprint overlap
    std::uint64_t full_clears = 0;  ///< snapshot identity changes
    std::uint64_t capacity_flushes = 0;  ///< kMaxEntries overflows
    std::uint64_t shards_walked = 0;   ///< eviction walks into a shard
    std::uint64_t shards_skipped = 0;  ///< shards whose coverage mask proved
                                       ///< them disjoint from the churn

    double hit_rate() const {
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    }
  };

  /// The cached result for (ingress, hs, max_depth) under `snap`'s current
  /// state, computing it on `model` first if absent. `model` must be the
  /// compilation of `snap`'s current state (what QueryEngine::model returns);
  /// results are always identical to a direct model.reach() call.
  ResultPtr reach(const hsa::NetworkModel& model, const SnapshotManager& snap,
                  sdn::PortRef ingress, const hsa::HeaderSpace& hs,
                  std::size_t max_depth);

  /// Drops every entry.
  void invalidate();

  /// TEST-ONLY fault injection: while enabled, snapshot churn no longer
  /// evicts footprint-dirty entries — stale reachability results survive
  /// and the differential oracles must catch them. Never enable outside
  /// tests; affects all instances process-wide.
  static void test_fault_freeze_invalidation(bool on);

  std::size_t size() const;
  Stats stats() const;

 private:
  struct Key {
    sdn::PortRef ingress;
    std::uint64_t space_fingerprint = 0;
    std::size_t max_depth = 0;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };
  struct Entry {
    hsa::HeaderSpace hs;  ///< exact key half (fingerprints may collide)
    ResultPtr result;
    /// Shard-partition summary of result->footprint: disjoint from the
    /// dirty mask ⇒ no footprint switch churned (skips the exact
    /// intersect); overlap still confirms via depends_on().
    std::uint32_t footprint_mask = 0;
  };
  /// One switch-partition of the cache (entries home by ingress switch).
  /// Footprints are locality-bound paths near the ingress, so a shard's
  /// coverage mask stays narrow and churn confined to another partition
  /// skips the shard's eviction walk entirely.
  struct Shard {
    /// Fingerprint-keyed buckets; entries within a bucket disambiguate by
    /// structural HeaderSpace equality.
    std::unordered_map<Key, std::vector<Entry>, KeyHash> buckets;
    std::uint32_t coverage = 0;  ///< OR of member entries' footprint masks
    std::size_t entries = 0;
  };

  /// Syncs the cache to `snap`'s change clock: clears on identity change,
  /// evicts footprint-dirty entries on epoch advance — walking only shards
  /// whose coverage mask intersects the churn. Caller holds mu_.
  void validate(const SnapshotManager& snap);
  void clear_entries();

  mutable std::mutex mu_;
  std::array<Shard, kSwitchShards> shards_;
  std::size_t entry_count_ = 0;       ///< total entries across shards
  std::uint64_t snapshot_id_ = 0;     ///< 0 = nothing cached yet
  std::uint64_t validated_epoch_ = 0; ///< snapshot epoch entries are valid at
  Stats stats_;
};

struct EngineConfig {
  ConfidentialityPolicy policy = ConfidentialityPolicy::EndpointsOnly;
  std::size_t max_depth = 64;
};

/// Result of the logical step for endpoint-style queries: the endpoint
/// skeleton plus which access points need in-band authentication.
struct ReachComputation {
  std::vector<EndpointInfo> endpoints;
  /// Access points with hosts behind them, to be probed via auth requests.
  std::vector<sdn::PortRef> to_authenticate;
  /// Switch paths (internal; disclosed only under FullPaths).
  std::vector<std::vector<sdn::SwitchId>> paths;
  /// Loops found along the way (reported as anomalies).
  std::size_t loops = 0;
};

class QueryEngine {
 public:
  QueryEngine(const sdn::Topology& topo, EngineConfig config)
      : topo_(&topo), config_(config) {}

  /// Compiles the snapshot into a logical network model through the
  /// engine's CompiledModelCache: only switches whose table epoch advanced
  /// since the last call are recompiled. Single-query, monitor and polling
  /// paths all funnel through here, so they share one cache. Results are
  /// identical to model_uncached().
  hsa::NetworkModel model(const SnapshotManager& snap) const;

  /// Cold path: full recompilation of every switch, bypassing the cache
  /// (the baseline for bench_reach_cache and the equivalence tests).
  hsa::NetworkModel model_uncached(const SnapshotManager& snap) const;

  /// Counters of the engine's model cache (L1).
  CompiledModelCache::Stats cache_stats() const { return cache_->stats(); }

  /// Counters of the engine's reachability result cache (L2).
  ReachCache::Stats reach_stats() const { return reach_cache_->stats(); }

  /// Cached reachability (the L2 tier): serves (ingress, hs) from the
  /// ReachCache when no dirty switch intersects the stored footprint,
  /// computing on `model` otherwise. Every query path below funnels its
  /// traversals through here.
  ReachCache::ResultPtr reach(const hsa::NetworkModel& model,
                              const SnapshotManager& snap,
                              sdn::PortRef ingress,
                              const hsa::HeaderSpace& hs) const;

  /// Converts a client constraint into a header space.
  static hsa::HeaderSpace constraint_space(const sdn::Match& constraint);

  /// Which endpoints can traffic in `hs` injected at `from` reach? The
  /// requester's own access point is excluded (hairpin routes back to the
  /// client are not a disclosure). When `footprint` is non-null, the
  /// dependency footprints of every traversal consulted are appended to it
  /// (unsorted; evaluate() canonicalizes).
  ReachComputation reachable_endpoints(
      const hsa::NetworkModel& model, const SnapshotManager& snap,
      sdn::PortRef from, const hsa::HeaderSpace& hs,
      std::vector<sdn::SwitchId>* footprint = nullptr) const;

  /// Which access points have installed routes reaching `target`?
  ReachComputation reaching_sources(
      const hsa::NetworkModel& model, const SnapshotManager& snap,
      sdn::PortRef target, const hsa::HeaderSpace& hs,
      std::vector<sdn::SwitchId>* footprint = nullptr) const;

  /// Union of both directions (the §IV.B.1 isolation check).
  ReachComputation isolation(
      const hsa::NetworkModel& model, const SnapshotManager& snap,
      sdn::PortRef request_point, const hsa::HeaderSpace& hs,
      std::vector<sdn::SwitchId>* footprint = nullptr) const;

  /// Jurisdictions any traffic in `hs` from `from` may cross.
  std::vector<std::string> geo_jurisdictions(
      const hsa::NetworkModel& model, const SnapshotManager& snap,
      sdn::PortRef from, const hsa::HeaderSpace& hs, const GeoProvider& geo,
      std::vector<sdn::SwitchId>* footprint = nullptr) const;

  struct PathLengthReport {
    bool found = false;
    std::uint32_t installed = 0;  ///< switches on the installed route
    std::uint32_t optimal = 0;    ///< switches on the shortest possible route
  };
  /// Length of the installed route from `from` to the host at `peer_ap`,
  /// against the topology optimum.
  PathLengthReport path_length(const hsa::NetworkModel& model,
                               const SnapshotManager& snap, sdn::PortRef from,
                               sdn::PortRef peer_ap, std::uint32_t peer_ip,
                               std::vector<sdn::SwitchId>* footprint =
                                   nullptr) const;

  /// Meter-based fairness metrics for traffic in `hs` from `from`:
  ///   min-rate-bps       — tightest meter on any of the client's paths
  ///                        (uint64 max if unmetered),
  ///   metered-switches   — how many traversed switches meter this traffic,
  ///   paths              — number of distinct egress spaces considered.
  std::vector<FairnessMetric> fairness(
      const hsa::NetworkModel& model, const SnapshotManager& snap,
      sdn::PortRef from, const hsa::HeaderSpace& hs,
      std::vector<sdn::SwitchId>* footprint = nullptr) const;

  /// Compact representation of the client's transfer function: egress ports
  /// with the cube count of the traffic subspace reaching them.
  std::vector<TransferSummaryEntry> transfer_summary(
      const hsa::NetworkModel& model, const SnapshotManager& snap,
      sdn::PortRef from, const hsa::HeaderSpace& hs,
      std::vector<sdn::SwitchId>* footprint = nullptr) const;

  /// Renders paths for FullPaths mode (E5 leakage strawman).
  static std::vector<std::string> render_paths(
      const std::vector<std::vector<sdn::SwitchId>>& paths);

  /// Hook for PolicyCompliance evaluations, implemented by the federation
  /// layer (rvaas/multiprovider.hpp): walks observed inter-domain crossings
  /// for traffic entering at `from` and reports each against the declared
  /// policies. The engine itself knows nothing about domains — a
  /// PolicyCompliance evaluation without a walker yields an empty report (a
  /// lone domain has no crossings to verify).
  class PolicyWalker {
   public:
    virtual ~PolicyWalker() = default;
    virtual std::vector<PolicyReportItem> walk(
        sdn::PortRef from, const hsa::HeaderSpace& hs) const = 0;
  };

  /// Per-evaluation context: where the request entered the network, the
  /// optional providers some query kinds need, and internal knobs used by
  /// the federation path.
  struct EvalContext {
    sdn::PortRef from{};
    const GeoProvider* geo = nullptr;                     ///< Geo queries
    const control::HostAddressing* addressing = nullptr;  ///< PathLength
    const PolicyWalker* policy = nullptr;  ///< PolicyCompliance queries
    /// Pre-built constraint space overriding the property's Match (federated
    /// crossing spaces are multi-cube and have no Match representation).
    const hsa::HeaderSpace* space_override = nullptr;
    /// Exclude `from` from endpoint answers (hairpins back to the requester
    /// are not a disclosure). Federation keeps hairpins: a border ingress is
    /// not the requester.
    bool exclude_requester = true;
  };

  /// The logical step of verifying one Property: everything the engine can
  /// compute from the snapshot alone — THE single per-QueryKind dispatch.
  /// One-shot queries, federated subqueries and the push monitor all
  /// funnel through here. `to_authenticate` lists the access points the
  /// caller (the controller) still has to probe in-band; it never includes
  /// `ctx.from` (unless ctx.exclude_requester is off) and is empty for query
  /// kinds without endpoint answers.
  struct Evaluation {
    QueryReply reply;
    std::vector<sdn::PortRef> to_authenticate;
    /// Union dependency footprint of every reach the evaluation consulted
    /// (sorted ascending): a configuration change confined to switches
    /// outside this set cannot alter the reply. The monitor's wakeup filter.
    /// Note meters are outside the change clock, so a Fairness evaluation
    /// can change without its footprint going dirty — the timer-driven
    /// re-verification sweep covers that.
    std::vector<sdn::SwitchId> footprint;
    /// The primary traversal for endpoint-style kinds (null otherwise);
    /// carries the per-endpoint egress subspaces the federation path needs
    /// to continue a walk across a peering.
    ReachCache::ResultPtr primary_reach;
  };
  Evaluation evaluate(const hsa::NetworkModel& model,
                      const SnapshotManager& snap, const Property& property,
                      const EvalContext& ctx) const;
  /// As above, compiling the snapshot through the L1 cache first.
  Evaluation evaluate(const SnapshotManager& snap, const Property& property,
                      const EvalContext& ctx) const;

  const EngineConfig& config() const { return config_; }
  /// The wiring plan this engine compiles models against.
  const sdn::Topology& topology() const { return *topo_; }

 private:
  ReachComputation from_reach_result(const hsa::ReachabilityResult& r,
                                     std::optional<sdn::PortRef> exclude) const;

  /// reach() plus footprint accumulation (append-only; callers sort+unique).
  ReachCache::ResultPtr reach_tracked(const hsa::NetworkModel& model,
                                      const SnapshotManager& snap,
                                      sdn::PortRef ingress,
                                      const hsa::HeaderSpace& hs,
                                      std::vector<sdn::SwitchId>* fp) const;

  const sdn::Topology* topo_;
  EngineConfig config_;
  /// Heap-held so the engine stays movable (the caches own mutexes).
  mutable std::unique_ptr<CompiledModelCache> cache_ =
      std::make_unique<CompiledModelCache>();
  mutable std::unique_ptr<ReachCache> reach_cache_ =
      std::make_unique<ReachCache>();
};

}  // namespace rvaas::core
