#pragma once
// The RVaaS query engine: pure computation from a configuration snapshot to
// query results, built on the HSA reachability engine. No I/O — the
// controller (rvaas/controller.hpp) feeds it snapshots and dispatches the
// in-band authentication round-trips it prescribes. Single-threaded: every
// caller (controller, monitor, federation) runs on the controller's thread.

#include <memory>
#include <unordered_map>

#include "controlplane/routing.hpp"
#include "hsa/reachability.hpp"
#include "rvaas/geo.hpp"
#include "rvaas/query.hpp"
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
/// stay immutable.
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

  /// TEST-ONLY fault injection: while enabled, every instance stops
  /// refreshing dirty switches and serves its last compiled model unchanged
  /// — a deliberately broken invalidation path that the differential
  /// oracles (src/testing/oracles.hpp) must catch. Never enable outside
  /// tests; affects all instances process-wide.
  static void test_fault_freeze_invalidation(bool on);

  Stats stats() const { return stats_; }

 private:
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
/// instead of O(network).
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
    std::uint64_t misses = 0;  ///< computed and stored
    std::uint64_t entries_invalidated = 0;  ///< evicted by footprint overlap
    std::uint64_t full_clears = 0;  ///< snapshot identity changes
    std::uint64_t capacity_flushes = 0;  ///< kMaxEntries overflows

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

  /// TEST-ONLY fault injection: while enabled, snapshot churn no longer
  /// evicts footprint-dirty entries — stale reachability results survive
  /// and the differential oracles must catch them. Never enable outside
  /// tests; affects all instances process-wide.
  static void test_fault_freeze_invalidation(bool on);

  Stats stats() const { return stats_; }

 private:
  /// The fingerprint hashes; structural HeaderSpace equality tells colliding
  /// fingerprints apart.
  struct Key {
    std::uint64_t fingerprint = 0;
    sdn::PortRef ingress;
    std::size_t max_depth = 0;
    hsa::HeaderSpace hs;

    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  /// Syncs the cache to `snap`'s change clock: clears on identity change,
  /// evicts footprint-dirty entries on epoch advance.
  void validate(const SnapshotManager& snap);

  std::unordered_map<Key, ResultPtr, KeyHash> entries_;
  std::uint64_t snapshot_id_ = 0;     ///< 0 = nothing cached yet
  std::uint64_t validated_epoch_ = 0; ///< snapshot epoch entries are valid at
  Stats stats_;
};

struct EngineConfig {
  ConfidentialityPolicy policy = ConfidentialityPolicy::EndpointsOnly;
  std::size_t max_depth = 64;
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
  CompiledModelCache::Stats cache_stats() const { return model_cache_.stats(); }

  /// Counters of the engine's reachability result cache (L2).
  ReachCache::Stats reach_stats() const { return reach_cache_.stats(); }

  /// Cached reachability (the L2 tier): serves (ingress, hs) from the
  /// ReachCache when no dirty switch intersects the stored footprint,
  /// computing on `model` otherwise. Every traversal of evaluate() funnels
  /// through here.
  ReachCache::ResultPtr reach(const hsa::NetworkModel& model,
                              const SnapshotManager& snap,
                              sdn::PortRef ingress,
                              const hsa::HeaderSpace& hs) const;

  /// Converts a client constraint into a header space.
  static hsa::HeaderSpace constraint_space(const sdn::Match& constraint);

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
  /// A Geo property needs `ctx.geo` (the controller refuses Geo requests
  /// up front when it has no geo provider: RvaasController::can_evaluate).
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
  const sdn::Topology* topo_;
  EngineConfig config_;
  mutable CompiledModelCache model_cache_;
  mutable ReachCache reach_cache_;
};

}  // namespace rvaas::core
