#pragma once
// Network-wide reachability over compiled transfer functions: given an
// injection port and a header space, compute every egress port (and punt to
// controller) any subset of that space can reach, with the traversed switch
// paths — the static packet-trajectory analysis at the core of RVaaS's
// logical verification step (§IV.A.2 of the paper).

#include <map>
#include <memory>
#include <span>
#include <vector>

#include "hsa/transfer.hpp"
#include "sdn/topology.hpp"

namespace rvaas::hsa {

/// A subspace of the injected traffic that exits the network somewhere.
struct ReachedEndpoint {
  sdn::PortRef egress;
  std::optional<sdn::HostId> host;  ///< nullopt = dark (unplugged) port
  HeaderSpace space;
  std::vector<sdn::SwitchId> path;  ///< switches traversed, in order
  /// The flow entries that carried this subspace, hop by hop (enables
  /// meter/fairness attribution).
  std::vector<std::pair<sdn::SwitchId, sdn::FlowEntryId>> rules;

  bool operator==(const ReachedEndpoint&) const = default;
};

/// A subspace punted to the control plane.
struct ControllerHit {
  sdn::SwitchId sw{};
  std::uint64_t cookie = 0;
  HeaderSpace space;
  std::vector<sdn::SwitchId> path;

  bool operator==(const ControllerHit&) const = default;
};

/// A forwarding loop: the space re-entered a switch already on its path.
struct LoopFinding {
  std::vector<sdn::SwitchId> path;  ///< ends at the repeated switch
  HeaderSpace space;

  bool operator==(const LoopFinding&) const = default;
};

struct ReachabilityResult {
  std::vector<ReachedEndpoint> endpoints;
  std::vector<ControllerHit> controller_hits;
  std::vector<LoopFinding> loops;
  std::size_t steps = 0;  ///< rule applications (cost metric for benches)
  /// Dependency footprint: every switch whose (possibly absent) transfer
  /// function the traversal consulted, sorted ascending. A configuration
  /// change confined to switches OUTSIDE this set cannot alter the result —
  /// the invalidation rule of core::ReachCache (rvaas/engine.hpp). Recorded
  /// whenever a work item survives dominance pruning at a port; fully pruned
  /// re-visits are covered by the earlier visit that seeded the pruning.
  std::vector<sdn::SwitchId> footprint;

  /// Unique hosts reachable (sorted).
  std::vector<sdn::HostId> reached_hosts() const;
  /// Union of all traversed switches (sorted).
  std::vector<sdn::SwitchId> traversed_switches() const;

  /// true iff the sorted footprint shares a switch with `dirty` (sorted).
  bool depends_on(std::span<const sdn::SwitchId> dirty) const;

  bool operator==(const ReachabilityResult&) const = default;
};

/// The logical network model: trusted wiring plan + per-switch transfer
/// functions compiled from a configuration snapshot. The transfer map is
/// held behind a shared_ptr so an incremental compiler (CompiledModelCache)
/// can hand out models without copying compiled state; a model keeps the
/// map it was built with alive and immutable.
class NetworkModel {
 public:
  NetworkModel(const sdn::Topology& topo, NetworkTransfer transfer)
      : topo_(&topo),
        transfer_(std::make_shared<const NetworkTransfer>(
            std::move(transfer))) {}

  /// Shares an externally maintained transfer map without copying it.
  NetworkModel(const sdn::Topology& topo,
               std::shared_ptr<const NetworkTransfer> transfer)
      : topo_(&topo), transfer_(std::move(transfer)) {}

  static NetworkModel from_tables(
      const sdn::Topology& topo,
      const std::map<sdn::SwitchId, std::vector<sdn::FlowEntry>>& tables) {
    return NetworkModel(topo, compile_network(tables));
  }

  /// BFS of (port, space) pairs from an ingress port. Visited spaces are
  /// tracked per (switch, in-port) for dominance pruning, so termination is
  /// guaranteed even with loops.
  ReachabilityResult reach(sdn::PortRef ingress, const HeaderSpace& hs,
                           std::size_t max_depth = 64) const;

  /// Convenience: reach from a host's first access point with full space.
  ReachabilityResult reach_from_host(sdn::HostId host) const;

  const sdn::Topology& topology() const { return *topo_; }
  const NetworkTransfer& transfer() const { return *transfer_; }

 private:
  const sdn::Topology* topo_;
  std::shared_ptr<const NetworkTransfer> transfer_;
};

}  // namespace rvaas::hsa
