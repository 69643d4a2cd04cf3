#pragma once
// Single-thread replay of a workload's own operations through each layer's
// public API, after the live service has stopped. Each replayed operation is
// one "path" root span whose children are the layer calls on its blocking
// path, in the order the live path makes them; a few layer calls that are
// not on the path are recorded as root spans of their own ("probe.*",
// "hsa.*", "l1.*").

#include <vector>

#include "bench.hpp"
#include "rvaas/controller.hpp"

namespace perfbench {

struct ReplayOp {
  std::size_t session = 0;
  rvaas::core::Property property;
  rvaas::core::QueryReply reply;  ///< the verified reply the live run got
};

struct ReplayInput {
  /// Stopped controller: its snapshot is frozen, its keys are the enclave's.
  const rvaas::core::RvaasController* controller = nullptr;
  const rvaas::sdn::Topology* topo = nullptr;
  const rvaas::control::HostAddressing* addressing = nullptr;
  std::vector<rvaas::sdn::HostId> hosts;     ///< per session
  std::vector<rvaas::sdn::PortRef> aps;      ///< per session
  /// Per session: a tenant peer; the replay's churn event diverts traffic
  /// toward it at the session's ingress switch, like ExfiltrationAttack.
  std::vector<rvaas::sdn::HostId> peers;
  /// Per session: the properties a churn event may wake (the standing
  /// subscriptions on churn_alert, the queried properties otherwise).
  std::vector<std::vector<rvaas::core::Property>> standing;
  /// Query workloads: sampled live queries with their replies.
  std::vector<ReplayOp> ops;
  /// The live query path was served from L2 (query_warm).
  bool l2_hits = false;
  /// Operations are churn events (churn_alert); `standing[s][0]` is the
  /// session's sentinel.
  bool churn = false;
  std::size_t events = 0;
  std::uint64_t seed = 0;
};

void replay(const ReplayInput& input, Tracer& tracer);

/// Fills in the authentication outcome in-process responders always
/// produce: every probed endpoint answers as the host wired to it.
void authenticate_all(const rvaas::sdn::Topology& topo,
                      rvaas::core::QueryEngine::Evaluation& ev);

}  // namespace perfbench
