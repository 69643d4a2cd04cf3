#pragma once
// The simulated network: topology + switch instances + host NICs +
// authenticated controller channels, all driven by the discrete-event loop.
//
// Two execution modes:
//  * Event-driven: host_send / packet_out / flow_mod schedule real message
//    exchanges with link, processing and control-channel latencies — used by
//    the protocol experiments (Fig. 1/2 reproduction).
//  * Functional: trace() walks a packet through the data plane instantly —
//    the ground truth that HSA-based logical verification is tested against.

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "crypto/sign.hpp"
#include "sdn/control_channel.hpp"
#include "sdn/fault_plane.hpp"
#include "sdn/switch.hpp"
#include "sdn/topology.hpp"
#include "sim/event_loop.hpp"
#include "util/rng.hpp"

namespace rvaas::sdn {

struct NetworkConfig {
  sim::Time switch_proc_delay = 2 * sim::kMicrosecond;
  sim::Time control_latency = 200 * sim::kMicrosecond;  ///< per direction
  bool enforce_meters = true;  ///< event-driven path only
  std::size_t max_hops = 256;  ///< event-driven loop guard per packet
};

/// One switch-local step of a packet's walk through the network.
struct TrajectoryHop {
  PortRef in;
  PortRef out;

  bool operator==(const TrajectoryHop&) const = default;
};

/// A copy of the packet leaving the network at an egress port.
struct TrajectoryDelivery {
  PortRef egress;
  std::optional<HostId> host;  ///< nullopt = dark port (unplugged)
  Packet packet;
  std::vector<TrajectoryHop> path;
};

/// Ground-truth result of a functional walk.
struct Trajectory {
  std::vector<TrajectoryDelivery> deliveries;
  std::vector<PacketIn> punts;
  bool loop_detected = false;
  bool ttl_expired = false;
  std::size_t hop_count = 0;

  /// Hosts that received a copy.
  std::vector<HostId> reached_hosts() const;
  /// Set of switches traversed by any copy.
  std::vector<SwitchId> traversed_switches() const;
};

class Network {
 public:
  Network(sim::EventLoop& loop, Topology topology, NetworkConfig config = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const Topology& topology() const { return topo_; }
  sim::EventLoop& loop() { return loop_; }
  const NetworkConfig& config() const { return config_; }

  SwitchSim& switch_sim(SwitchId id);
  const SwitchSim& switch_sim(SwitchId id) const;

  // --- bootstrap configuration (trusted, before any attack) ---

  /// Authorizes a controller certificate on every switch.
  void authorize_controller_key(const crypto::KeyId& key);
  /// Authorizes on a single switch.
  void authorize_controller_key(SwitchId sw, const crypto::KeyId& key);

  /// Per-controller view of the control plane.
  class ControllerHandle {
   public:
    /// Switches this controller successfully authenticated to.
    std::vector<SwitchId> switches() const;
    bool connected(SwitchId sw) const;

    void flow_mod(SwitchId sw, const FlowMod& mod, FlowModCallback cb = {});
    void meter_mod(SwitchId sw, const MeterMod& mod);
    void packet_out(const PacketOut& msg);
    void request_stats(SwitchId sw, StatsCallback cb);
    /// Subscribes to flow-table change notifications from a switch.
    void subscribe_flow_monitor(SwitchId sw);

   private:
    friend class Network;
    ControllerHandle(Network& net, ControllerId id, sim::Time latency)
        : net_(&net), id_(id), latency_(latency) {}

    Network* net_;
    ControllerId id_;
    sim::Time latency_;
  };

  /// Attaches a controller; performs the signed handshake against every
  /// switch. Switches where the key is not authorized refuse the channel.
  ControllerHandle& attach_controller(Controller& controller,
                                      const crypto::SigningKey& key);
  ControllerHandle& attach_controller(Controller& controller,
                                      const crypto::SigningKey& key,
                                      sim::Time latency);

  // --- host side ---

  using HostReceiver = std::function<void(PortRef, const Packet&)>;
  /// Multiple receivers per host are allowed (e.g. a client agent plus a
  /// measurement tool); each delivery fans out to all of them.
  void register_host_receiver(HostId host, HostReceiver receiver);

  /// Sends a packet from a host's NIC into its access point.
  void host_send(HostId host, PortRef access_point, const Packet& packet);

  // --- functional ground truth ---

  /// Walks a packet injected at `ingress` (a switch in-port) through the
  /// data plane instantly. Does not consume meter tokens.
  Trajectory trace(PortRef ingress, const Packet& packet,
                   std::size_t max_hops = 256);

  /// Convenience: trace from a host's access point.
  Trajectory trace_from_host(HostId host, const Packet& packet,
                             std::size_t max_hops = 256);

  // --- observability ---

  struct Counters {
    std::uint64_t data_hops = 0;
    std::uint64_t host_deliveries = 0;
    std::uint64_t dark_deliveries = 0;
    std::uint64_t table_miss_drops = 0;
    std::uint64_t metered_drops = 0;
    std::uint64_t ttl_drops = 0;
    std::uint64_t loop_drops = 0;
    std::uint64_t packet_ins = 0;
    std::uint64_t packet_outs = 0;
    std::uint64_t flow_mods = 0;
    std::uint64_t meter_mods = 0;
    std::uint64_t stats_requests = 0;
    std::uint64_t flow_update_events = 0;
    std::uint64_t rejected_handshakes = 0;
  };
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = Counters{}; }

  // --- fault injection (tests / fuzzer / benches) ---

  /// Interposes a FaultPlane on the monitoring-plane messages (flow/meter
  /// mods, stats request/reply, flow-monitor updates) of the controller the
  /// plane is scoped to. Other controllers and the in-band packet path
  /// (packet_out / packet_in) are unaffected. Pass nullptr to detach. The
  /// plane must outlive the network or be detached first.
  void set_fault_plane(FaultPlane* plane) { fault_plane_ = plane; }
  FaultPlane* fault_plane() { return fault_plane_; }

 private:
  struct ControllerSlot {
    Controller* controller = nullptr;
    sim::Time latency = 0;
    std::map<SwitchId, bool> authenticated;
    std::unique_ptr<ControllerHandle> handle;
  };

  ControllerSlot& slot_of(ControllerId id);
  /// The attached fault plane when it is scoped to `id`, else nullptr.
  FaultPlane* fault_plane_for(ControllerId id) {
    return fault_plane_ && fault_plane_->scoped_to(id) ? fault_plane_
                                                       : nullptr;
  }
  /// Delivers a packet arriving at a switch in-port (event-driven).
  void deliver_to_switch(PortRef in, Packet packet, std::size_t hops_left);
  /// Routes pipeline outputs onward (event-driven).
  void route_outputs(SwitchId sw, const PipelineOutput& out,
                     std::size_t hops_left);
  void dispatch_punt(const PacketIn& punt);

  sim::EventLoop& loop_;
  Topology topo_;
  NetworkConfig config_;
  std::map<SwitchId, std::unique_ptr<SwitchSim>> switches_;
  std::map<SwitchId, std::vector<crypto::KeyId>> authorized_keys_;
  std::map<HostId, std::vector<HostReceiver>> receivers_;
  std::vector<std::unique_ptr<ControllerSlot>> slots_;
  util::Rng handshake_rng_{0x44a5};
  Counters counters_;
  FaultPlane* fault_plane_ = nullptr;
};

}  // namespace rvaas::sdn
