#pragma once
// Wire session table: maps live TCP connections to host slots. A slot is a
// host identity the deployment reserved for wire clients (see
// workload::ScenarioConfig::wire_hosts) — its address and access point come
// from the same provider addressing plan as every simulated host, so the
// controller cannot tell a wire session from an in-process agent.
//
// Thread-safe: I/O threads claim/release around connection lifecycle while
// the service thread resolves the owner of an access point for outbound
// routing.

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "controlplane/routing.hpp"
#include "net/framing.hpp"
#include "sdn/header.hpp"

namespace rvaas::net {

/// One attachable host identity.
struct WireSlot {
  sdn::HostId host{};
  control::HostAddress address;
  sdn::PortRef access_point{};
};

class SessionTable {
 public:
  explicit SessionTable(std::vector<WireSlot> slots);

  std::size_t capacity() const;
  std::size_t active() const;

  /// Claims a slot for connection `conn`: the requested host id, or any
  /// free slot when `requested_host` is 0. On Ok, `*out` is the claimed
  /// slot. NoFreeSlot / SlotTaken / BadHello (unknown host id) otherwise.
  WelcomeStatus claim(std::uint32_t requested_host, std::uint64_t conn,
                      WireSlot* out);

  /// Frees whatever slot `conn` holds; returns it (for eviction) if any.
  std::optional<WireSlot> release(std::uint64_t conn);

  /// Connection whose slot sits at access point `ap`, if any.
  std::optional<std::uint64_t> owner_of_port(sdn::PortRef ap) const;

 private:
  mutable std::mutex mu_;
  std::vector<WireSlot> slots_;
  /// Slot index -> owning connection (nullopt = free).
  std::vector<std::optional<std::uint64_t>> owner_;
  std::unordered_map<std::uint64_t, std::size_t> by_conn_;
  std::unordered_map<std::uint32_t, std::size_t> by_host_;
  std::unordered_map<sdn::PortRef, std::size_t> by_port_;
};

}  // namespace rvaas::net
