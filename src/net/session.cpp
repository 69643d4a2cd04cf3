#include "net/session.hpp"

namespace rvaas::net {

SessionTable::SessionTable(std::vector<WireSlot> slots)
    : slots_(std::move(slots)), owner_(slots_.size()) {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    by_host_[slots_[i].host.value] = i;
    by_port_[slots_[i].access_point] = i;
  }
}

std::size_t SessionTable::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

std::size_t SessionTable::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_conn_.size();
}

WelcomeStatus SessionTable::claim(std::uint32_t requested_host,
                                  std::uint64_t conn, WireSlot* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (by_conn_.contains(conn)) return WelcomeStatus::BadHello;  // double HELLO
  std::size_t index = slots_.size();
  if (requested_host != 0) {
    const auto it = by_host_.find(requested_host);
    if (it == by_host_.end()) return WelcomeStatus::BadHello;
    if (owner_[it->second].has_value()) return WelcomeStatus::SlotTaken;
    index = it->second;
  } else {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!owner_[i].has_value()) {
        index = i;
        break;
      }
    }
    if (index == slots_.size()) return WelcomeStatus::NoFreeSlot;
  }
  owner_[index] = conn;
  by_conn_[conn] = index;
  *out = slots_[index];
  return WelcomeStatus::Ok;
}

std::optional<WireSlot> SessionTable::release(std::uint64_t conn) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_conn_.find(conn);
  if (it == by_conn_.end()) return std::nullopt;
  const std::size_t index = it->second;
  owner_[index] = std::nullopt;
  by_conn_.erase(it);
  return slots_[index];
}

std::optional<std::uint64_t> SessionTable::owner_of_port(
    sdn::PortRef ap) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_port_.find(ap);
  if (it == by_port_.end()) return std::nullopt;
  return owner_[it->second];
}

}  // namespace rvaas::net
