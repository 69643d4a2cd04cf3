#pragma once
// WireClient: a blocking TCP client for the RVaaS wire front-end. It only
// moves packets: the client protocol is core::ClientSession, the same core
// the in-band core::ClientAgent runs on, so a wire session is
// indistinguishable from an in-process agent to the controller and replies
// are byte-identical (pinned by tests/test_net.cpp).
//
// Blocking by design: one client = one session = one thread. The bench and
// the tools run many of these in parallel; concurrency lives in the caller.

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "net/framing.hpp"
#include "rvaas/client.hpp"

namespace rvaas::net {

struct WireClientConfig {
  std::string server = "127.0.0.1";
  std::uint16_t port = 0;
  /// Host slot to claim; 0 = any free slot.
  std::uint32_t requested_host = 0;
  /// Expected enclave identity for attestation verification.
  std::string enclave_name = "rvaas";
  std::string enclave_version = "1.0";
  /// Verify the WELCOME quote before trusting the service keys. Off only
  /// for adversarial tests that talk to the socket without a real enclave.
  bool verify_attestation = true;
  /// Derives this client's signing/sealing keys.
  std::uint64_t seed = 0x5eed;
};

class WireClient {
 public:
  explicit WireClient(WireClientConfig config);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects, handshakes and (unless disabled) verifies attestation.
  /// Returns the WELCOME status; anything but Ok leaves the client closed.
  WelcomeStatus connect();

  /// Every failed handshake step closes the socket, so an open socket is a
  /// session whose RVaaS keys are pinned.
  bool connected() const { return fd_ >= 0; }
  void close();

  /// This session's assigned identity (valid after a successful connect()).
  sdn::HostId host() const { return session_.host(); }
  sdn::PortRef access_point() const { return access_point_; }

  using Outcome = core::ClientSession::Outcome;
  /// One-shot query, blocking up to `timeout_ms`. Auth requests arriving
  /// while waiting are answered inline (the agent contract); notifications
  /// are buffered for wait_notification().
  Outcome query(const core::Query& query, int timeout_ms = 5000);

  /// See core::ClientSession::set_max_staleness.
  void set_max_staleness(std::uint64_t bound) {
    session_.set_max_staleness(bound);
  }

  /// Registers a standing subscription; returns the subscription id.
  /// Throws util::InvariantViolation before a successful connect().
  std::uint64_t subscribe(const core::Property& property,
                          core::NotifyPolicy policy =
                              core::NotifyPolicy::VerdictEdges);
  void unsubscribe(std::uint64_t subscription_id);

  using Event = core::ClientSession::Event;
  /// Next verified push (signature + replay + fingerprint checked), waiting
  /// up to `timeout_ms`. Auth requests are answered inline here too.
  std::optional<Event> wait_notification(int timeout_ms = 5000);

  /// Sends raw bytes down the socket verbatim (adversarial tests only).
  bool send_raw(std::span<const std::uint8_t> bytes);

  using Stats = core::ClientSession::Stats;
  const Stats& stats() const { return session_.stats(); }

 private:
  /// Pumps the socket until a frame is complete or the deadline passes.
  std::optional<util::Bytes> read_frame(int timeout_ms);
  bool send_frame(std::span<const std::uint8_t> payload);
  /// Reads one frame before `deadline` and hands it to the session: auth
  /// requests are answered inline, pushes queued, and the answer to an
  /// outstanding query stored in `*answer` (if non-null). False (nothing
  /// read) on deadline or a dead socket.
  bool pump(std::chrono::steady_clock::time_point deadline,
            std::optional<Outcome>* answer);

  WireClientConfig config_;
  core::ClientSession session_;

  int fd_ = -1;
  FrameDecoder decoder_;
  sdn::PortRef access_point_{};
  std::deque<Event> event_queue_;  ///< pushes not yet handed out
};

}  // namespace rvaas::net
