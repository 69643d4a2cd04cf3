#pragma once
// WireServer: the non-blocking TCP front-end that puts RvaasController on a
// real wire (Linux: epoll and eventfd). An acceptor plus N I/O threads own
// the sockets; each connection runs a small state machine (AwaitHello ->
// Active) over length-framed wire messages (net/framing.hpp).
//
// Division of labour per query:
//   I/O thread:      framing, envelope open/verify (the enclave's
//                    open/verify/sign are const pure bignum math, so the
//                    per-query asymmetric crypto runs off the controller
//                    thread and scales with --io-threads),
//   service thread:  admission, evaluation, auth bookkeeping — via
//                    WireService::post, FIFO per session,
//   I/O thread:      outbound sign+seal (inband::make_outbound_packet) and
//                    batched flushes (sendmsg with MSG_NOSIGNAL, so a peer
//                    that hung up costs its connection, never the
//                    process), fed through a per-thread mailbox by
//                    deliver().
//
// Routing: a message leaves by the access point it answers, so deliver()
// picks the session whose slot sits at that access point. The controller's
// admission binding (a request speaks only for the host at its own access
// point) makes that the requester's own socket.
//
// A dead socket releases its slot and posts evict_client: its subscriptions
// are unsubscribed and in-flight evaluations cancelled, so it can never
// wedge a monitor sweep. Lifetime: stop() the server before destroying the
// controller or stopping the service.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/service.hpp"
#include "net/session.hpp"
#include "rvaas/controller.hpp"

namespace rvaas::net {

namespace inband = core::inband;

struct WireServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back via port() after start().
  std::uint16_t port = 0;
  std::size_t io_threads = 1;
};

class WireServer : public core::RvaasController::WireTransport {
 public:
  /// `ias_root` is the attestation root the WELCOME advertises; `slots` are
  /// the host identities wire clients may claim; `seed` derives the
  /// per-I/O-thread sealing rngs.
  WireServer(WireServerConfig config, core::RvaasController& controller,
             WireService& service, crypto::VerifyKey ias_root,
             std::vector<WireSlot> slots, std::uint64_t seed);
  /// Calls stop().
  ~WireServer() override;

  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  /// Binds, listens, attaches the controller's wire transport and spawns
  /// the I/O threads.
  void start();
  /// Detaches the transport, closes every connection (evicting its
  /// sessions) and joins the I/O threads. Safe to call twice.
  void stop();

  std::uint16_t port() const { return port_; }
  const SessionTable& sessions() const { return sessions_; }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t flushes = 0;        ///< sendmsg calls (batching ratio =
                                      ///< frames_out / flushes)
    std::uint64_t bad_frames = 0;     ///< poisoned streams + undecodable
    std::uint64_t bad_hellos = 0;
    std::uint64_t bad_envelopes = 0;  ///< open/verify failures on I/O threads
    std::uint64_t requests_in = 0;
    std::uint64_t subscribes_in = 0;
    std::uint64_t auth_replies_in = 0;
    std::uint64_t replies_out = 0;
    std::uint64_t notifications_out = 0;
    std::uint64_t auth_requests_out = 0;
    std::uint64_t evictions = 0;
  };
  Stats stats() const;

  /// WireTransport (service thread): hands `out` to the I/O thread of the
  /// session whose slot sits at `to`; false when no session owns it.
  bool deliver(sdn::PortRef to, const inband::Outbound& out) override;

 private:
  struct Connection;
  struct IoThread;
  struct Outbound;

  void io_run(IoThread& t, bool is_acceptor);
  void accept_ready(IoThread& t);
  void adopt(IoThread& t, int fd, std::uint64_t id);
  void process_mailbox(IoThread& t);
  void handle_read(IoThread& t, Connection& conn);
  void handle_frame(IoThread& t, Connection& conn,
                    std::span<const std::uint8_t> frame);
  void handle_hello(IoThread& t, Connection& conn,
                    std::span<const std::uint8_t> frame);
  void handle_inband(IoThread& t, Connection& conn, const sdn::Packet& packet);
  void send_frame(IoThread& t, Connection& conn, util::Bytes payload);
  void flush(IoThread& t, Connection& conn);
  void close_connection(IoThread& t, Connection& conn);

  WireServerConfig config_;
  core::RvaasController* controller_;
  WireService* service_;
  crypto::VerifyKey ias_root_;
  SessionTable sessions_;
  std::uint64_t seed_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;
  std::uint64_t next_conn_id_ = 1;  ///< drawn by the acceptor thread only
  std::vector<std::unique_ptr<IoThread>> io_threads_;

  /// WELCOME identity fields, fixed at construction (quote() signs once).
  WireWelcome welcome_template_;

  struct AtomicStats {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_closed{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> bad_frames{0};
    std::atomic<std::uint64_t> bad_hellos{0};
    std::atomic<std::uint64_t> bad_envelopes{0};
    std::atomic<std::uint64_t> requests_in{0};
    std::atomic<std::uint64_t> subscribes_in{0};
    std::atomic<std::uint64_t> auth_replies_in{0};
    std::atomic<std::uint64_t> replies_out{0};
    std::atomic<std::uint64_t> notifications_out{0};
    std::atomic<std::uint64_t> auth_requests_out{0};
    std::atomic<std::uint64_t> evictions{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace rvaas::net
