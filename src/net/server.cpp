#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#if defined(__linux__)
#include <sys/epoll.h>
#include <sys/eventfd.h>
#else
#include <poll.h>
#endif

#include "rvaas/inband.hpp"
#include "util/ensure.hpp"

namespace rvaas::net {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  util::ensure(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
               "fcntl(O_NONBLOCK) failed");
}

/// Readiness notifier pollable by the I/O loop (eventfd on Linux, a
/// self-pipe elsewhere).
class Wakeup {
 public:
  Wakeup() {
#if defined(__linux__)
    read_fd_ = write_fd_ = ::eventfd(0, EFD_NONBLOCK);
    util::ensure(read_fd_ >= 0, "eventfd failed");
#else
    int fds[2];
    util::ensure(::pipe(fds) == 0, "pipe failed");
    read_fd_ = fds[0];
    write_fd_ = fds[1];
    set_nonblocking(read_fd_);
    set_nonblocking(write_fd_);
#endif
  }
  ~Wakeup() {
    ::close(read_fd_);
    if (write_fd_ != read_fd_) ::close(write_fd_);
  }
  int fd() const { return read_fd_; }
  void notify() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(write_fd_, &one, sizeof one);  // full pipe == already pending
  }
  void drain() {
    std::uint8_t buf[64];
    while (::read(read_fd_, buf, sizeof buf) > 0) {
    }
  }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// Thin readiness-poller: epoll on Linux, poll(2) fallback elsewhere.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

#if defined(__linux__)
  Poller() : epfd_(::epoll_create1(0)) {
    util::ensure(epfd_ >= 0, "epoll_create1 failed");
  }
  ~Poller() { ::close(epfd_); }
  void add(int fd, bool write) { ctl(EPOLL_CTL_ADD, fd, write); }
  void mod(int fd, bool write) { ctl(EPOLL_CTL_MOD, fd, write); }
  void del(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }
  void wait(std::vector<Event>& out, int timeout_ms) {
    epoll_event events[128];
    const int n = ::epoll_wait(epfd_, events, 128, timeout_ms);
    out.clear();
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = events[i].data.fd;
      e.readable = (events[i].events & EPOLLIN) != 0;
      e.writable = (events[i].events & EPOLLOUT) != 0;
      e.error = (events[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(e);
    }
  }

 private:
  void ctl(int op, int fd, bool write) {
    epoll_event ev{};
    ev.events = EPOLLIN | (write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    util::ensure(::epoll_ctl(epfd_, op, fd, &ev) == 0, "epoll_ctl failed");
  }
  int epfd_;
#else
  void add(int fd, bool write) {
    index_[fd] = fds_.size();
    fds_.push_back(pollfd{fd, static_cast<short>(POLLIN | (write ? POLLOUT : 0)), 0});
  }
  void mod(int fd, bool write) {
    fds_[index_.at(fd)].events =
        static_cast<short>(POLLIN | (write ? POLLOUT : 0));
  }
  void del(int fd) {
    const std::size_t i = index_.at(fd);
    index_.erase(fd);
    fds_[i] = fds_.back();
    fds_.pop_back();
    if (i < fds_.size()) index_[fds_[i].fd] = i;
  }
  void wait(std::vector<Event>& out, int timeout_ms) {
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    out.clear();
    if (n <= 0) return;
    for (const pollfd& p : fds_) {
      if (p.revents == 0) continue;
      Event e;
      e.fd = p.fd;
      e.readable = (p.revents & POLLIN) != 0;
      e.writable = (p.revents & POLLOUT) != 0;
      e.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(e);
      if (out.size() == static_cast<std::size_t>(n)) break;
    }
  }

 private:
  std::vector<pollfd> fds_;
  std::unordered_map<int, std::size_t> index_;
#endif
};

}  // namespace

/// One outbound unit routed from the service thread to a connection's
/// owning I/O thread, which signs/seals and ships it.
struct WireServer::Outbound {
  enum class Kind { Reply, Notification, AuthRequest } kind = Kind::Reply;
  std::uint64_t conn = 0;
  core::QueryReply reply;
  core::Notification notification;
  inband::AuthRequest auth;
};

struct WireServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  FrameDecoder decoder;
  bool hello_done = false;
  bool has_session = false;
  WireSlot slot;
  crypto::VerifyKey client_key;
  crypto::BigUInt client_box_pub;
  /// Outbound frames awaiting the socket; coalesced into one writev per
  /// flush. out_offset_ is the partially-written prefix of the front frame.
  std::deque<util::Bytes> outq;
  std::size_t out_offset = 0;
  bool want_write = false;
  bool close_after_flush = false;
};

struct WireServer::IoThread {
  explicit IoThread(std::uint64_t seed) : rng(seed) {}

  std::thread thread;
  Poller poller;
  Wakeup wakeup;
  util::Rng rng;  ///< sealing randomness, confined to this thread

  std::mutex mu;
  std::vector<Outbound> mailbox;
  std::vector<std::pair<int, std::uint64_t>> adopt_fds;  // (fd, conn id)
  bool stop = false;

  // Owned exclusively by this thread's loop:
  std::unordered_map<int, std::unique_ptr<Connection>> conns;  // by fd
  std::unordered_map<std::uint64_t, int> fd_of;                // id -> fd
};

WireServer::WireServer(WireServerConfig config,
                       core::RvaasController& controller, WireService& service,
                       crypto::VerifyKey ias_root, std::vector<WireSlot> slots,
                       std::uint64_t seed)
    : config_(std::move(config)),
      controller_(&controller),
      service_(&service),
      ias_root_(std::move(ias_root)),
      sessions_(std::move(slots)),
      seed_(seed) {
  util::ensure(config_.io_threads >= 1, "need at least one I/O thread");
  welcome_template_.rvaas_key = controller.enclave().verify_key();
  welcome_template_.rvaas_box_pub = controller.enclave().box_public();
  welcome_template_.quote = controller.quote();
  welcome_template_.ias_root = ias_root_;
  welcome_template_.enclave_name = controller.enclave().name();
  welcome_template_.enclave_version = controller.enclave().version();
}

WireServer::~WireServer() { stop(); }

void WireServer::start() {
  util::ensure(!started_, "WireServer already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  util::ensure(listen_fd_ >= 0, "socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  util::ensure(
      ::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) == 1,
      "bad bind address");
  util::ensure(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr) == 0,
               "bind() failed");
  util::ensure(::listen(listen_fd_, 512) == 0, "listen() failed");
  set_nonblocking(listen_fd_);
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  for (std::size_t i = 0; i < config_.io_threads; ++i) {
    io_threads_.push_back(
        std::make_unique<IoThread>(seed_ ^ (0x10a4ull * (i + 1))));
  }
  // The controller offers outbound deliveries from the service thread; the
  // attach itself must happen there too.
  service_->call([this] { controller_->set_wire_transport(this); });
  for (std::size_t i = 0; i < io_threads_.size(); ++i) {
    IoThread& t = *io_threads_[i];
    t.thread = std::thread([this, &t, i] { io_run(t, /*is_acceptor=*/i == 0); });
  }
  started_ = true;
}

void WireServer::stop() {
  if (!started_) return;
  started_ = false;
  service_->call([this] { controller_->set_wire_transport(nullptr); });
  for (auto& t : io_threads_) {
    {
      std::lock_guard<std::mutex> lock(t->mu);
      t->stop = true;
    }
    t->wakeup.notify();
  }
  for (auto& t : io_threads_) t->thread.join();
  io_threads_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

WireServer::Stats WireServer::stats() const {
  Stats s;
  s.connections_accepted = stats_.connections_accepted.load();
  s.connections_closed = stats_.connections_closed.load();
  s.bytes_in = stats_.bytes_in.load();
  s.bytes_out = stats_.bytes_out.load();
  s.frames_in = stats_.frames_in.load();
  s.frames_out = stats_.frames_out.load();
  s.flushes = stats_.flushes.load();
  s.bad_frames = stats_.bad_frames.load();
  s.bad_hellos = stats_.bad_hellos.load();
  s.bad_envelopes = stats_.bad_envelopes.load();
  s.requests_in = stats_.requests_in.load();
  s.subscribes_in = stats_.subscribes_in.load();
  s.auth_replies_in = stats_.auth_replies_in.load();
  s.replies_out = stats_.replies_out.load();
  s.notifications_out = stats_.notifications_out.load();
  s.auth_requests_out = stats_.auth_requests_out.load();
  s.evictions = stats_.evictions.load();
  return s;
}

// --- WireTransport (service thread) ---

bool WireServer::deliver_reply(sdn::HostId client,
                               const core::QueryReply& reply) {
  const auto conn = sessions_.owner_of_host(client);
  if (!conn) return false;
  Outbound out;
  out.kind = Outbound::Kind::Reply;
  out.conn = *conn;
  out.reply = reply;
  enqueue_outbound(*conn, std::move(out));
  return true;
}

bool WireServer::deliver_notification(sdn::HostId client,
                                      const core::Notification& notification) {
  const auto conn = sessions_.owner_of_host(client);
  if (!conn) return false;
  Outbound out;
  out.kind = Outbound::Kind::Notification;
  out.conn = *conn;
  out.notification = notification;
  enqueue_outbound(*conn, std::move(out));
  return true;
}

bool WireServer::deliver_auth_request(sdn::PortRef target,
                                      const inband::AuthRequest& req) {
  const auto conn = sessions_.owner_of_port(target);
  if (!conn) return false;
  Outbound out;
  out.kind = Outbound::Kind::AuthRequest;
  out.conn = *conn;
  out.auth = req;
  enqueue_outbound(*conn, std::move(out));
  return true;
}

void WireServer::enqueue_outbound(std::uint64_t conn_id, Outbound out) {
  IoThread& t = *io_threads_[conn_id % io_threads_.size()];
  {
    std::lock_guard<std::mutex> lock(t.mu);
    t.mailbox.push_back(std::move(out));
  }
  t.wakeup.notify();
}

// --- I/O threads ---

void WireServer::io_run(IoThread& t, bool is_acceptor) {
  t.poller.add(t.wakeup.fd(), /*write=*/false);
  if (is_acceptor) t.poller.add(listen_fd_, /*write=*/false);

  std::vector<Poller::Event> events;
  bool stopping = false;
  while (!stopping) {
    t.poller.wait(events, -1);
    for (const Poller::Event& e : events) {
      if (e.fd == t.wakeup.fd()) {
        t.wakeup.drain();
        continue;  // mailbox handled below, once per wakeup batch
      }
      if (is_acceptor && e.fd == listen_fd_) {
        accept_ready(t);
        continue;
      }
      const auto it = t.conns.find(e.fd);
      if (it == t.conns.end()) continue;  // closed earlier in this batch
      Connection& conn = *it->second;
      if (e.error) {
        close_connection(t, conn);
        continue;
      }
      if (e.readable) handle_read(t, conn);
      // Re-check: handle_read may have closed the connection.
      if (e.writable && t.conns.contains(e.fd)) flush(t, conn);
    }
    process_mailbox(t);
    {
      std::lock_guard<std::mutex> lock(t.mu);
      stopping = t.stop;
    }
  }
  // Shutdown: close every connection (releasing slots, evicting sessions).
  while (!t.conns.empty()) close_connection(t, *t.conns.begin()->second);
}

void WireServer::accept_ready(IoThread& t) {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: wait for next event
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ++stats_.connections_accepted;
    // Shard by connection id; hand the fd to the owning thread's loop.
    const std::uint64_t id = next_conn_id_++;
    IoThread& target = *io_threads_[id % io_threads_.size()];
    if (&target == &t) {
      adopt(t, fd, id);
    } else {
      {
        std::lock_guard<std::mutex> lock(target.mu);
        target.adopt_fds.emplace_back(fd, id);
      }
      target.wakeup.notify();
    }
  }
}

void WireServer::adopt(IoThread& t, int fd, std::uint64_t id) {
  auto conn = std::make_unique<Connection>();
  conn->fd = fd;
  // Outbound routing shards by id (id % threads): accept_ready picked this
  // thread from the same id.
  conn->id = id;
  conn->decoder = FrameDecoder(config_.max_frame);
  t.fd_of[id] = fd;
  t.poller.add(fd, /*write=*/false);
  t.conns.emplace(fd, std::move(conn));
}

void WireServer::process_mailbox(IoThread& t) {
  std::vector<Outbound> mail;
  std::vector<std::pair<int, std::uint64_t>> adopts;
  {
    std::lock_guard<std::mutex> lock(t.mu);
    mail.swap(t.mailbox);
    adopts.swap(t.adopt_fds);
  }
  for (const auto& [fd, id] : adopts) adopt(t, fd, id);
  for (Outbound& out : mail) {
    const auto fd_it = t.fd_of.find(out.conn);
    if (fd_it == t.fd_of.end()) continue;  // connection died in the meantime
    const auto it = t.conns.find(fd_it->second);
    if (it == t.conns.end()) continue;
    Connection& conn = *it->second;
    // Sign/seal here, off the service thread, with this thread's rng. The
    // sealed bytes differ per rng draw but open to identical plaintext.
    sdn::Packet packet;
    switch (out.kind) {
      case Outbound::Kind::Reply:
        packet = inband::make_reply_packet(out.reply, controller_->enclave(),
                                           conn.client_box_pub, t.rng);
        ++stats_.replies_out;
        break;
      case Outbound::Kind::Notification:
        packet =
            inband::make_notify_packet(out.notification, controller_->enclave(),
                                       conn.client_box_pub, t.rng);
        ++stats_.notifications_out;
        break;
      case Outbound::Kind::AuthRequest:
        packet = inband::make_auth_request(out.auth, controller_->enclave());
        ++stats_.auth_requests_out;
        break;
    }
    send_frame(t, conn, encode_inband(packet));
  }
}

void WireServer::handle_read(IoThread& t, Connection& conn) {
  const int fd = conn.fd;  // `conn` dies if a frame handler closes it
  while (true) {
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) {
      close_connection(t, conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      close_connection(t, conn);
      return;
    }
    stats_.bytes_in += static_cast<std::uint64_t>(n);
    if (!conn.decoder.feed({buf, static_cast<std::size_t>(n)})) {
      // Bogus length claim: the stream is unrecoverable by construction.
      ++stats_.bad_frames;
      close_connection(t, conn);
      return;
    }
    while (true) {
      auto frame = conn.decoder.take();
      if (!frame) break;
      handle_frame(t, conn, *frame);
      if (!t.conns.contains(fd)) return;  // frame handler closed us
    }
  }
}

void WireServer::handle_frame(IoThread& t, Connection& conn,
                              std::span<const std::uint8_t> frame) {
  ++stats_.frames_in;
  if (!conn.hello_done) {
    handle_hello(t, conn, frame);
    return;
  }
  const auto tag = peek_tag(frame);
  if (tag != WireTag::Inband) {
    ++stats_.bad_frames;  // duplicate HELLO, server-role tag, or unknown
    return;
  }
  const auto packet = decode_inband(frame);
  if (!packet) {
    ++stats_.bad_frames;
    return;
  }
  handle_inband(t, conn, *packet);
}

void WireServer::handle_hello(IoThread& t, Connection& conn,
                              std::span<const std::uint8_t> frame) {
  const auto hello =
      peek_tag(frame) == WireTag::Hello ? WireHello::decode(frame) : std::nullopt;
  if (!hello || hello->version != 1) {
    ++stats_.bad_hellos;
    close_connection(t, conn);
    return;
  }
  WireWelcome welcome = welcome_template_;
  WireSlot slot;
  welcome.status = sessions_.claim(hello->requested_host, conn.id, &slot);
  if (welcome.status != WelcomeStatus::Ok) {
    ++stats_.bad_hellos;
    send_frame(t, conn, welcome.encode());
    conn.close_after_flush = true;
    flush(t, conn);
    return;
  }
  conn.hello_done = true;
  conn.has_session = true;
  conn.slot = slot;
  conn.client_key = hello->client_key;
  conn.client_box_pub = hello->client_box_pub;
  welcome.host = slot.host;
  welcome.address = slot.address;
  welcome.access_point = slot.access_point;
  // Enroll before any request from this session can be admitted: post()
  // order is FIFO, so the registration lands first on the service thread.
  service_->post([controller = controller_, host = slot.host,
                  key = hello->client_key, box = hello->client_box_pub] {
    controller->register_client(host, key, box);
  });
  send_frame(t, conn, welcome.encode());
}

void WireServer::handle_inband(IoThread&, Connection& conn,
                               const sdn::Packet& packet) {
  const auto tag = inband::classify(packet);
  if (!tag) {
    ++stats_.bad_frames;
    return;
  }
  switch (*tag) {
    case inband::Tag::Request: {
      // Unseal on this I/O thread; only the plain struct crosses over.
      const auto request = inband::open_request(packet, controller_->enclave());
      if (!request || request->client != conn.slot.host) {
        ++stats_.bad_envelopes;
        return;
      }
      ++stats_.requests_in;
      service_->post([controller = controller_, req = *request,
                      ap = conn.slot.access_point] {
        controller->wire_request(req, ap);
      });
      return;
    }
    case inband::Tag::Subscribe: {
      const auto opened =
          inband::open_subscribe(packet, controller_->enclave());
      if (!opened || opened->first.client != conn.slot.host ||
          !conn.client_key.verify(opened->first.signing_payload(),
                                  opened->second)) {
        ++stats_.bad_envelopes;
        return;
      }
      ++stats_.subscribes_in;
      service_->post([controller = controller_, req = opened->first,
                      ap = conn.slot.access_point] {
        controller->wire_subscribe(req, ap);
      });
      return;
    }
    case inband::Tag::AuthReply: {
      const auto parsed = inband::parse_auth_reply(packet);
      if (!parsed || parsed->first.client != conn.slot.host ||
          !conn.client_key.verify(parsed->first.signing_payload(),
                                  parsed->second)) {
        ++stats_.bad_envelopes;
        return;
      }
      ++stats_.auth_replies_in;
      service_->post([controller = controller_, reply = parsed->first,
                      from = conn.slot.access_point] {
        controller->wire_auth_reply(reply, from);
      });
      return;
    }
    default:
      ++stats_.bad_frames;  // downstream-only tag arriving upstream
      return;
  }
}

void WireServer::send_frame(IoThread& t, Connection& conn,
                            util::Bytes payload) {
  ++stats_.frames_out;
  conn.outq.push_back(encode_frame(payload));
  flush(t, conn);
}

void WireServer::flush(IoThread& t, Connection& conn) {
  while (!conn.outq.empty()) {
    // Coalesce queued frames into one writev (the per-wakeup batch).
    iovec iov[16];
    int iovcnt = 0;
    std::size_t offset = conn.out_offset;
    for (auto it = conn.outq.begin(); it != conn.outq.end() && iovcnt < 16;
         ++it) {
      iov[iovcnt].iov_base = it->data() + offset;
      iov[iovcnt].iov_len = it->size() - offset;
      offset = 0;
      ++iovcnt;
    }
    const ssize_t n = ::writev(conn.fd, iov, iovcnt);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          t.poller.mod(conn.fd, /*write=*/true);
        }
        return;
      }
      if (errno == EINTR) continue;
      close_connection(t, conn);
      return;
    }
    ++stats_.flushes;
    stats_.bytes_out += static_cast<std::uint64_t>(n);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      util::Bytes& front = conn.outq.front();
      const std::size_t remaining = front.size() - conn.out_offset;
      if (left < remaining) {
        conn.out_offset += left;
        left = 0;
      } else {
        left -= remaining;
        conn.out_offset = 0;
        conn.outq.pop_front();
      }
    }
  }
  if (conn.want_write) {
    conn.want_write = false;
    t.poller.mod(conn.fd, /*write=*/false);
  }
  if (conn.close_after_flush) close_connection(t, conn);
}

void WireServer::close_connection(IoThread& t, Connection& conn) {
  const int fd = conn.fd;
  const std::uint64_t id = conn.id;
  t.poller.del(fd);
  ::close(fd);
  ++stats_.connections_closed;
  if (const auto slot = sessions_.release(id)) {
    // A dead socket must never wedge a sweep: unsubscribe everything this
    // session owned and cancel its in-flight evaluations.
    ++stats_.evictions;
    service_->post([controller = controller_, host = slot->host] {
      controller->evict_client(host);
    });
  }
  t.fd_of.erase(id);
  t.conns.erase(fd);  // destroys conn — must be last
}

}  // namespace rvaas::net
