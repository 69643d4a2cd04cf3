#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>

namespace rvaas::net {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

}  // namespace

WireClient::WireClient(WireClientConfig config)
    : config_(std::move(config)), session_(util::Rng(config_.seed)) {}

WireClient::~WireClient() { close(); }

void WireClient::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

WelcomeStatus WireClient::connect() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return WelcomeStatus::BadHello;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.server.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close();
    return WelcomeStatus::BadHello;
  }

  WireHello hello;
  hello.client_key = session_.verify_key();
  hello.client_box_pub = session_.box_public();
  hello.requested_host = config_.requested_host;
  if (!send_frame(hello.encode())) {
    close();
    return WelcomeStatus::BadHello;
  }

  const auto frame = read_frame(10'000);
  const auto welcome =
      frame ? WireWelcome::decode(*frame) : std::nullopt;
  if (!welcome) {
    close();
    return WelcomeStatus::BadHello;
  }
  if (welcome->status != WelcomeStatus::Ok) {
    close();
    return welcome->status;
  }
  if (!config_.verify_attestation) {
    session_.trust_rvaas(welcome->rvaas_key, welcome->rvaas_box_pub);
  } else if (!session_.verify_attestation(
                 welcome->quote, welcome->ias_root,
                 enclave::measure_code(config_.enclave_name,
                                       config_.enclave_version),
                 welcome->rvaas_key, welcome->rvaas_box_pub)) {
    close();
    return WelcomeStatus::BadHello;
  }
  session_.bind(welcome->host, welcome->address);
  access_point_ = welcome->access_point;
  return WelcomeStatus::Ok;
}

bool WireClient::send_raw(std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool WireClient::send_frame(std::span<const std::uint8_t> payload) {
  return send_raw(encode_frame(payload));
}

std::optional<util::Bytes> WireClient::read_frame(int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (auto frame = decoder_.take()) return frame;
    if (decoder_.poisoned() || fd_ < 0) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    const int left = remaining_ms(deadline);
    if (left == 0) return std::nullopt;
    const int ready = ::poll(&pfd, 1, left);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return std::nullopt;  // timeout or error
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      close();
      return std::nullopt;
    }
    if (!decoder_.feed({buf, static_cast<std::size_t>(n)})) return std::nullopt;
  }
}

bool WireClient::pump(Clock::time_point deadline,
                      std::optional<Outcome>* answer) {
  const auto frame = read_frame(remaining_ms(deadline));
  if (!frame) return false;
  const auto packet = decode_inband(*frame);
  if (!packet) return true;
  core::ClientSession::Received in = session_.receive(*packet);
  if (in.auth_reply) send_frame(encode_inband(*in.auth_reply));
  if (in.event) event_queue_.push_back(std::move(*in.event));
  if (in.answer && answer) *answer = std::move(in.answer);
  return true;
}

WireClient::Outcome WireClient::query(const core::Query& query,
                                      int timeout_ms) {
  Outcome outcome;
  outcome.timed_out = true;
  if (!connected()) return outcome;
  const core::ClientSession::Request request = session_.seal_query(query);
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::optional<Outcome> answer;
  if (send_frame(encode_inband(request.packet))) {
    // One query at a time, so any answer the session hands back is ours.
    while (!answer && pump(deadline, &answer)) {
    }
  }
  if (answer) return *answer;
  session_.expire(request.id);
  return outcome;
}

std::uint64_t WireClient::subscribe(const core::Property& property,
                                    core::NotifyPolicy policy) {
  const core::ClientSession::Request request =
      session_.subscribe(property, policy);
  send_frame(encode_inband(request.packet));
  return request.id;
}

void WireClient::unsubscribe(std::uint64_t subscription_id) {
  if (const auto packet = session_.unsubscribe(subscription_id)) {
    send_frame(encode_inband(*packet));
  }
}

std::optional<WireClient::Event> WireClient::wait_notification(
    int timeout_ms) {
  const auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (event_queue_.empty()) {
    if (!pump(deadline, nullptr)) return std::nullopt;
  }
  Event event = std::move(event_queue_.front());
  event_queue_.pop_front();
  return event;
}

}  // namespace rvaas::net
