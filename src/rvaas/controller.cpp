#include "rvaas/controller.hpp"

#include <algorithm>
#include <atomic>

#include "util/ensure.hpp"

namespace rvaas::core {

using sdn::Field;
using sdn::FlowMod;
using sdn::Match;
using sdn::PortRef;
using sdn::SwitchId;

namespace {
constexpr std::uint64_t kInterceptCookie = 0x52566161;  // "RVaa"

/// How long a stats poll may stay unanswered before it counts as a miss.
/// The fault-free round-trip is 2 control latencies (~400us default), so
/// this leaves ample margin without slowing fault detection.
constexpr sim::Time kPollDeadline = 2 * sim::kMillisecond;
/// Consecutive missed poll deadlines before Healthy -> Degraded.
constexpr std::uint32_t kDegradedAfter = 1;
/// Consecutive missed poll deadlines before -> Unreachable. The circuit
/// opens: regular polls skip the switch, a capped-cadence probe keeps
/// testing for recovery.
constexpr std::uint32_t kUnreachableAfter = 3;
/// Additive jitter on retry delays, up to this percentage of the delay
/// (drawn from the controller's seeded rng: deterministic, but
/// decorrelates retry bursts across switches).
constexpr std::uint32_t kRetryJitterPct = 25;
/// Change-clock history the snapshot keeps (SnapshotManager).
constexpr std::size_t kSnapshotHistory = 1 << 16;

// TEST-ONLY fault switch (see test_fault_freeze_health).
std::atomic<bool> g_health_frozen{false};

bool health_frozen() {
  return g_health_frozen.load(std::memory_order_relaxed);
}
}  // namespace

void RvaasController::test_fault_freeze_health(bool on) {
  g_health_frozen.store(on, std::memory_order_relaxed);
}

sim::Time RvaasController::backoff_base_delay(std::uint32_t attempt,
                                              const RvaasConfig& config) {
  sim::Time delay = config.retry_backoff_base;
  for (std::uint32_t i = 0; i < attempt && delay < config.retry_backoff_cap;
       ++i) {
    delay *= 2;
  }
  return std::min(delay, config.retry_backoff_cap);
}

RvaasController::RvaasController(sdn::ControllerId id, sdn::Network& net,
                                 const enclave::AttestationService& ias,
                                 RvaasConfig config, util::Rng rng)
    : id_(id),
      net_(&net),
      ias_(&ias),
      config_(std::move(config)),
      rng_(std::move(rng)),
      enclave_(config_.enclave_name, config_.enclave_version, rng_),
      channel_key_(crypto::SigningKey::generate(rng_)),
      engine_(net.topology(),
              EngineConfig{config_.policy, config_.max_reach_depth}),
      snapshot_(kSnapshotHistory),
      monitor_(engine_) {}

RvaasController::~RvaasController() { stop(); }

void RvaasController::stop() {
  if (stopped_) return;
  stopped_ = true;
  sim::EventLoop& loop = net_->loop();
  loop.cancel(poll_timer_);
  loop.cancel(probe_timer_);
  loop.cancel(reverify_timer_);
  loop.cancel(sweep_event_);
  sweep_scheduled_ = false;
  for (auto& [sw, channel] : channels_) {
    if (channel.in_flight) loop.cancel(channel.deadline);
    if (channel.retry_pending) loop.cancel(channel.retry);
    channel.in_flight = false;
    channel.retry_pending = false;
  }
  for (auto& [request_id, pending] : pending_) loop.cancel(pending.timeout);
  pending_.clear();
  inflight_.clear();
}

enclave::Quote RvaasController::quote() const {
  return ias_->quote(enclave_,
                     enclave::bind_keys(enclave_.verify_key(),
                                        enclave_.box_public()));
}

void RvaasController::register_client(sdn::HostId client,
                                      crypto::VerifyKey key,
                                      crypto::BigUInt box_public) {
  clients_[client] = ClientRecord{std::move(key), std::move(box_public)};
}

void RvaasController::set_geo_provider(std::unique_ptr<GeoProvider> geo) {
  geo_ = std::move(geo);
}

void RvaasController::set_addressing(
    const control::HostAddressing* addressing) {
  addressing_ = addressing;
}

void RvaasController::bootstrap() {
  handle_ = &net_->attach_controller(*this, channel_key_);

  for (const SwitchId sw : handle_->switches()) {
    if (config_.passive_monitoring) handle_->subscribe_flow_monitor(sw);

    // Magic-header intercept: client requests and auth replies.
    FlowMod magic;
    magic.priority = 0xffff;
    magic.cookie = kInterceptCookie;
    magic.match = Match()
                      .exact(Field::EthType, sdn::kEthTypeIpv4)
                      .exact(Field::IpProto, sdn::kIpProtoUdp)
                      .exact(Field::L4Dst, sdn::kPortRvaasRequest);
    magic.actions = {sdn::to_controller()};
    handle_->flow_mod(sw, magic);

    if (config_.enable_link_prober) {
      FlowMod lldp;
      lldp.priority = 0xffff;
      lldp.cookie = kInterceptCookie;
      lldp.match = Match().exact(Field::EthType, sdn::kEthTypeLldp);
      lldp.actions = {sdn::to_controller()};
      handle_->flow_mod(sw, lldp);
    }
  }

  if (config_.polling != PollingMode::Disabled) schedule_poll();
  if (config_.enable_link_prober) schedule_probe();
  if (config_.reverify_period > 0) schedule_reverify();
}

void RvaasController::schedule_poll() {
  const sim::Time delay =
      config_.polling == PollingMode::Randomized
          ? static_cast<sim::Time>(
                rng_.exponential(static_cast<double>(config_.poll_period)))
          : config_.poll_period;
  poll_timer_ =
      net_->loop().schedule_after(std::max<sim::Time>(delay, 1), [this] {
        poll_all_switches();
        schedule_poll();
      });
}

void RvaasController::poll_all_switches() {
  for (const SwitchId sw : handle_->switches()) {
    poll_switch(sw, /*is_retry=*/false);
  }
}

void RvaasController::poll_switch(SwitchId sw, bool is_retry) {
  SwitchChannel& channel = channels_[sw];
  // One deadline-tracked poll per switch: a second request while the first
  // is outstanding would make a miss ambiguous.
  if (channel.in_flight) return;
  if (!is_retry && channel.health == SwitchHealth::Unreachable) {
    // Circuit open: regular polls skip the switch (no point queueing work
    // into a dead channel); only the capped-cadence probe retry goes out.
    ++stats_.polls_gated;
    return;
  }
  channel.in_flight = true;
  const std::uint64_t seq = ++channel.poll_seq_sent;
  const std::uint64_t gen = poll_generation_;
  const sim::Time sent = net_->loop().now();
  ++stats_.polls_sent;
  handle_->request_stats(
      sw, [this, sw, seq, gen, sent](const sdn::StatsReply& reply) {
        on_stats_reply(sw, seq, gen, sent, reply);
      });
  channel.deadline = net_->loop().schedule_after(
      kPollDeadline, [this, sw, seq] { on_poll_deadline(sw, seq); });
}

void RvaasController::on_stats_reply(SwitchId sw, std::uint64_t seq,
                                     std::uint64_t gen, sim::Time sent,
                                     const sdn::StatsReply& reply) {
  if (stopped_) return;
  SwitchChannel& channel = channels_[sw];
  // Liveness first: the awaited reply closes the deadline even when its
  // content must be discarded — either way the channel round-tripped.
  const bool awaited = channel.in_flight && seq == channel.poll_seq_sent;
  if (awaited) {
    net_->loop().cancel(channel.deadline);
    channel.in_flight = false;
  }

  bool adopt = true;
  if (gen != poll_generation_) {
    // Requested against a previous snapshot identity: the identity reset
    // voided every in-flight reply.
    adopt = false;
    ++stats_.stale_polls_discarded;
  } else if (seq <= channel.poll_seq_applied) {
    // Duplicate or out-of-order straggler (delay/duplication faults).
    adopt = false;
    ++stats_.stale_polls_discarded;
  } else if (snapshot_.last_confirmed(sw) > sent) {
    // The passive channel confirmed this switch after the request left: the
    // dump was captured without that event and adopting it could roll the
    // view backwards. Real under delay faults; content-neutral without.
    adopt = false;
    ++stats_.stale_polls_discarded;
  }
  if (adopt) {
    channel.poll_seq_applied = seq;
    snapshot_.reconcile(reply, net_->loop().now());
    // A poll that diverged from the passive view bumped the epoch; wake
    // the subscriptions whose footprint the adopted change touches.
    schedule_monitor_sweep();
  }
  if (awaited) on_switch_alive(sw);
}

void RvaasController::on_poll_deadline(SwitchId sw, std::uint64_t seq) {
  if (stopped_) return;
  SwitchChannel& channel = channels_[sw];
  if (!channel.in_flight || seq != channel.poll_seq_sent) return;
  channel.in_flight = false;
  ++stats_.poll_deadline_misses;
  if (!health_frozen()) {
    ++channel.consecutive_misses;
    if (channel.consecutive_misses >= kUnreachableAfter) {
      if (channel.health != SwitchHealth::Unreachable) {
        channel.health = SwitchHealth::Unreachable;
        ++stats_.unreachable_transitions;
        on_unreachable();
      }
    } else if (channel.consecutive_misses >= kDegradedAfter &&
               channel.health == SwitchHealth::Healthy) {
      channel.health = SwitchHealth::Degraded;
      ++stats_.degraded_transitions;
    }
  }
  schedule_retry(sw);
}

void RvaasController::schedule_retry(SwitchId sw) {
  SwitchChannel& channel = channels_[sw];
  if (channel.retry_pending) return;
  sim::Time delay;
  if (channel.health == SwitchHealth::Unreachable) {
    // Circuit open: probe at the fixed cap cadence, no further growth.
    delay = config_.retry_backoff_cap;
  } else {
    delay = backoff_base_delay(channel.attempt, config_);
    ++channel.attempt;
  }
  // Additive jitter decorrelates retry bursts across switches after a
  // shared partition; drawn from the seeded rng, so still deterministic.
  const sim::Time span = delay * kRetryJitterPct / 100;
  if (span > 0) delay += rng_.below(span + 1);
  channel.retry_pending = true;
  channel.retry =
      net_->loop().schedule_after(std::max<sim::Time>(delay, 1), [this, sw] {
        if (stopped_) return;
        channels_[sw].retry_pending = false;
        ++stats_.poll_retries;
        poll_switch(sw, /*is_retry=*/true);
      });
}

void RvaasController::on_switch_alive(SwitchId sw) {
  SwitchChannel& channel = channels_[sw];
  channel.consecutive_misses = 0;
  channel.attempt = 0;
  if (channel.retry_pending) {
    net_->loop().cancel(channel.retry);
    channel.retry_pending = false;
  }
  if (health_frozen()) return;
  if (channel.health == SwitchHealth::Healthy) return;
  channel.health = SwitchHealth::Healthy;
  ++stats_.health_recoveries;
  // Recovery reconcile-and-reverify: the reply that brought the switch back
  // was reconciled just above; everything evaluated against the degraded
  // view is re-verified here, and subscriptions owing a degraded resume are
  // forced through commit() by their degraded_notified debt.
  run_monitor_sweep(/*force_all=*/true);
}

void RvaasController::on_unreachable() {
  for (const PropertyMonitor::DegradedPush& push :
       monitor_.mark_degraded(unreachable_switches())) {
    send_degraded_notification(push);
  }
}

RvaasController::SwitchHealth RvaasController::switch_health(
    SwitchId sw) const {
  const auto it = channels_.find(sw);
  return it == channels_.end() ? SwitchHealth::Healthy : it->second.health;
}

std::vector<SwitchId> RvaasController::unreachable_switches() const {
  std::vector<SwitchId> out;
  for (const auto& [sw, channel] : channels_) {
    if (channel.health == SwitchHealth::Unreachable) out.push_back(sw);
  }
  return out;  // channels_ is ordered: ascending
}

FreshnessInfo RvaasController::freshness_for(
    const std::vector<SwitchId>& footprint) const {
  FreshnessInfo freshness;
  const sim::Time now = net_->loop().now();
  for (const SwitchId sw : footprint) {
    const auto it = channels_.find(sw);
    if (it == channels_.end() || it->second.health == SwitchHealth::Healthy) {
      continue;  // staleness accrues only for non-Healthy switches
    }
    if (it->second.health == SwitchHealth::Unreachable) {
      freshness.unreachable.push_back(sw);  // footprint sorted -> sorted
    }
    const sim::Time confirmed = snapshot_.last_confirmed(sw);
    // Never confirmed and already non-Healthy: stale since time zero.
    const std::uint64_t staleness = confirmed == 0 ? now : now - confirmed;
    freshness.max_staleness = std::max(freshness.max_staleness, staleness);
  }
  return freshness;
}

void RvaasController::schedule_reverify() {
  reverify_timer_ = net_->loop().schedule_after(config_.reverify_period, [this] {
    // Full sweep: catches drift the change clock cannot see (meter
    // updates, endpoints that stopped answering authentication).
    run_monitor_sweep(/*force_all=*/true);
    schedule_reverify();
  });
}

void RvaasController::schedule_probe() {
  probe_timer_ = net_->loop().schedule_after(config_.probe_period, [this] {
    probe_all_links();
    schedule_probe();
  });
}

void RvaasController::probe_all_links() {
  for (const SwitchId sw : handle_->switches()) {
    for (const PortRef port : net_->topology().internal_ports(sw)) {
      ++stats_.probes_sent;
      ++stats_.crypto_ops;  // probe signature
      ProbeInfo info{port, rng_.next_u64()};
      sdn::PacketOut out;
      out.sw = sw;
      out.actions = {sdn::output(port.port)};
      out.packet = make_probe(info, enclave_);
      handle_->packet_out(out);
    }
  }
}

void RvaasController::on_flow_update(const sdn::FlowUpdate& msg) {
  snapshot_.apply_update(msg, net_->loop().now());
  schedule_monitor_sweep();
}

void RvaasController::on_packet_in(const sdn::PacketIn& msg) {
  if (config_.enable_link_prober && is_probe(msg.packet)) {
    ++stats_.crypto_ops;  // probe verification
    if (const auto info = verify_probe(msg.packet, enclave_.verify_key())) {
      if (const auto alarm =
              check_probe(net_->topology(), *info,
                          PortRef{msg.sw, msg.in_port}, net_->loop().now())) {
        wiring_alarms_.push_back(*alarm);
      }
    }
    return;
  }

  const auto tag = inband::classify(msg.packet);
  if (!tag) return;
  switch (*tag) {
    case inband::Tag::Request:
      handle_request(msg);
      return;
    case inband::Tag::Subscribe:
      handle_subscribe(msg);
      return;
    case inband::Tag::AuthReply:
      handle_auth_reply(msg);
      return;
    default:
      return;  // auth requests / replies to clients are not ours to consume
  }
}

void RvaasController::handle_request(const sdn::PacketIn& msg) {
  ++stats_.queries_received;
  ++stats_.crypto_ops;  // unseal
  const auto request = inband::open_request(msg.packet, enclave_);
  if (!request) {
    ++stats_.bad_requests;
    return;
  }
  admit_request(*request, PortRef{msg.sw, msg.in_port});
}

void RvaasController::wire_request(const QueryRequest& request,
                                   sdn::PortRef request_point) {
  // The sealed envelope was already opened on a front-end I/O thread; from
  // here the path is byte-for-byte the in-band one.
  ++stats_.queries_received;
  ++stats_.crypto_ops;  // unseal, done on the I/O thread
  admit_request(request, request_point);
}

void RvaasController::admit_request(const QueryRequest& request,
                                    sdn::PortRef request_point) {
  if (pending_.contains(request.request_id)) {
    ++stats_.bad_requests;
    return;
  }
  if (!clients_.contains(request.client) ||
      !can_evaluate(request.query.kind)) {
    ++stats_.bad_requests;
    return;
  }

  PendingQuery pending;
  pending.request = request;
  pending.request_point = request_point;

  // Logical verification on the current snapshot, through the single
  // per-kind dispatch (QueryEngine::evaluate) shared with the federation
  // and monitor paths. The footprint is kept: finalize() stamps the reply's
  // freshness section over exactly those switches.
  const hsa::NetworkModel model = engine_.model(snapshot_);
  QueryEngine::EvalContext ctx;
  ctx.from = pending.request_point;
  ctx.geo = geo_.get();
  ctx.addressing = addressing_;
  QueryEngine::Evaluation evaluation = engine_.evaluate(
      model, snapshot_, Property::from_query(request.query), ctx);
  pending.reply = std::move(evaluation.reply);
  pending.reply.request_id = request.request_id;
  pending.footprint = std::move(evaluation.footprint);

  track_pending(std::move(pending), evaluation.to_authenticate);
}

void RvaasController::handle_subscribe(const sdn::PacketIn& msg) {
  ++stats_.crypto_ops;  // unseal
  const auto opened = inband::open_subscribe(msg.packet, enclave_);
  if (!opened) {
    ++stats_.bad_requests;
    return;
  }
  const auto& [request, signature] = *opened;
  const auto client_it = clients_.find(request.client);
  if (client_it == clients_.end()) {
    ++stats_.bad_requests;
    return;
  }
  // (Un)subscribing mutates controller state, so unlike a query it must be
  // authentic AND fresh: anyone can seal to the public enclave element, and
  // a replayed Subscribe would reset the notification sequence, silencing
  // the client's replay guard against future alerts.
  ++stats_.crypto_ops;  // signature verification
  if (!client_it->second.key.verify(request.signing_payload(), signature)) {
    ++stats_.bad_requests;
    return;
  }
  admit_subscribe(request, PortRef{msg.sw, msg.in_port});
}

void RvaasController::wire_subscribe(const SubscribeRequest& request,
                                     sdn::PortRef request_point) {
  // Opened and signature-verified on a front-end I/O thread against the
  // enrolled key; the freshness replay guard still runs here, serialized on
  // the controller thread, where the clock it mutates lives.
  stats_.crypto_ops += 2;  // unseal + verify, done on the I/O thread
  admit_subscribe(request, request_point);
}

void RvaasController::admit_subscribe(const SubscribeRequest& request,
                                      sdn::PortRef request_point) {
  if (!clients_.contains(request.client)) {
    ++stats_.bad_requests;
    return;
  }
  auto& last_freshness = subscribe_freshness_[request.client];
  if (request.freshness <= last_freshness) {
    ++stats_.bad_requests;  // replayed or reordered
    return;
  }
  last_freshness = request.freshness;

  if (request.unsubscribe) {
    ++stats_.unsubscribes_received;
    const PropertyMonitor::Key key{request.client, request.subscription_id};
    if (!monitor_.unsubscribe(key.first, key.second)) {
      ++stats_.bad_requests;
      return;
    }
    cancel_inflight(key);
    return;
  }

  // A subscription the engine cannot evaluate must be rejected up front: a
  // stored Geo property without a geo provider would throw inside every
  // subsequent sweep (a persistent crash, not a one-shot bad request).
  if (!can_evaluate(request.property.kind)) {
    ++stats_.bad_requests;
    return;
  }
  // Per-client cap: active_for() is an O(1) count lookup, so the subscribe
  // path stays flat as the registry grows toward millions of entries.
  const bool replacing =
      monitor_.find(request.client, request.subscription_id) != nullptr;
  if (!replacing && monitor_.active_for(request.client) >=
                        config_.max_subscriptions_per_client) {
    ++stats_.bad_requests;
    return;
  }
  ++stats_.subscribes_received;

  PropertyMonitor::Subscription sub;
  sub.id = request.subscription_id;
  sub.client = request.client;
  sub.request_point = request_point;
  sub.property = request.property;
  sub.policy = request.policy;
  monitor_.subscribe(std::move(sub));

  // The next sweep evaluates the newcomer and pushes its baseline
  // notification (the subscribe acknowledgement).
  schedule_monitor_sweep();
}

void RvaasController::track_pending(PendingQuery pending,
                                    std::span<const PortRef> targets) {
  pending.expected.reserve(targets.size());
  pending.nonces.reserve(targets.size());
  for (const PortRef ap : targets) {
    pending.expected[ap] = std::nullopt;
  }

  const std::uint64_t request_id =
      pending.subscription ? next_eval_id_++ : pending.request.request_id;
  if (pending.subscription) {
    inflight_[*pending.subscription] = request_id;
  }
  auto [it, inserted] = pending_.emplace(request_id, std::move(pending));
  util::ensure(inserted, "duplicate pending query");

  if (it->second.expected.empty()) {
    finalize(request_id);
    return;
  }
  dispatch_auth_requests(it->second, request_id, targets);
  it->second.timeout = net_->loop().schedule_after(
      config_.auth_timeout, [this, request_id] { finalize(request_id); });
}

void RvaasController::dispatch_auth_requests(
    PendingQuery& pending, std::uint64_t request_id,
    std::span<const PortRef> targets) {
  // Driven off the ordered target list, not the (unordered) expected map,
  // so the probe order — and with it the simulation schedule — stays
  // deterministic. `request_id` is the pending_ key (an internal id for
  // subscription wakeups), which auth replies echo back.
  for (const PortRef ap : targets) {
    inband::AuthRequest req;
    req.request_id = request_id;
    req.nonce = rng_.next_u64();
    req.target = ap;
    pending.nonces[req.nonce] = ap;

    ++stats_.auth_requests_sent;
    ++stats_.crypto_ops;  // signature
    // A wire session owning this access point answers over its socket; the
    // transport signs the request with the enclave key on an I/O thread.
    if (wire_ && wire_->deliver_auth_request(ap, req)) continue;
    sdn::PacketOut out;
    out.sw = ap.sw;
    out.actions = {sdn::output(ap.port)};
    out.packet = make_auth_request(req, enclave_);
    handle_->packet_out(out);
  }
  pending.reply.auth.issued =
      static_cast<std::uint32_t>(pending.expected.size());
}

void RvaasController::handle_auth_reply(const sdn::PacketIn& msg) {
  const auto parsed = inband::parse_auth_reply(msg.packet);
  if (!parsed) return;
  const auto& [reply, signature] = *parsed;
  admit_auth_reply(reply, &signature, PortRef{msg.sw, msg.in_port});
}

void RvaasController::wire_auth_reply(const inband::AuthReply& reply,
                                      sdn::PortRef from) {
  // Signature already verified on an I/O thread against reply.client's
  // enrolled key; `from` is the session's pinned access point, so the
  // location check below still binds the reply to the probed port.
  ++stats_.crypto_ops;  // signature verification, done on the I/O thread
  admit_auth_reply(reply, nullptr, from);
}

void RvaasController::admit_auth_reply(const inband::AuthReply& reply,
                                       const crypto::Signature* signature,
                                       PortRef from) {
  const auto pending_it = pending_.find(reply.request_id);
  if (pending_it == pending_.end()) return;
  PendingQuery& pending = pending_it->second;

  // The nonce must match one we issued, and the reply must arrive from the
  // probed access point (the packet-in tells us where it entered).
  const auto nonce_it = pending.nonces.find(reply.nonce);
  if (nonce_it == pending.nonces.end()) return;
  const PortRef expected_ap = nonce_it->second;
  if (from != expected_ap) return;

  const auto client_it = clients_.find(reply.client);
  if (signature != nullptr) {
    ++stats_.crypto_ops;  // signature verification
    if (client_it == clients_.end() ||
        !client_it->second.key.verify(reply.signing_payload(), *signature)) {
      ++stats_.auth_replies_bad;
      return;
    }
  } else if (client_it == clients_.end()) {
    ++stats_.auth_replies_bad;
    return;
  }
  ++stats_.auth_replies_ok;

  auto expected_it = pending.expected.find(expected_ap);
  if (expected_it != pending.expected.end() && !expected_it->second) {
    expected_it->second = reply.client;
    // All answered? Finalize early.
    bool all = true;
    for (const auto& [_, who] : pending.expected) all = all && who.has_value();
    if (all) {
      net_->loop().cancel(pending.timeout);
      finalize(reply.request_id);
    }
  }
}

void RvaasController::finalize(std::uint64_t request_id) {
  const auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  PendingQuery& pending = it->second;

  std::uint32_t responded = 0;
  for (EndpointInfo& endpoint : pending.reply.endpoints) {
    const auto expected_it = pending.expected.find(endpoint.access_point);
    if (expected_it == pending.expected.end()) continue;
    if (expected_it->second) {
      endpoint.authenticated = true;
      endpoint.authenticated_as = expected_it->second;
      ++responded;
    }
  }
  pending.reply.auth.responded = responded;
  // Fail-stale: every outgoing verdict carries the freshness of the view it
  // was computed from, restricted to its own dependency footprint. All-zero
  // over a healthy footprint — fault-free replies are byte-identical to the
  // pre-freshness format modulo the appended zeros.
  pending.reply.freshness = freshness_for(pending.footprint);

  if (pending.subscription) {
    inflight_.erase(*pending.subscription);
    const PropertyMonitor::Decision decision =
        monitor_.commit(*pending.subscription, pending.reply);
    if (decision.push != PropertyMonitor::Push::None) {
      send_notification(pending, decision);
    }
    pending_.erase(it);
    return;
  }

  send_reply(pending);
  pending_.erase(it);
}

void RvaasController::send_notification(
    const PendingQuery& pending, const PropertyMonitor::Decision& decision) {
  const auto client_it = clients_.find(pending.request.client);
  if (client_it == clients_.end()) return;

  Notification notification;
  notification.subscription_id = pending.subscription->second;
  notification.sequence = decision.sequence;
  notification.kind = decision.push == PropertyMonitor::Push::ViolationAlert
                          ? NotificationKind::ViolationAlert
                          : NotificationKind::AllClear;
  notification.epoch = pending.evaluated_epoch;
  notification.property_fingerprint = pending.property_fingerprint;
  notification.reply = pending.reply;

  stats_.crypto_ops += 2;  // sign + seal (by the transport if wire-attached)
  ++stats_.notifications_sent;
  if (wire_ &&
      wire_->deliver_notification(pending.request.client, notification)) {
    return;
  }
  sdn::PacketOut out;
  out.sw = pending.request_point.sw;
  out.actions = {sdn::output(pending.request_point.port)};
  out.packet = inband::make_notify_packet(
      notification, enclave_, client_it->second.box_public, rng_);
  handle_->packet_out(out);
}

void RvaasController::send_degraded_notification(
    const PropertyMonitor::DegradedPush& push) {
  const auto client_it = clients_.find(push.key.first);
  if (client_it == clients_.end()) return;

  // No evaluation attached — the point of this push is that a fresh one is
  // impossible right now. The reply shell carries only the property kind
  // and the (decidedly non-zero) freshness of the stored footprint.
  Notification notification;
  notification.subscription_id = push.key.second;
  notification.sequence = push.sequence;
  notification.kind = NotificationKind::VerificationDegraded;
  notification.epoch = push.evaluated_epoch;
  notification.property_fingerprint = push.property_fingerprint;
  notification.reply.request_id = push.key.second;
  notification.reply.kind = push.kind;
  if (const PropertyMonitor::Subscription* sub =
          monitor_.find(push.key.first, push.key.second)) {
    notification.reply.freshness = freshness_for(sub->footprint);
  }

  stats_.crypto_ops += 2;  // sign + seal (by the transport if wire-attached)
  ++stats_.degraded_notifications;
  ++stats_.notifications_sent;
  if (wire_ && wire_->deliver_notification(push.key.first, notification)) {
    return;
  }
  sdn::PacketOut out;
  out.sw = push.request_point.sw;
  out.actions = {sdn::output(push.request_point.port)};
  out.packet = inband::make_notify_packet(
      notification, enclave_, client_it->second.box_public, rng_);
  handle_->packet_out(out);
}

void RvaasController::schedule_monitor_sweep() {
  // Runs on every flow update and adopted poll diff, so both checks must be
  // O(1): has_unevaluated() is a set-emptiness test, never a registry scan.
  if (monitor_.active() == 0 || sweep_scheduled_) return;
  if (snapshot_.epoch() == last_swept_epoch_ && !monitor_.has_unevaluated()) {
    return;
  }
  sweep_scheduled_ = true;
  // Deferred to the next event at the same instant: a burst of flow
  // updates (or a poll adopting many diffs) coalesces into one sweep.
  sweep_event_ = net_->loop().schedule_after(0, [this] {
    sweep_scheduled_ = false;
    run_monitor_sweep(/*force_all=*/false);
  });
}

void RvaasController::run_monitor_sweep(bool force_all) {
  if (monitor_.active() == 0) return;
  ++stats_.monitor_sweeps;
  last_swept_epoch_ = snapshot_.epoch();

  QueryEngine::EvalContext ctx;
  ctx.geo = geo_.get();
  ctx.addressing = addressing_;
  std::vector<PropertyMonitor::Wakeup> wakeups =
      monitor_.sweep(snapshot_, ctx, force_all);

  for (PropertyMonitor::Wakeup& w : wakeups) {
    // A newer evaluation supersedes one still waiting on authentication.
    cancel_inflight(w.key);

    PendingQuery pending;
    pending.request.client = w.key.first;
    pending.request_point = w.request_point;
    pending.reply = std::move(w.evaluation.reply);
    pending.subscription = w.key;
    pending.evaluated_epoch = w.epoch;
    pending.property_fingerprint = w.property_fingerprint;
    // The evaluation's footprint was moved into the registry by sweep();
    // read it back for the freshness stamp in finalize().
    if (const PropertyMonitor::Subscription* sub =
            monitor_.find(w.key.first, w.key.second)) {
      pending.footprint = sub->footprint;
    }
    track_pending(std::move(pending), w.evaluation.to_authenticate);
  }
}

void RvaasController::cancel_inflight(const PropertyMonitor::Key& key) {
  const auto it = inflight_.find(key);
  if (it == inflight_.end()) return;
  if (const auto pit = pending_.find(it->second); pit != pending_.end()) {
    net_->loop().cancel(pit->second.timeout);
    pending_.erase(pit);
  }
  inflight_.erase(it);
}

std::size_t RvaasController::evict_client(sdn::HostId client) {
  std::size_t dropped = 0;
  for (const std::uint64_t sub_id : monitor_.ids_of(client)) {
    if (!monitor_.unsubscribe(client, sub_id)) continue;
    ++dropped;
    cancel_inflight({client, sub_id});
  }
  // One-shot queries still waiting on authentication: the reply would go to
  // a socket that no longer exists, so drop them rather than finalize into
  // the fallback packet path.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!it->second.subscription && it->second.request.client == client) {
      net_->loop().cancel(it->second.timeout);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  // Reset the replay clock: a reconnecting session restarts its freshness
  // counter, and holding the old high-water mark would lock it out. The
  // tradeoff (a captured Subscribe from the previous session becomes
  // replayable) is void because eviction also dropped every subscription
  // that replay could affect.
  subscribe_freshness_.erase(client);
  return dropped;
}

void RvaasController::send_reply(const PendingQuery& pending) {
  const auto client_it = clients_.find(pending.request.client);
  if (client_it == clients_.end()) return;

  stats_.crypto_ops += 2;  // sign + seal (by the transport if wire-attached)
  ++stats_.replies_sent;
  if (wire_ && wire_->deliver_reply(pending.request.client, pending.reply)) {
    return;
  }
  sdn::PacketOut out;
  out.sw = pending.request_point.sw;
  out.actions = {sdn::output(pending.request_point.port)};
  out.packet = inband::make_reply_packet(
      pending.reply, enclave_, client_it->second.box_public, rng_);
  handle_->packet_out(out);
}

}  // namespace rvaas::core
