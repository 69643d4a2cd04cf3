#pragma once
// The RVaaS controller (the paper's primary contribution, §IV): a stand-alone
// trusted OpenFlow controller running inside a (simulated) enclave that
// combines
//   (1) passive + actively-randomized configuration monitoring,
//   (2) logical data-plane verification (HSA reachability), and
//   (3) in-band testing with client interaction (auth round-trips)
// to answer client routing-verification queries.

#include <memory>
#include <unordered_map>

#include "enclave/attestation.hpp"
#include "rvaas/engine.hpp"
#include "rvaas/inband.hpp"
#include "rvaas/link_prober.hpp"
#include "rvaas/monitor.hpp"
#include "sdn/network.hpp"

namespace rvaas::core {

enum class PollingMode { Randomized, Fixed, Disabled };

struct RvaasConfig {
  /// Subscribe to flow monitors on all switches (passive monitoring).
  bool passive_monitoring = true;
  PollingMode polling = PollingMode::Randomized;
  sim::Time poll_period = 50 * sim::kMillisecond;  ///< mean (randomized) / exact (fixed)
  /// How long to wait for authentication replies before answering.
  sim::Time auth_timeout = 5 * sim::kMillisecond;
  ConfidentialityPolicy policy = ConfidentialityPolicy::EndpointsOnly;
  std::size_t max_reach_depth = 64;
  bool enable_link_prober = false;
  sim::Time probe_period = 100 * sim::kMillisecond;
  std::string enclave_name = "rvaas";
  std::string enclave_version = "1.0";

  /// Timer-driven full re-verification of every subscription, catching
  /// drift outside the snapshot's change clock (meter updates, auth
  /// responders dying). 0 = disabled; churn-triggered sweeps always run.
  sim::Time reverify_period = 0;
  /// Resource bound: Subscribe beyond this per client is a bad request.
  std::size_t max_subscriptions_per_client = 64;

  // --- control-channel resilience (fault tolerance, fail-stale) ---
  /// Retry backoff after a miss: base * 2^attempt, capped. The cap doubles
  /// as the circuit-breaker probe cadence while a switch is Unreachable.
  sim::Time retry_backoff_base = 1 * sim::kMillisecond;
  sim::Time retry_backoff_cap = 8 * sim::kMillisecond;
};

class RvaasController : public sdn::Controller {
 public:
  RvaasController(sdn::ControllerId id, sdn::Network& net,
                  const enclave::AttestationService& ias, RvaasConfig config,
                  util::Rng rng);
  /// Calls stop(): a controller destroyed before its EventLoop must not
  /// leave self-rescheduling timers holding a dangling `this`.
  ~RvaasController();

  sdn::ControllerId id() const override { return id_; }

  /// Key the trusted party authorizes on switches before bootstrap.
  const crypto::VerifyKey& channel_key() const {
    return channel_key_.verify_key();
  }

  /// Attaches to all switches, subscribes flow monitors, installs the
  /// magic-header intercept rules, starts pollers/probers.
  void bootstrap();

  /// Client enrollment: RVaaS learns the client's public keys.
  void register_client(sdn::HostId client, crypto::VerifyKey key,
                       crypto::BigUInt box_public);

  /// Optional inputs for geo / path-length / fairness queries.
  void set_geo_provider(std::unique_ptr<GeoProvider> geo);
  void set_addressing(const control::HostAddressing* addressing);

  const enclave::Enclave& enclave() const { return enclave_; }
  /// Attestation quote binding the enclave's keys to its measurement.
  enclave::Quote quote() const;

  const SnapshotManager& snapshot() const { return snapshot_; }
  /// Restart/recovery simulation hook: the snapshot keeps its content but
  /// takes a fresh identity, so every cache keyed on it (L1 compiled model,
  /// L2 reachability) must detect the change and fully rebuild. Used by the
  /// scenario fuzzer (src/testing) to stress cache identity handling.
  /// Advancing the poll generation voids every stats reply still in flight:
  /// it was requested against the previous identity and must not leak into
  /// the new one.
  void reset_snapshot_identity() {
    snapshot_.reset_identity();
    ++poll_generation_;
  }
  /// The query engine answering this controller's logical steps; exposes the
  /// incremental model cache's counters (cache_stats) to benches/monitoring.
  const QueryEngine& engine() const { return engine_; }
  /// The push-verification registry (subscription + wakeup counters).
  const PropertyMonitor& monitor() const { return monitor_; }
  const std::vector<WiringAlarm>& wiring_alarms() const {
    return wiring_alarms_;
  }

  // --- control-channel health (fail-stale degraded operation) ---

  /// Per-switch control-channel health as the poll deadline machine sees
  /// it. Healthy until a deadline miss; Degraded after the first miss;
  /// Unreachable after three consecutive misses (circuit open: regular
  /// polls skip the switch, a capped-cadence probe keeps testing). Any
  /// successful reply snaps straight back to Healthy.
  enum class SwitchHealth : std::uint8_t { Healthy, Degraded, Unreachable };
  SwitchHealth switch_health(sdn::SwitchId sw) const;
  /// Switches currently Unreachable, sorted ascending.
  std::vector<sdn::SwitchId> unreachable_switches() const;
  /// Freshness of the view restricted to `footprint` (sorted): all-zero
  /// when every footprint switch is Healthy; otherwise the max ns since a
  /// non-Healthy footprint switch was last confirmed, plus the unreachable
  /// subset. This is what finalize() stamps on every outgoing reply.
  FreshnessInfo freshness_for(
      const std::vector<sdn::SwitchId>& footprint) const;

  // --- wire front-end integration (src/net) ---
  //
  // The TCP front-end runs this controller behind real sockets. Inbound
  // envelopes are opened/verified on the front-end's I/O threads (the
  // enclave's open/verify/sign are const, pure bignum math — thread-safe)
  // and enter here through the wire_* entry points on the controller's own
  // (event-loop) thread; outbound replies/notifications/auth-requests are
  // offered to the WireTransport as plain structs so the transport can
  // sign/seal them off-thread with the same enclave key — byte-identical
  // semantic content, with the per-query asymmetric crypto moved off the
  // single event-loop thread. A declined delivery (false) falls back to the
  // normal in-band packet path, so simulated clients are unaffected.

  /// Transport seam the TCP front-end implements. All calls arrive on the
  /// controller's event-loop thread; implementations must not call back
  /// into the controller synchronously.
  class WireTransport {
   public:
    virtual ~WireTransport() = default;
    /// True if `client` is wire-attached and the reply was taken.
    virtual bool deliver_reply(sdn::HostId client, const QueryReply& reply) = 0;
    /// True if `client` is wire-attached and the notification was taken.
    virtual bool deliver_notification(sdn::HostId client,
                                      const Notification& notification) = 0;
    /// True if the access point `target` belongs to a wire session and the
    /// (unsigned) auth request was taken — the transport signs it with the
    /// enclave key off-thread and ships it down that session's socket.
    virtual bool deliver_auth_request(sdn::PortRef target,
                                      const inband::AuthRequest& req) = 0;
  };
  /// Attaches/detaches the wire transport (nullptr = in-band only). The
  /// transport must outlive the controller or be detached first.
  void set_wire_transport(WireTransport* transport) { wire_ = transport; }

  /// Wire-path entry points: the envelope was already opened (and, for
  /// subscribe/auth, signature-verified against the enrolled key) on an
  /// I/O thread. Semantics are identical to the in-band packet path from
  /// this point on — pinned by tests/test_net.cpp byte-identity.
  void wire_request(const QueryRequest& request, sdn::PortRef request_point);
  void wire_subscribe(const SubscribeRequest& request,
                      sdn::PortRef request_point);
  void wire_auth_reply(const inband::AuthReply& reply, sdn::PortRef from);

  /// Wire session death: drops every subscription of `client` (cancelling
  /// in-flight evaluations) so a dead socket never wedges a sweep, and
  /// resets its subscribe replay clock so a reconnecting session with a
  /// fresh counter is not locked out. Returns subscriptions dropped.
  std::size_t evict_client(sdn::HostId client);

  /// Cancels every timer this controller owns (poll/probe/reverify
  /// re-arms, per-switch deadline and retry timers, auth timeouts, the
  /// coalesced sweep event) and drops pending state. After stop() the
  /// event loop holds no callback that re-arms or touches this object —
  /// required before destroying a controller whose loop outlives it.
  /// In-flight control-channel deliveries (a stats reply already queued by
  /// the network) still reference the controller: drain the loop first or
  /// destroy network and controller together.
  void stop();

  /// The exponential backoff ladder (pure, no jitter): base * 2^attempt
  /// capped at retry_backoff_cap. Exposed so tests can pin the schedule.
  static sim::Time backoff_base_delay(std::uint32_t attempt,
                                      const RvaasConfig& config);

  /// TEST-ONLY fault injection: while enabled, deadline misses and
  /// successful replies stop transitioning per-switch health — the machine
  /// is frozen blind at its current state while retries keep running. A
  /// hard-faulted switch then stays nominally Healthy with a stale view,
  /// which the fault-equivalence oracle (degraded-honesty clause) must
  /// catch. Never enable outside tests; affects all instances process-wide.
  static void test_fault_freeze_health(bool on);

  // sdn::Controller interface.
  void on_packet_in(const sdn::PacketIn& msg) override;
  void on_flow_update(const sdn::FlowUpdate& msg) override;

  struct Stats {
    std::uint64_t queries_received = 0;
    std::uint64_t bad_requests = 0;
    std::uint64_t auth_requests_sent = 0;
    std::uint64_t auth_replies_ok = 0;
    std::uint64_t auth_replies_bad = 0;
    std::uint64_t replies_sent = 0;
    std::uint64_t polls_sent = 0;
    std::uint64_t probes_sent = 0;
    std::uint64_t crypto_ops = 0;  ///< asymmetric operations (E9)

    // Push verification:
    std::uint64_t subscribes_received = 0;
    std::uint64_t unsubscribes_received = 0;
    std::uint64_t monitor_sweeps = 0;       ///< churn/timer sweep runs
    std::uint64_t notifications_sent = 0;   ///< alerts + all-clears pushed

    // Control-channel resilience:
    std::uint64_t poll_deadline_misses = 0;
    std::uint64_t poll_retries = 0;          ///< backoff/probe re-polls sent
    std::uint64_t polls_gated = 0;           ///< circuit breaker skipped a poll
    std::uint64_t stale_polls_discarded = 0; ///< generation/ordering guards
    std::uint64_t degraded_transitions = 0;
    std::uint64_t unreachable_transitions = 0;
    std::uint64_t health_recoveries = 0;     ///< non-Healthy -> Healthy
    std::uint64_t degraded_notifications = 0;///< VerificationDegraded pushes
  };
  const Stats& stats() const { return stats_; }

 private:
  /// An evaluation awaiting its in-band authentication round-trip — a
  /// one-shot query (subscription == nullopt) or a subscription wakeup.
  struct PendingQuery {
    QueryRequest request;
    sdn::PortRef request_point{};
    QueryReply reply;
    /// access point -> responded-with-valid-signature host
    std::unordered_map<sdn::PortRef, std::optional<sdn::HostId>> expected;
    std::unordered_map<std::uint64_t, sdn::PortRef> nonces;  ///< nonce -> target
    sim::EventId timeout{};
    /// Set for subscription wakeups: finalize pushes through the monitor
    /// instead of answering a request.
    std::optional<PropertyMonitor::Key> subscription;
    std::uint64_t evaluated_epoch = 0;  ///< snapshot epoch of the evaluation
    std::uint64_t property_fingerprint = 0;  ///< pinned in the notification
    /// Dependency footprint of the evaluation (sorted): what finalize()
    /// computes the reply's freshness section over.
    std::vector<sdn::SwitchId> footprint;
  };

  /// Per-switch control-channel state: deadline-tracked polls plus the
  /// health machine. Default-constructed == a Healthy switch never polled.
  struct SwitchChannel {
    SwitchHealth health = SwitchHealth::Healthy;
    std::uint32_t consecutive_misses = 0;
    std::uint32_t attempt = 0;   ///< backoff exponent for the next retry
    bool in_flight = false;      ///< a deadline-tracked poll is outstanding
    bool retry_pending = false;  ///< a backoff retry timer is armed
    sim::EventId deadline{};
    sim::EventId retry{};
    std::uint64_t poll_seq_sent = 0;     ///< per-switch poll sequence
    std::uint64_t poll_seq_applied = 0;  ///< highest reply adopted
  };

  void schedule_poll();
  void schedule_probe();
  void schedule_reverify();
  void poll_all_switches();
  /// One deadline-tracked poll. Regular polls (`is_retry == false`) are
  /// gated while the switch's circuit is open; retries/probes pass.
  void poll_switch(sdn::SwitchId sw, bool is_retry);
  void on_stats_reply(sdn::SwitchId sw, std::uint64_t seq, std::uint64_t gen,
                      sim::Time sent, const sdn::StatsReply& reply);
  void on_poll_deadline(sdn::SwitchId sw, std::uint64_t seq);
  /// Arms the capped-exponential-backoff retry (or, while Unreachable, the
  /// fixed-cadence circuit probe) for `sw` if none is pending.
  void schedule_retry(sdn::SwitchId sw);
  /// A poll round-trip completed: resets miss/backoff state; a non-Healthy
  /// switch recovers (forced full sweep re-verifies everything evaluated
  /// against the degraded view and resumes degraded subscriptions).
  void on_switch_alive(sdn::SwitchId sw);
  /// Healthy/Degraded -> Unreachable edge: pushes VerificationDegraded to
  /// every subscription whose footprint touches an unreachable switch.
  void on_unreachable();
  void probe_all_links();
  void handle_request(const sdn::PacketIn& msg);
  void handle_subscribe(const sdn::PacketIn& msg);
  void handle_auth_reply(const sdn::PacketIn& msg);
  /// Shared cores of the in-band and wire request paths (post-open /
  /// post-verify): exactly one implementation of admission, evaluation and
  /// auth bookkeeping, so the socket layer cannot drift semantically.
  void admit_request(const QueryRequest& request, sdn::PortRef request_point);
  void admit_subscribe(const SubscribeRequest& request,
                       sdn::PortRef request_point);
  /// Whether the engine can evaluate `kind` here: a Geo property needs a
  /// geo provider. Both admission paths count a kind it cannot evaluate as
  /// a bad request, before it reaches the engine.
  bool can_evaluate(QueryKind kind) const {
    return kind != QueryKind::Geo || geo_ != nullptr;
  }
  void admit_auth_reply(const inband::AuthReply& reply,
                        const crypto::Signature* signature,
                        sdn::PortRef from);
  /// Begins the auth round-trip for an evaluation already inserted into
  /// pending_ under `request_id`; `targets` fixes the (deterministic)
  /// dispatch order.
  void dispatch_auth_requests(PendingQuery& pending, std::uint64_t request_id,
                              std::span<const sdn::PortRef> targets);
  /// Registers the evaluation under a fresh internal id and runs the auth
  /// round-trip (or finalizes immediately when nothing needs probing).
  void track_pending(PendingQuery pending,
                     std::span<const sdn::PortRef> targets);
  void finalize(std::uint64_t request_id);
  void send_reply(const PendingQuery& pending);
  void send_notification(const PendingQuery& pending,
                         const PropertyMonitor::Decision& decision);
  /// Signed, sealed VerificationDegraded push for a subscription whose
  /// footprint lost a switch (no evaluation attached: the point is that a
  /// fresh evaluation is impossible right now).
  void send_degraded_notification(const PropertyMonitor::DegradedPush& push);

  /// Churn hook: coalesces same-instant epoch advances into one sweep event.
  void schedule_monitor_sweep();
  void run_monitor_sweep(bool force_all);
  /// Drops the evaluation of `key` still waiting on authentication, if
  /// any: its timeout is cancelled and it never commits or pushes.
  void cancel_inflight(const PropertyMonitor::Key& key);

  sdn::ControllerId id_;
  sdn::Network* net_;
  const enclave::AttestationService* ias_;
  RvaasConfig config_;
  util::Rng rng_;
  enclave::Enclave enclave_;
  crypto::SigningKey channel_key_;
  sdn::Network::ControllerHandle* handle_ = nullptr;
  QueryEngine engine_;
  SnapshotManager snapshot_;
  std::unique_ptr<GeoProvider> geo_;
  const control::HostAddressing* addressing_ = nullptr;

  struct ClientRecord {
    crypto::VerifyKey key;
    crypto::BigUInt box_public;
  };
  std::map<sdn::HostId, ClientRecord> clients_;
  WireTransport* wire_ = nullptr;
  std::map<std::uint64_t, PendingQuery> pending_;
  std::vector<WiringAlarm> wiring_alarms_;
  Stats stats_;

  // Control-channel resilience.
  std::map<sdn::SwitchId, SwitchChannel> channels_;
  /// Bumped by reset_snapshot_identity(); stats replies from an older
  /// generation are liveness signals but never touch the view.
  std::uint64_t poll_generation_ = 0;
  bool stopped_ = false;
  /// Self-rescheduling timers, stored so stop() can cancel them.
  sim::EventId poll_timer_{};
  sim::EventId probe_timer_{};
  sim::EventId reverify_timer_{};
  sim::EventId sweep_event_{};

  // Push verification. The monitor holds the subscription registry.
  PropertyMonitor monitor_;
  bool sweep_scheduled_ = false;
  std::uint64_t last_swept_epoch_ = 0;
  /// Internal request-id space for subscription evaluations; disjoint from
  /// client request ids (those carry the client host in the high word).
  std::uint64_t next_eval_id_ = 0xe4a1'0000'0000'0000ull;
  /// Subscription -> in-flight pending id, so a newer wakeup supersedes an
  /// evaluation still waiting on authentication.
  std::map<PropertyMonitor::Key, std::uint64_t> inflight_;
  /// Highest SubscribeRequest::freshness accepted per client (replay guard
  /// for the state-mutating subscription channel).
  std::map<sdn::HostId, std::uint64_t> subscribe_freshness_;
};

}  // namespace rvaas::core
