#pragma once
// Push-style continuous verification (the paper's §IV monitoring loop turned
// client-facing): clients register standing Property subscriptions; on every
// snapshot epoch advance the monitor intersects the dirty switches with each
// subscription's dependency footprint and re-evaluates only the affected
// ones, in Key order on the caller's thread. The controller completes each
// wakeup with the usual in-band authentication round-trip and pushes a
// signed ViolationAlert/AllClear notification when commit() says the outcome
// is news to the client.
//
// The monitor is pure logic over the QueryEngine (no I/O, no event loop):
// the controller (rvaas/controller.hpp) owns packet dispatch and drives
// sweep()/commit() from its churn hooks and re-verification timer.

#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "rvaas/engine.hpp"

namespace rvaas::core {

class PropertyMonitor {
 public:
  /// Subscription identity: (client, client-chosen id). Ids from different
  /// clients never collide with each other.
  using Key = std::pair<sdn::HostId, std::uint64_t>;

  struct Subscription {
    std::uint64_t id = 0;          ///< client-chosen, scopes notifications
    sdn::HostId client{};
    sdn::PortRef request_point{};  ///< where Subscribe entered; alerts return there
    Property property;
    NotifyPolicy policy = NotifyPolicy::VerdictEdges;

    /// Union dependency footprint of the last evaluation (sorted). Churn
    /// confined to switches outside it cannot change the reply.
    std::vector<sdn::SwitchId> footprint;
    /// Snapshot epoch of the last evaluation; meaningless until `evaluated`.
    std::uint64_t evaluated_epoch = 0;
    bool evaluated = false;

    /// Verdict of the last pushed notification; nullopt = nothing pushed
    /// yet (the first commit always pushes the baseline).
    std::optional<bool> last_ok;
    /// Serialized reply of the last push (EveryChange comparison only).
    util::Bytes last_payload;
    /// Pushes so far; the next notification carries sequence + 1.
    std::uint64_t sequence = 0;
    /// A VerificationDegraded push went out (the footprint touched an
    /// unreachable switch) and no normal push has resumed since. While
    /// set, the next commit always pushes — the client is owed a signed
    /// resume even if the verdict never moved.
    bool degraded_notified = false;
  };

  struct Stats {
    std::uint64_t subscribes = 0;
    std::uint64_t unsubscribes = 0;
    std::uint64_t sweeps = 0;        ///< sweep() calls
    std::uint64_t wakeups = 0;       ///< subscription re-evaluations run
    std::uint64_t skipped = 0;       ///< footprint-disjoint (no re-evaluation)
    std::uint64_t alerts = 0;        ///< ViolationAlert pushes decided
    std::uint64_t all_clears = 0;    ///< AllClear pushes decided
    std::uint64_t suppressed = 0;    ///< commits with nothing new to push
    std::uint64_t indexed_sweeps = 0;   ///< selections served by the index
    std::uint64_t fallback_sweeps = 0;  ///< linear selections (new snapshot
                                        ///< identity / first sweep)
    std::uint64_t degraded = 0;         ///< VerificationDegraded pushes decided
    std::uint64_t degraded_resumes = 0; ///< forced pushes clearing the flag
  };

  explicit PropertyMonitor(const QueryEngine& engine) : engine_(&engine) {}

  /// Registers (or, under an existing (client, id), replaces) a standing
  /// subscription. A retransmission with an identical property fingerprint
  /// and policy is idempotent (state kept); a genuine replacement resets
  /// the evaluation/push state but carries the notification sequence
  /// forward, so the client's replay guard keeps working.
  void subscribe(Subscription sub);

  /// Removes a subscription; false if unknown.
  bool unsubscribe(sdn::HostId client, std::uint64_t id);

  const Subscription* find(sdn::HostId client, std::uint64_t id) const;
  /// All subscription ids held by `client`, ascending. O(log subs + k);
  /// the wire front-end uses it to tear down a disconnected session.
  std::vector<std::uint64_t> ids_of(sdn::HostId client) const;
  std::size_t active() const { return subs_.size(); }
  /// O(1): served from a per-client count maintained on (un)subscribe (the
  /// controller consults it on every subscribe, so it must not scan).
  std::size_t active_for(sdn::HostId client) const;
  /// true while some subscription has never been evaluated — a sweep is due
  /// even without an epoch advance (the baseline notification). O(1): the
  /// controller calls this on every coalesced churn event.
  bool has_unevaluated() const { return !unevaluated_.empty(); }

  /// One re-evaluated subscription, ready for the controller to authenticate
  /// and (maybe) push. `evaluation.footprint` is moved into the registry
  /// (read it back through find()); the property fingerprint travels in the
  /// Notification so the client can pin what was verified.
  struct Wakeup {
    Key key;
    sdn::PortRef request_point{};
    QueryEngine::Evaluation evaluation;
    std::uint64_t epoch = 0;  ///< snapshot epoch the evaluation saw
    std::uint64_t property_fingerprint = 0;
  };

  /// The churn hook: re-evaluates every subscription whose footprint
  /// intersects the switches dirtied since its own last evaluation (plus any
  /// never evaluated; `force_all` re-evaluates everything — the timer-driven
  /// sweep that catches drift outside the change clock, e.g. meters and dead
  /// auth responders). Selection is served by the inverted footprint index
  /// (O(affected), see indexed_wakeups below). Every wakeup is evaluated
  /// before any registry footprint moves, so an evaluation that throws
  /// leaves the registry and index untouched. Wakeups come back in
  /// ascending Key order, so downstream auth dispatch is deterministic.
  /// `base_ctx` supplies geo/addressing; `from` is set per subscription.
  /// Reply request_ids are set to the subscription id.
  std::vector<Wakeup> sweep(const SnapshotManager& snap,
                            const QueryEngine::EvalContext& base_ctx,
                            bool force_all = false);

  /// The wakeup set the inverted footprint index would select right now
  /// (ascending Key order): never-evaluated subscriptions plus every entry
  /// under a switch dirtied since the last sweep. Falls back to the linear
  /// scan when the index anchors do not apply to `snap` (first sweep, new
  /// snapshot identity, epoch regression). Pure; sweep() uses this exact
  /// selection. Index invariant: after every sweep, a subscription is
  /// indexed under switch S iff its registry footprint contains S, and a
  /// non-selected subscription's footprint is disjoint from all churn since
  /// its own evaluation — which makes dirty_since(last sweep) a complete
  /// wakeup filter.
  std::vector<Key> indexed_wakeups(const SnapshotManager& snap,
                                   bool force_all = false) const;

  /// The retired O(subs) reference selection: intersects every
  /// subscription's footprint against the switches dirtied since its own
  /// evaluation. Kept as the equivalence oracle for the index (like
  /// testing/reference_hsa for the HSA representation) and as the fallback
  /// path above. Must always equal indexed_wakeups() byte-for-byte.
  std::vector<Key> linear_wakeups(const SnapshotManager& snap,
                                  bool force_all = false) const;

  /// Total (switch, subscription) entries in the index (tests).
  std::size_t index_entries() const;

  /// TEST-ONLY fault injection: while enabled, subscribe/unsubscribe and
  /// the post-evaluation footprint move stop maintaining the inverted
  /// index — a deliberately stale index that the index-vs-linear oracle
  /// must catch. Never enable outside tests; affects all instances
  /// process-wide.
  static void test_fault_freeze_index(bool on);

  enum class Push : std::uint8_t { None, ViolationAlert, AllClear };
  struct Decision {
    Push push = Push::None;
    std::uint64_t sequence = 0;  ///< valid when push != None
  };

  /// Final step of a wakeup, after authentication filled in the reply:
  /// verdict against the stored Expectation, compared with the last pushed
  /// state under the subscription's NotifyPolicy. Updates push bookkeeping
  /// when a notification is due. No-op Decision for unknown subscriptions
  /// (unsubscribed while the evaluation was in flight). A subscription
  /// holding a VerificationDegraded debt (see mark_degraded) always pushes
  /// here — the signed resume — and the debt is cleared.
  Decision commit(const Key& key, const QueryReply& final_reply);

  /// Everything the controller needs to push one VerificationDegraded
  /// notification (no evaluation attached: the point is that the registry
  /// footprint just lost a switch and a fresh evaluation is impossible).
  struct DegradedPush {
    Key key;
    sdn::PortRef request_point{};
    std::uint64_t sequence = 0;  ///< already bumped; carried verbatim
    std::uint64_t property_fingerprint = 0;
    std::uint64_t evaluated_epoch = 0;
    QueryKind kind = QueryKind::ReachableEndpoints;
  };

  /// Fail-stale hook, called by the controller on a Healthy/Degraded ->
  /// Unreachable edge with the full current unreachable set (sorted):
  /// every evaluated subscription whose footprint intersects it — and that
  /// is not already flagged — takes the degraded_notified debt, advances
  /// its sequence, and yields one DegradedPush. O(subs) linear scan:
  /// unreachable transitions are rare by construction (they need several
  /// consecutive missed poll deadlines, see controller.cpp).
  std::vector<DegradedPush> mark_degraded(
      const std::vector<sdn::SwitchId>& unreachable);

  const Stats& stats() const { return stats_; }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  /// Selection behind indexed_wakeups(); reports whether the linear
  /// fallback ran (stats + tests).
  std::vector<Key> select_wakeups(const SnapshotManager& snap, bool force_all,
                                  bool& used_fallback) const;
  /// Adds/removes `key` under every switch of `footprint` (no-ops while the
  /// test fault freezes index maintenance).
  void index_insert(const std::vector<sdn::SwitchId>& footprint,
                    const Key& key);
  void index_erase(const std::vector<sdn::SwitchId>& footprint,
                   const Key& key);

  const QueryEngine* engine_;
  /// Ordered registry: sweep order (and with it notification order under
  /// simultaneous churn) is deterministic.
  std::map<Key, Subscription> subs_;
  /// Inverted footprint index over the registry: switch → subscriptions
  /// whose registry footprint contains it. Entries exist exactly for
  /// evaluated subscriptions' footprints; updated in the same step as the
  /// post-evaluation footprint move.
  std::unordered_map<std::uint32_t, std::unordered_set<Key, KeyHash>> index_;
  /// Subscriptions awaiting their baseline evaluation (no footprint, no
  /// index entries yet). Ordered so selection output stays in Key order.
  std::set<Key> unevaluated_;
  /// Per-client subscription counts (the controller's cap check).
  std::unordered_map<sdn::HostId, std::size_t> per_client_;
  /// Index anchors: the snapshot identity/epoch of the last completed
  /// sweep. dirty_since(swept_epoch_) is a complete wakeup filter only
  /// relative to these (see indexed_wakeups); a mismatch falls back to the
  /// linear scan for that sweep. 0 = no sweep yet.
  std::uint64_t swept_epoch_ = 0;
  std::uint64_t swept_instance_ = 0;
  Stats stats_;
};

}  // namespace rvaas::core
