#include "testing/fuzzer.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

#include "attacks/attacks.hpp"
#include "rvaas/multiprovider.hpp"
#include "sdn/fault_plane.hpp"
#include "testing/oracles.hpp"
#include "util/ensure.hpp"
#include "workload/scenario.hpp"
#include "workload/topo_gen.hpp"

namespace rvaas::fuzz {

namespace {

using core::ClientAgent;
using core::Expectation;
using core::NotifyPolicy;
using core::Property;
using core::ProviderId;
using core::Query;
using core::QueryKind;
using sdn::Field;
using sdn::FlowMod;
using sdn::HostId;
using sdn::Match;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

/// Loop time given to every step before the oracles run: covers the control
/// round trips, the coalesced monitor sweep and its auth round (5 ms
/// timeout) plus the notification push.
constexpr sim::Time kStepSettle = 8 * sim::kMillisecond;
/// Legitimate replies land within ~7 ms simulated (auth_timeout 5 ms plus
/// transport); double that still detects suppression by timeout while
/// keeping suppressed waits (and the monitor churn they span) short.
constexpr sim::Time kQueryTimeout = 15 * sim::kMillisecond;
/// Flapping attacks cycle for a bounded burst: long enough for several
/// install/remove windows, short enough that the monitor's per-cycle sweep
/// and re-auth load stays proportionate in a tier-1 sweep.
constexpr sim::Time kFlappingRun = 40 * sim::kMillisecond;
/// Traversal depth for every engine the harness runs (the runtime's, the
/// peer domain's, and the flat reference). The fuzz topologies have at
/// most 16 switches (4x4 grid), so no legitimate path — attack detours
/// included — comes near this bound; it exists to cap the winding-path
/// walks adversarial churn can induce on loopy (ring/grid) shapes. All
/// engines share one value: a depth asymmetry between the federated walk
/// (budget resets per domain) and the flat reference would itself be a
/// divergence.
constexpr std::size_t kReachDepth = 32;
constexpr std::uint64_t kChurnCookieBase = 0xc4000000ull;
constexpr std::uint64_t kFlappingCookie = 0xf1a9;
constexpr std::size_t kMaxTrackedSubs = 3;

/// Honesty bound for oracle (f): a switch hard-faulted (100% drop or
/// partitioned) continuously for this long must not read Healthy. With
/// fixed 20 ms polling, the controller's 2 ms poll deadline and its
/// Degraded-after-one-miss threshold (controller.cpp), the first missed
/// deadline lands within ~22 ms of the fault in the worst case (fault right
/// after a poll round); 30 ms leaves margin for retry jitter.
constexpr sim::Time kHonestyBound = 30 * sim::kMillisecond;
/// Post-heal reconvergence: settle-and-recheck rounds and their length.
/// 8 x 25 ms covers several fixed poll periods, the Unreachable circuit
/// probe cadence, and the tail of a bounded flapping burst (kFlappingRun).
constexpr int kConvergeRounds = 8;
constexpr sim::Time kConvergeSettle = 25 * sim::kMillisecond;

// Peer-domain id spaces (federation schedules), disjoint from every
// workload generator (switches start at 1, hosts at 1000).
constexpr std::uint32_t kPeerSwitchBase = 900;
constexpr std::uint32_t kPeerHostBase = 5000;
constexpr std::uint32_t kPeerSize = 3;

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

class Runner {
 public:
  explicit Runner(Schedule schedule) : sched_(std::move(schedule)) { build(); }

  FuzzReport run() {
    for (std::size_t i = 0; i < sched_.steps.size() && !failure_; ++i) {
      step_index_ = i;
      apply_step(sched_.steps[i]);
      runtime_->settle(kStepSettle);
      if (peer_) peer_->settle(kStepSettle);
      if (!failure_) run_oracles();
      report_.steps_run = i + 1;
    }
    report_.failure = failure_;
    return report_;
  }

 private:
  struct SubState {
    std::optional<core::QueryReply> last_reply;
    bool bad_signature = false;
    std::uint64_t events = 0;
  };
  struct TrackedSub {
    HostId client{};
    std::uint64_t id = 0;
    Property property;
    std::shared_ptr<SubState> state;
  };
  struct ChurnRule {
    bool peer_domain = false;
    SwitchId sw{};
    std::shared_ptr<std::optional<sdn::FlowEntryId>> id;
  };
  struct ActiveAttack {
    int cls = 0;  ///< 0 exfil, 1 join, 2 geo, 3 breach, 4 flapping, 5 suppr.
    std::unique_ptr<attacks::Attack> attack;
    attacks::AttackRecord record;
    HostId detect_client{};
    Query detect_query;
    Expectation expect;
    std::vector<HostId> involved;  ///< hosts later attacks must stay off
    sim::Time flap_dwell = 0;
    SwitchId suppressed_switch{};
  };

  // --- construction ---

  void build() {
    workload::ScenarioConfig cfg;
    switch (sched_.config.topology) {
      case TopologyKind::Linear:
        cfg.generated = workload::linear(sched_.config.topo_size);
        break;
      case TopologyKind::Ring:
        cfg.generated = workload::ring(sched_.config.topo_size);
        break;
      case TopologyKind::Grid: {
        // Size-code → dimensions map (kMaxGridSizeCode caps the code).
        static constexpr std::pair<std::size_t, std::size_t> kGridDims[] = {
            {2, 2}, {3, 2}, {3, 3}, {4, 3}, {4, 4}};
        const auto [cols, rows] =
            kGridDims[std::min<std::uint32_t>(sched_.config.topo_size,
                                              kMaxGridSizeCode)];
        cfg.generated = workload::grid(cols, rows);
        break;
      }
    }
    cfg.tenant_count = sched_.config.tenant_count;
    cfg.seed = sched_.config.seed;
    switch (sched_.config.polling) {
      case 0:
        cfg.rvaas.polling = core::PollingMode::Randomized;
        break;
      case 1:
        cfg.rvaas.polling = core::PollingMode::Fixed;
        break;
      default:
        cfg.rvaas.polling = core::PollingMode::Disabled;
        break;
    }
    cfg.rvaas.poll_period = 20 * sim::kMillisecond;
    cfg.rvaas.max_reach_depth = kReachDepth;
    has_faults_ = std::any_of(
        sched_.steps.begin(), sched_.steps.end(),
        [](const Step& s) { return s.kind >= StepKind::InjectDrop; });
    if (has_faults_) {
      // Degraded-health timing (poll deadlines, backoff, recovery) must be
      // deterministic relative to the schedule; randomized polling would
      // jitter it and disabled polling could never detect or recover from
      // a fault at all.
      cfg.rvaas.polling = core::PollingMode::Fixed;
    }
    runtime_ = std::make_unique<workload::ScenarioRuntime>(std::move(cfg));
    geo_ = std::make_unique<core::DisclosedGeo>(runtime_->network().topology());
    if (has_faults_) {
      fault_plane_ = std::make_unique<sdn::FaultPlane>(sched_.config.seed ^
                                                       0xfa017a4e0000000dull);
      // Scope to the RVaaS verifier (ControllerId(2) in scenario.cpp): the
      // provider channel and the in-band client path stay fault-free, so
      // data-plane ground truth is identical to a fault-free run.
      fault_plane_->set_scope(sdn::ControllerId(2));
      runtime_->network().set_fault_plane(fault_plane_.get());
    }

    // The flat-reference oracle needs the known wiring of workload::linear.
    if (sched_.config.federation &&
        sched_.config.topology == TopologyKind::Linear) {
      build_federation();
    }
  }

  void build_federation() {
    workload::GeneratedTopology peer_gen;
    workload::append_linear_segment(peer_gen.topo, kPeerSwitchBase, kPeerSize,
                                    kPeerHostBase, &peer_gen.hosts);
    workload::ScenarioConfig pc;
    pc.generated = std::move(peer_gen);
    pc.seed = sched_.config.seed ^ 0x9e3779b9ull;
    pc.rvaas.max_reach_depth = kReachDepth;
    peer_ = std::make_unique<workload::ScenarioRuntime>(std::move(pc));

    border_a_ = PortRef{SwitchId(sched_.config.topo_size), PortNo(3)};
    ingress_b_ = PortRef{SwitchId(kPeerSwitchBase), PortNo(0)};

    workload::append_linear_segment(flat_topo_, 1, sched_.config.topo_size,
                                    1000, nullptr);
    workload::append_linear_segment(flat_topo_, kPeerSwitchBase, kPeerSize,
                                    kPeerHostBase, nullptr);
    flat_topo_.add_link(border_a_, ingress_b_);

    fed_.add_domain(ProviderId(1), runtime_->rvaas());
    fed_.add_domain(ProviderId(2), peer_->rvaas());
    fed_.add_peering(ProviderId(1), border_a_, ProviderId(2), ingress_b_);
  }

  // --- resolution helpers ---

  const std::vector<HostId>& hosts() const { return runtime_->hosts(); }
  HostId pick_host(std::uint32_t x) const {
    return hosts()[x % hosts().size()];
  }
  PortRef access_point(HostId host) const {
    return runtime_->network().topology().host_ports(host).front();
  }
  bool suppressed_client(HostId host) const {
    return suppressed_.count(access_point(host).sw) > 0;
  }
  bool routing_attack_active() const {
    return std::any_of(attacks_.begin(), attacks_.end(),
                       [](const ActiveAttack& a) { return a.cls <= 3; });
  }
  bool flapping_tracked() const {
    return std::any_of(attacks_.begin(), attacks_.end(),
                       [](const ActiveAttack& a) { return a.cls == 4; });
  }
  /// true while a flapping attack is still cycling — the window where the
  /// configuration changes between a push and a comparison query by design.
  bool flapping_cycling() const {
    return std::any_of(attacks_.begin(), attacks_.end(), [](const ActiveAttack&
                                                                a) {
      return a.cls == 4 && static_cast<const attacks::ReconfigFlappingAttack*>(
                               a.attack.get())
                               ->cycling();
    });
  }
  bool host_involved(HostId host) const {
    for (const ActiveAttack& a : attacks_) {
      if (std::find(a.involved.begin(), a.involved.end(), host) !=
          a.involved.end()) {
        return true;
      }
    }
    return false;
  }
  std::vector<HostId> tenant_members(HostId host) const {
    const auto tenant = runtime_->provider().tenant_of(host);
    return tenant ? tenant->members : std::vector<HostId>{};
  }

  void fail(std::string oracle, std::string detail) {
    if (failure_) return;  // first failure wins
    failure_ = FuzzFailure{step_index_, std::move(oracle), std::move(detail)};
  }

  Query make_query(std::uint32_t kind_sel, std::uint32_t shape) const {
    Query q;
    q.kind = static_cast<QueryKind>(kind_sel % 7);
    if (q.kind == QueryKind::PathLength) q.peer = pick_host(shape);
    switch (shape % 3) {
      case 0:
        break;  // all of the client's traffic
      case 1:
        q.constraint = Match().exact(
            Field::IpDst,
            runtime_->addressing().of(pick_host(shape / 3)).ip);
        break;
      default:
        q.constraint = Match().exact(Field::IpProto, sdn::kIpProtoUdp);
        break;
    }
    return q;
  }

  // --- step execution ---

  void apply_step(const Step& step) {
    switch (step.kind) {
      case StepKind::Settle:
        runtime_->settle((1 + step.a % 8) * sim::kMillisecond);
        if (peer_) peer_->settle((1 + step.a % 8) * sim::kMillisecond);
        return;
      case StepKind::FlowChurn:
        return do_flow_churn(step);
      case StepKind::RemoveChurn:
        return do_remove_churn(step);
      case StepKind::MeterChurn:
        return do_meter_churn(step);
      case StepKind::Query:
        return do_query(step);
      case StepKind::Subscribe:
        return do_subscribe(step);
      case StepKind::Unsubscribe:
        return do_unsubscribe(step);
      case StepKind::LaunchAttack:
        return do_launch_attack(step);
      case StepKind::RevertAttack:
        return do_revert_attack(step);
      case StepKind::SnapshotReset:
        runtime_->reset_rvaas_snapshot_identity();
        ++report_.snapshot_resets;
        return;
      case StepKind::MassSubscribe:
        return do_mass_subscribe(step);
      case StepKind::InjectDrop:
        return do_inject_drop(step);
      case StepKind::InjectDelay:
        return do_inject_delay(step);
      case StepKind::InjectPartition:
        return do_inject_partition(step);
      case StepKind::InjectCrash:
        return do_inject_crash(step);
      case StepKind::HealFaults:
        return do_heal_faults();
    }
  }

  // --- control-channel faults ---

  SwitchId fault_switch(std::uint32_t x) const {
    const auto switches = runtime_->network().topology().switches();
    return switches[x % switches.size()];
  }

  void do_inject_drop(const Step& step) {
    if (!fault_plane_) return;
    const SwitchId sw = fault_switch(step.a);
    sdn::FaultSpec spec;
    spec.drop_probability = 0.25 * (1 + step.b % 4);
    if (step.c % 4 == 0) spec.duplicate_probability = 0.25;
    fault_plane_->set_fault(sw, sdn::FaultDirection::ToSwitch, spec);
    fault_plane_->set_fault(sw, sdn::FaultDirection::FromSwitch, spec);
    fault_shadow_.insert(sw);
    if (spec.drop_probability >= 1.0) {
      // Total outage: the honesty clause starts its clock (keep the
      // earliest start if the switch was already dark).
      drop_hard_since_.emplace(sw, runtime_->loop().now());
    } else {
      // set_fault overwrote both directions; a previous total outage ended.
      drop_hard_since_.erase(sw);
    }
    ++report_.faults_injected;
  }

  void do_inject_delay(const Step& step) {
    if (!fault_plane_) return;
    const SwitchId sw = fault_switch(step.a);
    sdn::FaultSpec spec;
    spec.extra_delay_max = (1 + step.b % 5) * sim::kMillisecond;
    fault_plane_->set_fault(sw, sdn::FaultDirection::ToSwitch, spec);
    fault_plane_->set_fault(sw, sdn::FaultDirection::FromSwitch, spec);
    fault_shadow_.insert(sw);
    drop_hard_since_.erase(sw);  // spec overwrite ends any total drop
    ++report_.faults_injected;
  }

  void do_inject_partition(const Step& step) {
    if (!fault_plane_) return;
    const auto switches = runtime_->network().topology().switches();
    const std::size_t count = 1 + step.c % 3;
    const sim::Time now = runtime_->loop().now();
    const sim::Time until = now + (5 + step.b % 6) * sim::kMillisecond;
    for (std::size_t k = 0; k < count; ++k) {
      const SwitchId sw = switches[(step.a + k) % switches.size()];
      fault_plane_->partition(sw, until);
      fault_shadow_.insert(sw);
      const auto [it, inserted] =
          partitions_.try_emplace(sw, PartitionWindow{now, until});
      if (!inserted) {
        if (it->second.until >= now) {
          // Contiguous extension: the honesty clock keeps the old start.
          it->second.until = std::max(it->second.until, until);
        } else {
          it->second = PartitionWindow{now, until};
        }
      }
    }
    ++report_.faults_injected;
  }

  void do_inject_crash(const Step& step) {
    if (!fault_plane_) return;
    const SwitchId sw = fault_switch(step.a);
    fault_plane_->crash_agent(sw);
    // Voided in-flight replies can leave the view briefly behind ground
    // truth (the next poll repairs it), so the switch joins the shadow.
    fault_shadow_.insert(sw);
    ++report_.faults_injected;
  }

  void do_heal_faults() {
    ++report_.fault_heals;
    if (!fault_plane_) return;
    fault_plane_->heal_all();
    drop_hard_since_.clear();
    partitions_.clear();
    // Oracle (f) clause 3 — fail-stale must END: within a bounded number
    // of poll periods every channel snaps back to Healthy, staleness reads
    // zero and the view is byte-identical to ground truth.
    std::optional<std::string> last;
    for (int round = 0; round < kConvergeRounds; ++round) {
      runtime_->settle(kConvergeSettle);
      if (peer_) peer_->settle(kConvergeSettle);
      if (flapping_cycling()) continue;  // bounded burst; let it finish
      FaultOracleInput in;
      in.runtime = runtime_.get();
      in.client = pick_host(static_cast<std::uint32_t>(step_index_));
      in.path_peer = pick_host(static_cast<std::uint32_t>(step_index_) + 1);
      in.skip_fairness = meters_dirty_;
      in.strict = true;
      in.checks = &report_.fault_checks;
      last = check_fault_equivalence(in);
      if (!last) break;
    }
    if (last) {
      fail("fault-convergence", *last);
      return;
    }
    fault_shadow_.clear();
  }

  void do_flow_churn(const Step& step) {
    const bool to_peer = peer_ != nullptr && step.a % 4 == 0;
    workload::ScenarioRuntime& rt = to_peer ? *peer_ : *runtime_;
    const auto switches = rt.network().topology().switches();
    const SwitchId sw = switches[step.b % switches.size()];
    const std::uint32_t num_ports = rt.network().switch_sim(sw).num_ports();

    FlowMod mod;
    // Strictly below the attack injectors' priority (30): churn may shadow
    // provider routing but never an installed attack, so ground-truth
    // detection stays decidable under arbitrary interleavings.
    mod.priority = static_cast<std::uint16_t>(1 + step.a % 29);
    mod.cookie = kChurnCookieBase | churn_seq_++;
    switch (step.c % 3) {
      case 0:
        mod.match = Match().exact(Field::L4Dst, 7000 + (step.c / 3) % 8);
        break;
      case 1: {
        const HostId h = rt.hosts()[(step.c / 3) % rt.hosts().size()];
        mod.match = Match().exact(Field::IpDst, rt.addressing().of(h).ip);
        break;
      }
      default:
        mod.match = Match()
                        .in_port(PortNo((step.c / 3) % num_ports))
                        .exact(Field::IpProto, sdn::kIpProtoTcp);
        break;
    }
    std::uint32_t out_port = (step.c / 24) % num_ports;
    if (to_peer && sw == SwitchId(kPeerSwitchBase) && out_port == 0) {
      // Soundness of the flat-reference oracle: the peer domain must never
      // route back across the border (the federated walk's provider-level
      // loop guard and a flat traversal disagree on such loops by design).
      out_port = 1;
    }
    if (step.c % 5 == 4) {
      mod.actions = {sdn::drop()};
    } else {
      mod.actions = {sdn::output(PortNo(out_port))};
    }

    auto id = std::make_shared<std::optional<sdn::FlowEntryId>>();
    rt.provider_flow_mod(sw, mod,
                         [id](SwitchId, const sdn::FlowModResult& result) {
                           if (result.ok()) *id = result.id;
                         });
    churn_.push_back(ChurnRule{to_peer, sw, std::move(id)});
    ++report_.churn_applied;
  }

  void do_remove_churn(const Step& step) {
    if (churn_.empty()) return;
    const std::size_t idx = step.a % churn_.size();
    const ChurnRule rule = churn_[idx];
    if (!rule.id->has_value()) return;  // install result not landed yet
    FlowMod del;
    del.command = sdn::FlowModCommand::Delete;
    del.target = **rule.id;
    (rule.peer_domain ? *peer_ : *runtime_).provider_flow_mod(rule.sw, del);
    churn_.erase(churn_.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  void do_meter_churn(const Step& step) {
    const auto switches = runtime_->network().topology().switches();
    sdn::MeterMod mod;
    mod.id = sdn::MeterId(1 + step.b % 3);
    mod.config.rate_bps = (1ull + step.b % 16) * 1'000'000ull;
    mod.config.burst_bytes = 1500ull * (1 + step.c % 8);
    runtime_->provider_meter_mod(switches[step.a % switches.size()], mod);
    // Meters live outside the snapshot change clock; Fairness notifications
    // may lag meter churn until a table epoch advances, so oracle (b) skips
    // Fairness comparisons from here on.
    meters_dirty_ = true;
    ++report_.meter_mods;
  }

  void do_query(const Step& step) {
    const HostId client = pick_host(step.a);
    const Query query = make_query(step.b, step.c);
    const auto outcome = runtime_->query_and_wait(client, query, kQueryTimeout);
    ++report_.queries_checked;
    if (outcome.timed_out) {
      if (!suppressed_client(client)) {
        fail("liveness", "one-shot query timed out without an active "
                         "query-suppression attack at the client's switch");
      }
      return;
    }
    if (!outcome.reply || !outcome.signature_ok) {
      fail("liveness", "one-shot reply missing or failed the enclave "
                       "signature check");
      return;
    }
    if (suppressed_client(client)) {
      fail("detection", "query from a suppressed client was answered (the "
                        "suppression rule did not take effect)");
    }
  }

  void do_subscribe(const Step& step) {
    if (subs_.size() >= kMaxTrackedSubs) return;
    const HostId client = pick_host(step.a);
    const Property property =
        Property::from_query(make_query(step.b, step.c));
    auto state = std::make_shared<SubState>();
    const std::uint64_t id = runtime_->client(client).subscribe(
        property,
        [state](const ClientAgent::MonitorEvent& event) {
          if (!event.signature_ok) {
            state->bad_signature = true;
            return;
          }
          state->last_reply = event.reply;
          ++state->events;
        },
        NotifyPolicy::EveryChange);
    subs_.push_back(TrackedSub{client, id, property, std::move(state)});
  }

  void do_unsubscribe(const Step& step) {
    if (subs_.empty()) return;
    const std::size_t idx = step.a % subs_.size();
    runtime_->client(subs_[idx].client).unsubscribe(subs_[idx].id);
    subs_.erase(subs_.begin() + static_cast<std::ptrdiff_t>(idx));
  }

  /// Bulk-registers untracked subscriptions across clients so the monitor
  /// registry (and with it the inverted footprint index) grows past the
  /// kMaxTrackedSubs handful oracle (b) follows. Notifications are
  /// discarded; these subscriptions exist purely to populate the index
  /// with multi-entry buckets for oracle (e). Per-client caps may reject
  /// some registrations — harmless, the index just grows less.
  void do_mass_subscribe(const Step& step) {
    const std::size_t count = 4 + step.b % 5;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t x = static_cast<std::uint32_t>(i);
      const HostId client = pick_host(step.a + x);
      const Property property =
          Property::from_query(make_query(step.c + x, step.a + 3 * x));
      runtime_->client(client).subscribe(
          property, [](const ClientAgent::MonitorEvent&) {},
          NotifyPolicy::VerdictEdges);
      ++report_.mass_subscribed;
    }
  }

  // --- attacks ---

  void do_launch_attack(const Step& step) {
    switch (step.a % 6) {
      case 0:
        return launch_exfiltration(step.b, step.c);
      case 1:
        return launch_join(step.b, step.c);
      case 2:
        return launch_geo_diversion(step.b, step.c);
      case 3:
        return launch_breach(step.b, step.c);
      case 4:
        return launch_flapping(step.b, step.c);
      default:
        return launch_suppression(step.b);
    }
  }

  void track_attack(ActiveAttack aa) {
    attacks_.push_back(std::move(aa));
    ++report_.attacks_launched;
  }

  void launch_exfiltration(std::uint32_t b, std::uint32_t c) {
    if (routing_attack_active()) return;
    const HostId victim = pick_host(b);
    if (host_involved(victim)) return;
    const auto members = tenant_members(victim);
    if (members.size() < 2) return;
    HostId peer = members[c % members.size()];
    if (peer == victim) peer = members[(c + 1) % members.size()];
    if (peer == victim || host_involved(peer)) return;

    auto attack = std::make_unique<attacks::ExfiltrationAttack>(victim, peer);
    const auto record =
        attack->launch(runtime_->provider(), runtime_->network());
    if (!record) return;

    ActiveAttack aa;
    aa.cls = 0;
    aa.attack = std::move(attack);
    aa.record = *record;
    aa.detect_client = victim;
    aa.detect_query.kind = QueryKind::ReachableEndpoints;
    aa.expect.allowed_endpoints = members;
    aa.involved = {victim, peer};
    track_attack(std::move(aa));
  }

  void launch_join(std::uint32_t b, std::uint32_t c) {
    if (routing_attack_active()) return;
    const HostId victim = pick_host(b);
    if (host_involved(victim)) return;
    std::vector<PortRef> dark;
    for (const SwitchId sw : runtime_->network().topology().switches()) {
      const auto ports = runtime_->network().topology().dark_ports(sw);
      dark.insert(dark.end(), ports.begin(), ports.end());
    }
    if (dark.empty()) return;
    const PortRef attacker_port = dark[c % dark.size()];

    auto attack =
        std::make_unique<attacks::JoinAttack>(victim, attacker_port);
    const auto record =
        attack->launch(runtime_->provider(), runtime_->network());
    if (!record) return;

    ActiveAttack aa;
    aa.cls = 1;
    aa.attack = std::move(attack);
    aa.record = *record;
    aa.detect_client = victim;
    aa.detect_query.kind = QueryKind::Isolation;
    aa.expect.allowed_endpoints = tenant_members(victim);
    aa.involved = {victim};
    track_attack(std::move(aa));
  }

  void launch_geo_diversion(std::uint32_t b, std::uint32_t c) {
    if (routing_attack_active()) return;
    const HostId src = pick_host(b);
    if (host_involved(src)) return;
    const auto members = tenant_members(src);
    if (members.size() < 2) return;
    HostId dst = members[c % members.size()];
    if (dst == src) dst = members[(c + 1) % members.size()];
    if (dst == src || host_involved(dst)) return;

    // Ground truth: the jurisdictions the flow may cross right now. The
    // waypoint must add a new one, or the attack is undetectable by design.
    Property pre;
    pre.kind = QueryKind::Geo;
    pre.constraint =
        Match().exact(Field::IpDst, runtime_->addressing().of(dst).ip);
    core::QueryEngine::EvalContext ctx;
    ctx.from = access_point(src);
    ctx.geo = geo_.get();
    ctx.addressing = &runtime_->addressing();
    const auto eval = runtime_->rvaas().engine().evaluate(
        runtime_->rvaas().snapshot(), pre, ctx);
    const std::vector<std::string> allowed = eval.reply.jurisdictions;
    if (allowed.empty()) return;

    const auto switches = runtime_->network().topology().switches();
    for (std::size_t i = 0; i < switches.size(); ++i) {
      const SwitchId waypoint = switches[(c + i) % switches.size()];
      const auto loc = geo_->locate(waypoint);
      if (!loc || contains(allowed, loc->jurisdiction)) continue;
      auto attack =
          std::make_unique<attacks::GeoDiversionAttack>(src, dst, waypoint);
      const auto record =
          attack->launch(runtime_->provider(), runtime_->network());
      if (!record) continue;  // no route via this waypoint; try the next

      ActiveAttack aa;
      aa.cls = 2;
      aa.attack = std::move(attack);
      aa.record = *record;
      aa.detect_client = src;
      aa.detect_query.kind = QueryKind::Geo;
      aa.detect_query.constraint = pre.constraint;
      aa.expect.allowed_jurisdictions = allowed;
      aa.involved = {src, dst};
      track_attack(std::move(aa));
      return;
    }
  }

  void launch_breach(std::uint32_t b, std::uint32_t c) {
    if (routing_attack_active()) return;
    const HostId from = pick_host(b);
    if (host_involved(from)) return;
    const auto from_tenant = runtime_->provider().tenant_of(from);
    if (!from_tenant) return;
    for (std::size_t i = 0; i < hosts().size(); ++i) {
      const HostId to = pick_host(c + static_cast<std::uint32_t>(i));
      const auto to_tenant = runtime_->provider().tenant_of(to);
      if (!to_tenant || to_tenant->id == from_tenant->id) continue;
      if (host_involved(to)) continue;

      auto attack = std::make_unique<attacks::IsolationBreachAttack>(from, to);
      const auto record =
          attack->launch(runtime_->provider(), runtime_->network());
      if (!record) continue;  // no route toward this target; try the next

      ActiveAttack aa;
      aa.cls = 3;
      aa.attack = std::move(attack);
      aa.record = *record;
      aa.detect_client = to;
      aa.detect_query.kind = QueryKind::ReachingSources;
      aa.expect.allowed_endpoints = to_tenant->members;
      aa.involved = {from, to};
      track_attack(std::move(aa));
      return;
    }
  }

  void launch_flapping(std::uint32_t b, std::uint32_t c) {
    if (flapping_tracked()) return;
    const HostId victim = pick_host(b);
    if (host_involved(victim)) return;
    const sim::Time dwell = (2 + c % 2) * sim::kMillisecond;
    auto attack = std::make_unique<attacks::ReconfigFlappingAttack>(
        victim, 10 * sim::kMillisecond, dwell);
    const auto record =
        attack->launch(runtime_->provider(), runtime_->network(),
                       runtime_->loop().now() + kFlappingRun);
    if (!record) return;

    ActiveAttack aa;
    aa.cls = 4;
    aa.attack = std::move(attack);
    aa.record = *record;
    aa.detect_client = victim;
    aa.flap_dwell = dwell;
    aa.involved = {victim};
    track_attack(std::move(aa));
  }

  void launch_suppression(std::uint32_t b) {
    const HostId victim = pick_host(b);
    const SwitchId at = access_point(victim).sw;
    if (suppressed_.count(at) > 0) return;
    auto attack = std::make_unique<attacks::QuerySuppressionAttack>(at);
    const auto record =
        attack->launch(runtime_->provider(), runtime_->network());
    if (!record) return;

    suppressed_.insert(at);
    ActiveAttack aa;
    aa.cls = 5;
    aa.attack = std::move(attack);
    aa.record = *record;
    aa.detect_client = victim;
    aa.suppressed_switch = at;
    track_attack(std::move(aa));
  }

  /// Ground truth for the isolation breach, via the simulator's functional
  /// walk: unlike the other routing attacks (which install their complete
  /// path at attack priority), the breach contributes a single ingress
  /// tagging rule and rides the victim tenant's provider tree for the rest
  /// — lower-priority random churn can legitimately neutralize it mid-path.
  /// Detection is only owed while the breach actually delivers.
  /// (Found by this fuzzer: seed 20260898 churned the tree out from under
  /// the breach and correctly produced a clean verdict.)
  bool breach_delivers(const ActiveAttack& aa) const {
    sdn::Packet probe;
    probe.hdr.ip_src = runtime_->addressing().of(aa.involved[0]).ip;
    probe.hdr.ip_dst = runtime_->addressing().of(aa.record.victim).ip;
    const auto trajectory =
        runtime_->network().trace_from_host(aa.involved[0], probe);
    const auto reached = trajectory.reached_hosts();
    return std::find(reached.begin(), reached.end(), aa.record.victim) !=
           reached.end();
  }

  void do_revert_attack(const Step& step) {
    if (attacks_.empty()) return;
    const std::size_t idx = step.a % attacks_.size();
    ActiveAttack aa = std::move(attacks_[idx]);
    attacks_.erase(attacks_.begin() + static_cast<std::ptrdiff_t>(idx));

    aa.attack->revert(runtime_->provider(), runtime_->network());
    if (aa.cls == 5) suppressed_.erase(aa.suppressed_switch);
    ++report_.attacks_reverted;

    if (aa.cls == 4) check_flapping_ground_truth(aa);
  }

  /// Flapping is checked at revert time (its effect is the historical
  /// trace, not steady state): all windows must be closed, and if at least
  /// one cycle ran, the snapshot's short-lived-rule detector must have the
  /// transient rule on record.
  void check_flapping_ground_truth(const ActiveAttack& aa) {
    const auto* flap =
        static_cast<const attacks::ReconfigFlappingAttack*>(aa.attack.get());
    const sim::Time now = runtime_->loop().now();
    for (const auto& [start, end] : flap->windows()) {
      if (end > now) {
        fail("detection",
             "flapping window still open after revert() — the transient "
             "rule outlived the attack");
        return;
      }
    }
    if (flap->cycles_run() == 0) return;
    const auto short_lived = runtime_->rvaas().snapshot().short_lived(
        aa.flap_dwell + 2 * sim::kMillisecond);
    const bool seen = std::any_of(
        short_lived.begin(), short_lived.end(),
        [](const core::HistoryRecord& rec) {
          return rec.entry.cookie == kFlappingCookie;
        });
    if (!seen) {
      fail("detection",
           "reconfiguration flapping ran cycles but left no short-lived "
           "trace in the snapshot history");
    }
  }

  // --- oracles ---

  void run_oracles() {
    const std::uint32_t i = static_cast<std::uint32_t>(step_index_);

    // (e) inverted footprint index vs the retired linear footprint scan:
    // both must select the exact same wakeup Key list at any point between
    // sweeps (the index invariant makes dirty_since(last sweep) a complete
    // filter). Cheap (no evaluation runs), so it is checked first and after
    // every step — any index-maintenance bug surfaces as the earliest
    // divergence, before it can corrupt oracle (b).
    {
      const core::PropertyMonitor& monitor = runtime_->rvaas().monitor();
      const core::SnapshotManager& snap = runtime_->rvaas().snapshot();
      const auto indexed = monitor.indexed_wakeups(snap);
      const auto linear = monitor.linear_wakeups(snap);
      ++report_.index_checks;
      if (indexed != linear) {
        std::ostringstream os;
        os << "index selected " << indexed.size() << " wakeups, linear scan "
           << linear.size() << " (active=" << monitor.active()
           << ", index entries=" << monitor.index_entries() << ")";
        fail("index-vs-linear", os.str());
        return;
      }
    }

    // (a) warm engine vs fresh cold engine, all 7 kinds. The probe space
    // rotates: a full wildcard probe every third step (the expensive,
    // cube-explosion-prone shape), narrow exact-match probes in between.
    const HostId probe = pick_host(i);
    const HostId path_peer = pick_host(i + 1);
    Match probe_constraint;
    if (i % 3 == 1) {
      probe_constraint = Match().exact(
          Field::IpDst, runtime_->addressing().of(pick_host(i + 2)).ip);
    } else if (i % 3 == 2) {
      probe_constraint = Match().exact(Field::IpProto, sdn::kIpProtoTcp);
    }
    if (const auto err = check_cached_vs_cold(*runtime_, probe, path_peer,
                                              probe_constraint)) {
      fail("cached-vs-cold", *err);
      return;
    }

    // (f) fault equivalence. Clause 2 first — honesty: any switch under a
    // sustained hard fault (total drop / partition) must not read Healthy;
    // this is what catches a frozen or miswired health machine, because the
    // shadow skip below exempts exactly those switches from clause 1.
    if (fault_plane_) {
      const sim::Time now = runtime_->loop().now();
      const auto check_hard = [&](SwitchId sw, sim::Time since) {
        if (now - since < kHonestyBound) return;
        ++report_.fault_checks;
        if (runtime_->rvaas().switch_health(sw) ==
            core::RvaasController::SwitchHealth::Healthy) {
          std::ostringstream os;
          os << "switch " << sw.value << " hard-faulted for "
             << (now - since) / sim::kMillisecond
             << "ms still reads Healthy (fail-stale marking is broken)";
          fail("fault-honesty", os.str());
        }
      };
      for (const auto& [sw, since] : drop_hard_since_) check_hard(sw, since);
      for (const auto& [sw, win] : partitions_) {
        if (win.until > now) check_hard(sw, win.start);
      }
      if (failure_) return;

      // Clause 1 — no fail-wrong: every verdict that is neither
      // degraded-marked nor footprint-shadowed must be byte-identical to a
      // cold engine over ground-truth switch tables. Skipped while a
      // flapping attack cycles: its transient rule's install/remove updates
      // are legitimately in flight at oracle time, so the view lags ground
      // truth by delivery latency with no fault involved (found by this
      // oracle at seed 20260855 before the gate existed).
      if (!flapping_cycling()) {
        FaultOracleInput in;
        in.runtime = runtime_.get();
        in.client = probe;
        in.path_peer = path_peer;
        in.constraint = probe_constraint;
        in.shadow.assign(fault_shadow_.begin(), fault_shadow_.end());
        in.skip_fairness = meters_dirty_;
        in.checks = &report_.fault_checks;
        if (const auto err = check_fault_equivalence(in)) {
          fail("fault-equivalence", *err);
          return;
        }
      }
    }

    // (b) monitor pushes vs cold one-shot queries. Skipped while a flapping
    // attack cycles (the configuration changes between the push and the
    // comparison query by design) and while any switch sits in the fault
    // shadow (a delayed or retried poll can legitimately reconcile — and
    // re-push — between the recorded push and the comparison query).
    if (!flapping_cycling() && fault_shadow_.empty()) {
      for (std::size_t s = 0; s < subs_.size(); ++s) {
        const TrackedSub& sub = subs_[s];
        if (sub.state->bad_signature) {
          fail("monitor-vs-query",
               "notification failed the enclave signature check");
          return;
        }
        if (!sub.state->last_reply) continue;  // subscribe never landed
        if (suppressed_client(sub.client)) continue;
        if (meters_dirty_ && sub.property.kind == QueryKind::Fairness) {
          continue;  // meters drift outside the change clock
        }
        // In-band round trips cost real crypto; alternate subscriptions
        // across steps (every sub is still compared every other step).
        if ((step_index_ + s) % 2 != 0) continue;
        const auto outcome = runtime_->query_and_wait(
            sub.client, sub.property.query(), kQueryTimeout);
        if (outcome.timed_out) {
          fail("liveness", "comparison query timed out without suppression");
          return;
        }
        if (!outcome.reply || !outcome.signature_ok) {
          fail("liveness", "comparison reply missing or badly signed");
          return;
        }
        if (normalized_reply_bytes(*sub.state->last_reply) !=
            normalized_reply_bytes(*outcome.reply)) {
          std::ostringstream os;
          os << "push notification diverges from a cold one-shot query for "
             << to_string(sub.property.kind) << " (client "
             << sub.client.value << ", sub " << sub.id << ")";
          fail("monitor-vs-query", os.str());
          return;
        }
        ++report_.notifications_compared;
      }
    }

    // (c) federation vs flat merged engine.
    if (peer_) {
      FederationOracleInput in;
      in.federation = &fed_;
      in.start = ProviderId(1);
      in.ingress = access_point(pick_host(i));
      in.flat_topo = &flat_topo_;
      in.snap_a = &runtime_->rvaas().snapshot();
      in.snap_b = &peer_->rvaas().snapshot();
      in.max_depth = kReachDepth;
      switch (i % 3) {
        case 0:
          break;  // every header
        case 1:
          in.constraint = Match().exact(Field::IpProto, sdn::kIpProtoUdp);
          break;
        default:
          in.constraint = Match().exact(
              Field::IpDst, peer_->addressing().of(peer_->hosts()[0]).ip);
          break;
      }
      if (const auto err = check_federation_vs_flat(in)) {
        fail("federation-vs-flat", *err);
        return;
      }
      ++report_.federation_checks;
    }

    // (d) detector verdicts vs attack ground truth. Detection queries are
    // full in-band round trips (real crypto); each attack is checked on
    // every other step, deterministically. Under an active fault shadow the
    // verifier's view may legitimately lag the attack's installation
    // (dropped flow updates) — detection is owed again after heal, not
    // during the outage (fail-stale, never fail-wrong).
    if (!fault_shadow_.empty()) return;
    for (std::size_t a = 0; a < attacks_.size(); ++a) {
      const ActiveAttack& aa = attacks_[a];
      if (aa.cls == 4) continue;  // flapping: checked at revert
      if ((step_index_ + a) % 2 != 0) continue;
      if (aa.cls == 3 && !breach_delivers(aa)) continue;  // churned away
      if (failure_) return;
      ++report_.detection_checks;
      if (aa.cls == 5) {
        Query q;
        q.kind = QueryKind::ReachableEndpoints;
        const auto outcome =
            runtime_->query_and_wait(aa.detect_client, q, kQueryTimeout);
        if (!outcome.timed_out) {
          fail("detection",
               "query-suppression missed: the suppressed client's query "
               "was answered instead of timing out");
        }
        continue;
      }
      const auto outcome = runtime_->query_and_wait(
          aa.detect_client, aa.detect_query, kQueryTimeout);
      if (outcome.timed_out) {
        if (!suppressed_client(aa.detect_client)) {
          fail("liveness", "detection query timed out without suppression");
        }
        continue;  // timeout IS detection when the channel is suppressed
      }
      if (!outcome.reply || !outcome.signature_ok) {
        fail("liveness", "detection reply missing or badly signed");
        continue;
      }
      const core::Verdict verdict =
          core::evaluate_reply(*outcome.reply, aa.expect);
      if (verdict.ok) {
        std::ostringstream os;
        os << "missed detection: " << aa.record.name << " against client "
           << aa.detect_client.value << " produced a clean "
           << to_string(aa.detect_query.kind) << " verdict";
        fail("detection", os.str());
      }
    }
  }

  Schedule sched_;
  FuzzReport report_;
  std::optional<FuzzFailure> failure_;
  std::size_t step_index_ = 0;

  // Declared before runtime_ so the network (which holds a raw pointer to
  // the plane) is destroyed first.
  std::unique_ptr<sdn::FaultPlane> fault_plane_;
  std::unique_ptr<workload::ScenarioRuntime> runtime_;
  std::unique_ptr<core::DisclosedGeo> geo_;

  // Federation (oracle (c)) state.
  std::unique_ptr<workload::ScenarioRuntime> peer_;
  sdn::Topology flat_topo_;
  core::Federation fed_;
  PortRef border_a_;
  PortRef ingress_b_;

  std::vector<ChurnRule> churn_;
  std::uint64_t churn_seq_ = 0;
  std::vector<TrackedSub> subs_;
  std::vector<ActiveAttack> attacks_;
  std::set<SwitchId> suppressed_;
  bool meters_dirty_ = false;

  // Fault bookkeeping for oracle (f).
  bool has_faults_ = false;
  /// Switches faulted at any point since the last completed heal.
  std::set<SwitchId> fault_shadow_;
  /// Active 100%-drop faults and their start time (honesty clock).
  std::map<SwitchId, sim::Time> drop_hard_since_;
  struct PartitionWindow {
    sim::Time start = 0;
    sim::Time until = 0;
  };
  std::map<SwitchId, PartitionWindow> partitions_;
};

}  // namespace

FuzzReport run_schedule(const Schedule& schedule) {
  Runner runner(schedule);
  return runner.run();
}

FuzzReport replay(const std::string& repro) {
  const auto parsed = parse_repro(repro);
  util::ensure(parsed.has_value(), "malformed fuzz repro string");
  return run_schedule(*parsed);
}

}  // namespace rvaas::fuzz
