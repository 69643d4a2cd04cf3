// The three workloads. Each drives an in-process WireServer + WireService
// over loopback TCP with rvaas_server's defaults (one I/O thread, default
// RvaasConfig) from blocking WireClient sessions: one closed-loop session on
// the query workloads, two on churn_alert (see session_hosts below).
//
//   query_warm   ReachableEndpoints on linear_fanout(4,4), 4 tenants; the
//                session's tenant has 3 in-process peers, so L1 and L2
//                always hit and crypto plus the auth round do the work.
//   query_cold   TransferSummary on grid(6,6), one tenant; every query has
//                an L4 destination port never used before, so it misses L2
//                and runs a full HSA traversal. No auth.
//   churn_alert  ExfiltrationAttack launch/revert pairs on grid(6,6), 9
//                tenants; each session holds a ReachableEndpoints sentinel
//                and 63 TransferSummary subscriptions whose footprint covers
//                the attacked switch but whose verdict never flips.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>

#include "attacks/attacks.hpp"
#include "bench.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "replay.hpp"
#include "workload/wire_world.hpp"

namespace perfbench {

namespace {

using namespace rvaas;

constexpr int kTimeoutMs = 10'000;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 5;
/// query_warm: verified queries per session during set-up (fills L1, L2).
constexpr int kWarmupQueries = 4;
/// query_cold: queries per session per --seconds. The phase issues exactly
/// this many, so the distinct constraints a run caches (and with them its
/// RSS) do not depend on how fast the program is; about --seconds long on a
/// 4-vCPU x86 host.
constexpr int kColdQueriesPerSecond = 48;
/// query_cold: replies per session checked against the cold oracle.
constexpr std::size_t kColdChecked = 16;
/// churn_alert: TransferSummary subscriptions per session; with the
/// sentinel this is the per-client cap of 64.
constexpr std::size_t kBulkSubscriptions = 63;
/// Operations the traced run replays per layer.
constexpr std::size_t kReplayOps = 16;
/// Churn events the replay applies on the query workloads.
constexpr std::size_t kReplayProbeEvents = 4;
/// End-to-end statistics are medians over windows of this length (below).
constexpr double kWindowS = 2.0;
/// Cadence of the controller-thread queue-wait probe.
constexpr auto kProbeEvery = std::chrono::milliseconds(2);

enum class Kind { QueryWarm, QueryCold, ChurnAlert };

Kind kind_of(const std::string& name) {
  if (name == "query_warm") return Kind::QueryWarm;
  if (name == "query_cold") return Kind::QueryCold;
  return Kind::ChurnAlert;
}

/// SplitMix64 over (seed, stream): every generated input derives from the
/// --seed value through its own stream.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum Stream : std::uint64_t {
  kWorldStream = 1,
  kServerStream,
  kConstraintStream,
  kScheduleStream,
  kSampleStream,
  kReplayStream,
  kClientStream = 100,
};

util::Bytes bytes_of(const core::QueryReply& reply) {
  util::ByteWriter w;
  reply.serialize(w);
  return w.take();
}

bool same_reply(const core::QueryReply& got, core::QueryReply want) {
  want.request_id = got.request_id;
  return bytes_of(got) == bytes_of(want);
}

/// L4 destination ports in a seeded order, skipping the in-band ports.
std::vector<std::uint16_t> distinct_ports(std::uint64_t seed) {
  std::vector<std::uint16_t> ports;
  for (std::uint32_t p = 1024; p <= 65535; ++p) {
    if (p == sdn::kPortRvaasRequest || p == sdn::kPortRvaasAuth ||
        p == sdn::kPortRvaasReply) {
      continue;
    }
    ports.push_back(static_cast<std::uint16_t>(p));
  }
  util::Rng rng(seed);
  for (std::size_t i = ports.size() - 1; i > 0; --i) {
    std::swap(ports[i], ports[rng.below(i + 1)]);
  }
  return ports;
}

core::Property port_property(core::QueryKind kind, std::uint16_t port) {
  core::Property p;
  p.kind = kind;
  p.constraint = sdn::Match().exact(sdn::Field::L4Dst, port);
  return p;
}

core::Property reach_property() {
  core::Property p;
  p.kind = core::QueryKind::ReachableEndpoints;
  return p;
}

/// Indices (into the world's hosts) of the wire sessions' hosts. The query
/// workloads run one closed-loop session: with two, the controller thread
/// runs near saturation, where each query's wait behind the other session's
/// amplifies the host's drift in CPU speed (README.md gives the measured
/// spreads). churn_alert applies one event at a time, so its two sessions
/// never contend.
std::vector<std::size_t> session_hosts(Kind kind) {
  if (kind == Kind::ChurnAlert) return {0, 35};
  return {0};
}

/// One benchmark world: scenario, service, front-end and connected sessions.
class World {
 public:
  World(Kind kind, std::uint64_t seed, Result& result) : kind_(kind) {
    workload::ScenarioConfig config;
    std::size_t tenants = 1;
    switch (kind) {
      case Kind::QueryWarm:
        config.generated = workload::linear_fanout(4, 4);
        tenants = 4;
        break;
      case Kind::QueryCold:
        config.generated = workload::grid(6, 6);
        tenants = 1;
        break;
      case Kind::ChurnAlert:
        config.generated = workload::grid(6, 6);
        tenants = 9;
        break;
    }
    const std::vector<sdn::HostId>& all = config.generated.hosts;
    for (const std::size_t idx : session_hosts(kind)) {
      hosts_.push_back(all[idx]);
      std::vector<sdn::HostId> peers;
      for (std::size_t j = 0; j < all.size(); ++j) {
        if (j != idx && j % tenants == idx % tenants) peers.push_back(all[j]);
      }
      peers_.push_back(std::move(peers));
    }
    config.tenant_count = tenants;
    config.seed = derive(seed, kWorldStream);
    config.wire_hosts = hosts_;
    runtime_ = std::make_unique<workload::ScenarioRuntime>(std::move(config));
    runtime_->settle(50 * sim::kMillisecond);

    service_ = std::make_unique<net::WireService>(runtime_->loop());
    server_ = std::make_unique<net::WireServer>(
        net::WireServerConfig{}, runtime_->rvaas(), *service_,
        runtime_->ias().root_key(), workload::wire_slots(*runtime_, hosts_),
        derive(seed, kServerStream));
    service_->start();
    server_->start();
    for (std::size_t s = 0; s < hosts_.size(); ++s) {
      net::WireClientConfig cc;
      cc.port = server_->port();
      cc.requested_host = hosts_[s].value;
      cc.seed = derive(seed, kClientStream + s);
      clients_.push_back(std::make_unique<net::WireClient>(cc));
      ++result.attempted;
      if (clients_.back()->connect() != net::WelcomeStatus::Ok) {
        result.fail("session " + std::to_string(s) +
                    ": connect or attestation failed");
      }
    }
  }
  ~World() { stop(); }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Closes the sessions and stops the front-end and the service; the
  /// controller's state is frozen from here on.
  void stop() {
    for (auto& c : clients_) c->close();
    server_->stop();
    service_->stop();
  }

  Kind kind() const { return kind_; }
  workload::ScenarioRuntime& runtime() { return *runtime_; }
  core::RvaasController& controller() { return runtime_->rvaas(); }
  net::WireService& service() { return *service_; }
  net::WireServer& server() { return *server_; }
  std::size_t sessions() const { return clients_.size(); }
  net::WireClient& client(std::size_t s) { return *clients_[s]; }
  sdn::HostId host(std::size_t s) const { return hosts_[s]; }
  const std::vector<sdn::HostId>& hosts() const { return hosts_; }
  const std::vector<sdn::HostId>& peers(std::size_t s) const {
    return peers_[s];
  }
  sdn::PortRef access_point(std::size_t s) {
    return runtime_->network().topology().host_ports(hosts_[s]).front();
  }

  /// The cold oracle: `property` from session `s` on a fresh QueryEngine
  /// over the controller's current snapshot, with the authentication
  /// outcome in-process responders always produce. Runs on the service
  /// thread (or inline once stopped).
  core::QueryReply oracle(std::size_t s, const core::Property& property) {
    return service_->call([&] {
      const core::RvaasController& ctl = controller();
      const sdn::Topology& topo = runtime_->network().topology();
      const core::QueryEngine cold(topo, ctl.engine().config());
      core::QueryEngine::EvalContext ctx;
      ctx.from = access_point(s);
      ctx.addressing = &runtime_->addressing();
      core::QueryEngine::Evaluation ev =
          cold.evaluate(ctl.snapshot(), property, ctx);
      authenticate_all(topo, ev);
      return ev.reply;
    });
  }

  std::uint64_t snapshot_epoch() {
    return service_->call([this] { return controller().snapshot().epoch(); });
  }

 private:
  Kind kind_;
  std::vector<sdn::HostId> hosts_;
  std::vector<std::vector<sdn::HostId>> peers_;
  std::unique_ptr<workload::ScenarioRuntime> runtime_;
  std::unique_ptr<net::WireService> service_;
  std::unique_ptr<net::WireServer> server_;
  std::vector<std::unique_ptr<net::WireClient>> clients_;
};

/// Counters read race-free: the controller's structs on its own thread, the
/// front-end's atomics directly.
struct Counters {
  core::RvaasController::Stats ctl;
  core::PropertyMonitor::Stats mon;
  core::CompiledModelCache::Stats l1;
  core::ReachCache::Stats l2;
  net::WireServer::Stats srv;
};

Counters read_counters(World& w) {
  Counters c = w.service().call([&w] {
    const core::RvaasController& ctl = w.controller();
    Counters out;
    out.ctl = ctl.stats();
    out.mon = ctl.monitor().stats();
    out.l1 = ctl.engine().cache_stats();
    out.l2 = ctl.engine().reach_stats();
    return out;
  });
  c.srv = w.server().stats();
  return c;
}

/// Workload state that outlives one timed phase.
struct State {
  explicit State(std::uint64_t seed)
      : ports(distinct_ports(derive(seed, kConstraintStream))),
        schedule(derive(seed, kScheduleStream)),
        sample(derive(seed, kSampleStream)) {}

  // query_warm: the oracle reply per session.
  std::vector<core::QueryReply> reference;
  std::uint64_t reference_epoch = 0;
  // query_cold: the constraint sequence and its cursor; sampled replies.
  std::vector<std::uint16_t> ports;
  std::size_t next_port = 0;
  std::vector<ReplayOp> checked;
  // churn_alert: per session, the sentinel's id and the standing properties
  // (sentinel first); the attack schedule.
  std::vector<std::uint64_t> sentinel;
  std::vector<std::vector<core::Property>> standing;
  std::vector<std::uint64_t> last_sequence;
  util::Rng schedule;
  util::Rng sample;
};

/// Measurements of one timed phase.
struct Phase {
  std::vector<double> latency_ms;  ///< per verified operation
  std::vector<double> done_s;      ///< its completion, since the phase began
  std::vector<double> alert_ms;    ///< churn_alert: launch -> alert
  std::vector<double> clear_ms;    ///< churn_alert: revert -> all-clear
  double wall_s = 0;
  std::uint64_t client_crypto = 0;  ///< asymmetric ops on the wire clients
  std::size_t ops() const { return latency_ms.size(); }
};

struct SessionLog {
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  std::vector<ReplayOp> checked;
  std::uint64_t attempted = 0;
  std::vector<std::string> errors;
};

/// One verified query: timing, signature, auth completeness and (warm) the
/// oracle. Returns false on the first failure.
bool timed_query(World& w, State& st, std::size_t s, const core::Property& p,
                 bool keep, Tracer* tracer, std::uint64_t request,
                 Clock::time_point phase_start, SessionLog& log) {
  ++log.attempted;
  const auto t0 = Clock::now();
  net::WireClient::Outcome outcome;
  {
    Scope span(tracer, "query", 0, request);
    outcome = w.client(s).query(p.query(), kTimeoutMs);
  }
  const double ms = ms_since(t0);
  const std::string who = "session " + std::to_string(s) + ": ";
  if (outcome.timed_out || !outcome.reply) {
    log.errors.push_back(who + "query timed out");
    return false;
  }
  if (!outcome.signature_ok) {
    log.errors.push_back(who + "reply signature did not verify");
    return false;
  }
  const core::QueryReply& reply = *outcome.reply;
  if (reply.auth.responded != reply.auth.issued) {
    log.errors.push_back(who + "reply with unanswered auth requests");
    return false;
  }
  if (w.kind() == Kind::QueryWarm && !same_reply(reply, st.reference[s])) {
    log.errors.push_back(who + "reply differs from the cold oracle");
    return false;
  }
  if (keep) log.checked.push_back(ReplayOp{s, p, reply});
  log.latency_ms.push_back(ms);
  log.done_s.push_back(ms_since(phase_start) / 1e3);
  return true;
}

/// The query workloads' timed phase: one closed-loop load thread per
/// session. query_warm runs for --seconds; query_cold issues a fixed number
/// of fresh-constraint queries per session.
Phase query_phase(World& w, State& st, const Options& o, Tracer* tracer,
                  Result& result) {
  const bool cold = w.kind() == Kind::QueryCold;
  const std::size_t per_session =
      static_cast<std::size_t>(kColdQueriesPerSecond) *
      static_cast<std::size_t>(o.seconds);
  std::vector<std::set<std::size_t>> keep(w.sessions());
  const std::size_t base = st.next_port;
  if (cold) {
    for (auto& k : keep) {
      while (k.size() < std::min(kColdChecked, per_session)) {
        k.insert(static_cast<std::size_t>(st.sample.below(per_session)));
      }
    }
    st.next_port += per_session * w.sessions();
  }

  std::vector<SessionLog> logs(w.sessions());
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::seconds(o.seconds);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < w.sessions(); ++s) {
    threads.emplace_back([&, s] {
      for (std::size_t k = 0;
           cold ? k < per_session : Clock::now() < deadline; ++k) {
        const core::Property p =
            cold ? port_property(core::QueryKind::TransferSummary,
                                 st.ports[base + s * per_session + k])
                 : reach_property();
        if (!timed_query(w, st, s, p, cold && keep[s].contains(k), tracer,
                         (s << 32) | k, t0, logs[s])) {
          break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  Phase phase;
  phase.wall_s = ms_since(t0) / 1e3;
  for (SessionLog& log : logs) {
    result.attempted += log.attempted;
    for (auto& e : log.errors) result.fail(std::move(e));
    phase.latency_ms.insert(phase.latency_ms.end(), log.latency_ms.begin(),
                            log.latency_ms.end());
    phase.done_s.insert(phase.done_s.end(), log.done_s.begin(),
                        log.done_s.end());
    for (auto& op : log.checked) st.checked.push_back(std::move(op));
  }
  phase.client_crypto = 3 * phase.ops();  // seal + open + verify
  return phase;
}

/// Waits for one push on session `s` and checks it is the sentinel's, of
/// the expected kind, with an agreeing local verdict and a fresh sequence.
bool expect_push(World& w, State& st, std::size_t s, bool alert,
                 Result& result) {
  const auto event = w.client(s).wait_notification(kTimeoutMs);
  const std::string who = "session " + std::to_string(s) + ": ";
  if (!event) {
    result.fail(who + "no push within the timeout");
    return false;
  }
  if (event->subscription_id != st.sentinel[s]) {
    result.fail(who + "push for a subscription whose verdict did not flip");
    return false;
  }
  const auto want = alert ? core::NotificationKind::ViolationAlert
                          : core::NotificationKind::AllClear;
  if (event->kind != want || event->verdict.ok == alert) {
    result.fail(who + "push kind or local verdict does not match the event");
    return false;
  }
  if (event->sequence <= st.last_sequence[s]) {
    result.fail(who + "push sequence did not increase");
    return false;
  }
  st.last_sequence[s] = event->sequence;
  return true;
}

/// churn_alert's timed phase: one seeded launch/revert pair at a time, each
/// through the provider's channel on the controller thread; the victim
/// session waits for its sentinel's push.
Phase churn_phase(World& w, State& st, const Options& o, Tracer* tracer,
                  Result& result) {
  Phase phase;
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::seconds(o.seconds);
  bool ok = true;
  for (std::uint64_t n = 0; ok && Clock::now() < deadline; ++n) {
    const std::size_t s = st.schedule.below(w.sessions());
    const auto& peers = w.peers(s);
    attacks::ExfiltrationAttack attack(w.host(s), peers[st.schedule.below(
                                                      peers.size())]);
    for (const bool launch : {true, false}) {
      ++result.attempted;
      const auto start = Clock::now();
      bool applied = false;
      {
        Scope span(tracer, launch ? "event.launch" : "event.revert", 0,
                   2 * n + (launch ? 0 : 1));
        applied = w.service().call([&] {
          workload::ScenarioRuntime& rt = w.runtime();
          if (launch) {
            return attack.launch(rt.provider(), rt.network()).has_value();
          }
          const bool landed = attack.installed().size() == 1;
          attack.revert(rt.provider(), rt.network());
          return landed;
        });
        ok = applied && expect_push(w, st, s, launch, result);
      }
      const double ms = ms_since(start);
      if (!applied) result.fail("attack launch or install did not land");
      if (!ok) break;
      phase.latency_ms.push_back(ms);
      phase.done_s.push_back(ms_since(t0) / 1e3);
      (launch ? phase.alert_ms : phase.clear_ms).push_back(ms);
    }
  }
  phase.wall_s = ms_since(t0) / 1e3;
  // Bulk subscriptions and the other sentinel must have stayed silent.
  for (std::size_t s = 0; ok && s < w.sessions(); ++s) {
    if (w.client(s).wait_notification(50)) {
      result.fail("session " + std::to_string(s) + ": unexpected push");
    }
  }
  phase.client_crypto = 2 * phase.ops();  // open + verify
  return phase;
}

Phase timed_phase(World& w, State& st, const Options& o, Tracer* tracer,
                  Result& result) {
  return w.kind() == Kind::ChurnAlert ? churn_phase(w, st, o, tracer, result)
                                      : query_phase(w, st, o, tracer, result);
}

/// Cache warm-up and subscription baselines: everything a session does
/// before the timed phase.
void warm_up(World& w, State& st, Result& result) {
  if (!result.correct()) return;
  switch (w.kind()) {
    case Kind::QueryWarm:
    case Kind::QueryCold:
      for (std::size_t s = 0; s < w.sessions(); ++s) {
        const int n = w.kind() == Kind::QueryWarm ? kWarmupQueries : 1;
        for (int k = 0; k < n; ++k) {
          ++result.attempted;
          const core::Property p =
              w.kind() == Kind::QueryWarm
                  ? reach_property()
                  : port_property(core::QueryKind::TransferSummary,
                                  st.ports[st.next_port++]);
          const auto out = w.client(s).query(p.query(), kTimeoutMs);
          if (!out.reply || !out.signature_ok) {
            result.fail("warm-up query failed");
            return;
          }
        }
      }
      return;
    case Kind::ChurnAlert:
      break;
  }
  st.sentinel.assign(w.sessions(), 0);
  st.last_sequence.assign(w.sessions(), 0);
  st.standing.assign(w.sessions(), {});
  for (std::size_t s = 0; s < w.sessions(); ++s) {
    st.standing[s].push_back(reach_property());
    st.sentinel[s] = w.client(s).subscribe(st.standing[s][0],
                                           core::NotifyPolicy::VerdictEdges);
    for (std::size_t b = 0; b < kBulkSubscriptions; ++b) {
      st.standing[s].push_back(port_property(core::QueryKind::TransferSummary,
                                             st.ports[st.next_port++]));
      w.client(s).subscribe(st.standing[s].back(),
                            core::NotifyPolicy::VerdictEdges);
    }
  }
  for (std::size_t s = 0; s < w.sessions(); ++s) {
    std::set<std::uint64_t> seen;
    for (std::size_t k = 0; k < st.standing[s].size(); ++k) {
      ++result.attempted;
      const auto event = w.client(s).wait_notification(kTimeoutMs);
      if (!event || event->kind != core::NotificationKind::AllClear ||
          !event->verdict.ok || !seen.insert(event->subscription_id).second) {
        result.fail("subscription baseline missing or not all-clear");
        return;
      }
    }
  }
}

/// Checks that hold for every workload at the end of a run.
void final_checks(World& w, State& st, Result& result) {
  const net::WireServer::Stats srv = w.server().stats();
  if (srv.bad_frames + srv.bad_hellos + srv.bad_envelopes != 0) {
    result.fail("server counted bad frames, hellos or envelopes");
  }
  for (std::size_t s = 0; s < w.sessions(); ++s) {
    const auto& cs = w.client(s).stats();
    if (cs.bad_replies + cs.bad_notifications != 0) {
      result.fail("session " + std::to_string(s) +
                  ": bad replies or notifications");
    }
  }
  if (w.kind() == Kind::QueryWarm && w.snapshot_epoch() != st.reference_epoch) {
    result.fail("snapshot changed under the query_warm oracle");
  }
  if (w.kind() == Kind::QueryCold) {
    for (const ReplayOp& op : st.checked) {
      if (!same_reply(op.reply, w.oracle(op.session, op.property))) {
        result.fail("query_cold reply differs from the cold oracle");
      }
    }
  }
}

/// Indices of the ops grouped by the kWindowS window they completed in; only
/// full windows count (one window holding everything when the phase is
/// shorter than a window).
std::vector<std::vector<std::size_t>> windows(const Phase& phase) {
  const auto full = static_cast<std::size_t>(phase.wall_s / kWindowS);
  std::vector<std::vector<std::size_t>> out(std::max<std::size_t>(full, 1));
  for (std::size_t i = 0; i < phase.ops(); ++i) {
    const auto k = static_cast<std::size_t>(phase.done_s[i] / kWindowS);
    if (full == 0 || k < full) out[full == 0 ? 0 : k].push_back(i);
  }
  return out;
}

/// The median over windows of each window's p-th latency percentile.
/// Interference from other tenants of the host (CPU steal) comes in bursts
/// of a few seconds; it then moves a window's figure, not the run's.
double windowed_percentile(const Phase& phase, double p) {
  std::vector<double> per_window;
  for (const auto& w : windows(phase)) {
    std::vector<double> ms;
    for (const std::size_t i : w) ms.push_back(phase.latency_ms[i]);
    if (!ms.empty()) per_window.push_back(percentile(ms, p));
  }
  return median(per_window);
}

/// The median over windows of the verified ops per second, each window's
/// rate taken between its first and last completion.
double windowed_rate(const Phase& phase) {
  std::vector<double> per_window;
  for (const auto& w : windows(phase)) {
    if (w.size() < 2) continue;
    const auto [first, last] = std::minmax_element(
        w.begin(), w.end(), [&phase](std::size_t a, std::size_t b) {
          return phase.done_s[a] < phase.done_s[b];
        });
    const double span = phase.done_s[*last] - phase.done_s[*first];
    if (span > 0) {
      per_window.push_back(static_cast<double>(w.size() - 1) / span);
    }
  }
  return median(per_window);
}

/// Peak resident set of this process. VmHWM belongs to the process's own
/// address space; getrusage's ru_maxrss would also count the parent's
/// resident set at fork time.
double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit, std::size_t samples) {
  out.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

/// Set-up: world, settle, server, sessions + attestation, warm-up and
/// subscription baselines. Returns seconds.
double set_up(std::unique_ptr<World>& world, State& st, Kind kind,
              const Options& o, Result& result) {
  world.reset();
  st = State(o.seed);
  const auto t0 = Clock::now();
  world = std::make_unique<World>(kind, o.seed, result);
  warm_up(*world, st, result);
  const double seconds = ms_since(t0) / 1e3;
  if (kind == Kind::QueryWarm && result.correct()) {
    for (std::size_t s = 0; s < world->sessions(); ++s) {
      st.reference.push_back(world->oracle(s, reach_property()));
    }
    st.reference_epoch = world->snapshot_epoch();
  }
  return seconds;
}

Result run_untraced(Kind kind, const Options& o) {
  Result result;
  std::unique_ptr<World> world;
  State st(o.seed);
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups && result.correct(); ++k) {
    setup_s.push_back(set_up(world, st, kind, o, result));
  }
  if (!result.correct()) return result;

  const Phase phase = timed_phase(*world, st, o, nullptr, result);
  final_checks(*world, st, result);
  world->stop();

  const std::size_t n = phase.ops();
  add(result.metrics, "setup_s", median(setup_s), "s", setup_s.size());
  add(result.metrics, "rss_mb", rss_mb(), "MB", 1);
  add(result.metrics, "p50_ms", windowed_percentile(phase, 50), "ms", n);
  add(result.metrics, "p90_ms", windowed_percentile(phase, 90), "ms", n);
  add(result.metrics, "ops_per_s", windowed_rate(phase), "1/s", n);
  add(result.diagnostics, "overall_p50_ms", percentile(phase.latency_ms, 50),
      "ms", n);
  add(result.diagnostics, "overall_p90_ms", percentile(phase.latency_ms, 90),
      "ms", n);
  add(result.diagnostics, "p99_ms", percentile(phase.latency_ms, 99), "ms", n);
  add(result.diagnostics, "overall_ops_per_s",
      phase.wall_s > 0 ? static_cast<double>(n) / phase.wall_s : 0, "1/s", n);
  add(result.diagnostics, "phase_s", phase.wall_s, "s", 1);
  if (kind == Kind::ChurnAlert) {
    add(result.diagnostics, "alert_p50_ms", percentile(phase.alert_ms, 50),
        "ms", phase.alert_ms.size());
    add(result.diagnostics, "alert_p90_ms", percentile(phase.alert_ms, 90),
        "ms", phase.alert_ms.size());
    add(result.diagnostics, "clear_p50_ms", percentile(phase.clear_ms, 50),
        "ms", phase.clear_ms.size());
    add(result.diagnostics, "clear_p90_ms", percentile(phase.clear_ms, 90),
        "ms", phase.clear_ms.size());
  }
  return result;
}

/// Posts a timestamped no-op to the service at a fixed cadence and records
/// how long each waited for the controller thread.
class QueueProbe {
 public:
  QueueProbe(net::WireService& service, Tracer& tracer)
      : service_(service), tracer_(tracer), thread_([this] { run(); }) {}
  ~QueueProbe() { finish(); }
  QueueProbe(const QueueProbe&) = delete;
  QueueProbe& operator=(const QueueProbe&) = delete;

  /// Stops posting, waits until every posted probe ran, returns the waits.
  std::vector<double> finish() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
      service_.call([] { return 0; });  // FIFO: all earlier probes ran
    }
    std::lock_guard<std::mutex> lock(mu_);
    return waits_us_;
  }

 private:
  void run() {
    for (std::uint64_t n = 0; !stop_; ++n) {
      const auto posted = Clock::now();
      const std::uint32_t span = tracer_.open("service.wait", 0, n);
      service_.post([this, posted, span] {
        tracer_.close(span);
        const double us = ms_since(posted) * 1e3;
        std::lock_guard<std::mutex> lock(mu_);
        waits_us_.push_back(us);
      });
      std::this_thread::sleep_until(posted + kProbeEvery);
    }
  }

  net::WireService& service_;
  Tracer& tracer_;
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::vector<double> waits_us_;
  std::thread thread_;
};

/// Counter deltas over the traced phase.
struct Delta {
  double crypto_ops = 0, auth_sent = 0, auth_ok = 0;
  double frames = 0, frames_out = 0, bytes = 0, flushes = 0;
  double switch_hits = 0, recompiles = 0, l2_hits = 0, l2_lookups = 0,
         evicted = 0;
  double wakeups = 0, skipped = 0, pushes = 0;
};

Delta delta(const Counters& a, const Counters& b) {
  const auto d = [](std::uint64_t before, std::uint64_t after) {
    return static_cast<double>(after - before);
  };
  Delta out;
  out.crypto_ops = d(a.ctl.crypto_ops, b.ctl.crypto_ops);
  out.auth_sent = d(a.ctl.auth_requests_sent, b.ctl.auth_requests_sent);
  out.auth_ok = d(a.ctl.auth_replies_ok, b.ctl.auth_replies_ok);
  out.frames = d(a.srv.frames_in + a.srv.frames_out,
                 b.srv.frames_in + b.srv.frames_out);
  out.frames_out = d(a.srv.frames_out, b.srv.frames_out);
  out.bytes = d(a.srv.bytes_in + a.srv.bytes_out,
                b.srv.bytes_in + b.srv.bytes_out);
  out.flushes = d(a.srv.flushes, b.srv.flushes);
  out.switch_hits = d(a.l1.switch_hits, b.l1.switch_hits);
  out.recompiles = d(a.l1.switch_recompiles, b.l1.switch_recompiles);
  out.l2_hits = d(a.l2.hits, b.l2.hits);
  out.l2_lookups = d(a.l2.lookups, b.l2.lookups);
  out.evicted = d(a.l2.entries_invalidated, b.l2.entries_invalidated);
  out.wakeups = d(a.mon.wakeups, b.mon.wakeups);
  out.skipped = d(a.mon.skipped, b.mon.skipped);
  out.pushes = d(a.mon.alerts + a.mon.all_clears,
                 b.mon.alerts + b.mon.all_clears);
  return out;
}

double ratio(double num, double den, double if_empty) {
  return den > 0 ? num / den : if_empty;
}

Result run_traced(Kind kind, const Options& o) {
  Result result;
  std::unique_ptr<World> world;
  State st(o.seed);
  set_up(world, st, kind, o, result);
  if (!result.correct()) return result;
  World& w = *world;

  // The untraced and the traced phase split --seconds between them, so a
  // traced run lasts about as long as an untraced one.
  Options half = o;
  half.seconds = std::max(1, o.seconds / 2);
  const Phase base = timed_phase(w, st, half, nullptr, result);
  const Counters c0 = read_counters(w);
  Tracer tracer;
  std::vector<double> waits_us;
  Phase traced;
  if (result.correct()) {
    QueueProbe probe(w.service(), tracer);
    traced = timed_phase(w, st, half, &tracer, result);
    waits_us = probe.finish();
  }
  const Counters c1 = read_counters(w);
  final_checks(w, st, result);
  if (!result.correct()) return result;
  w.stop();

  ReplayInput in;
  in.controller = &w.controller();
  in.topo = &w.runtime().network().topology();
  in.addressing = &w.runtime().addressing();
  in.hosts = w.hosts();
  util::Rng pick(derive(o.seed, kReplayStream));
  for (std::size_t s = 0; s < w.sessions(); ++s) {
    in.aps.push_back(w.access_point(s));
    in.peers.push_back(w.peers(s)[pick.below(w.peers(s).size())]);
  }
  in.seed = derive(o.seed, kReplayStream + 1);
  switch (kind) {
    case Kind::QueryWarm:
      in.l2_hits = true;
      in.events = kReplayProbeEvents;
      for (std::size_t k = 0; k < kReplayOps; ++k) {
        const std::size_t s = k % w.sessions();
        in.ops.push_back(ReplayOp{s, reach_property(), st.reference[s]});
      }
      for (std::size_t s = 0; s < w.sessions(); ++s) {
        in.standing.push_back({reach_property()});
      }
      break;
    case Kind::QueryCold:
      in.events = kReplayProbeEvents;
      in.standing.assign(w.sessions(), {});
      for (const ReplayOp& op : st.checked) {
        if (in.ops.size() == kReplayOps) break;
        in.ops.push_back(op);
        in.standing[op.session].push_back(op.property);
      }
      break;
    case Kind::ChurnAlert:
      in.churn = true;
      in.events = kReplayOps;
      in.standing = st.standing;
      break;
  }
  replay(in, tracer);
  if (!o.spans_path.empty() && !tracer.write_jsonl(o.spans_path)) {
    result.errors.push_back("could not write spans to " + o.spans_path);
  }

  // --- per-layer metrics ---
  const Delta dc = delta(c0, c1);
  const double ops = static_cast<double>(traced.ops());
  const std::size_t n = traced.ops();
  const auto self = tracer.self_us();
  std::vector<Metric>& m = result.metrics;
  const auto add_self = [&](const char* span, const char* metric) {
    const auto it = self.find(span);
    const std::vector<double> none;
    const auto& us = it == self.end() ? none : it->second;
    add(m, metric, median(us), "us", us.size());
  };
  const auto add_duration = [&](const char* span, const char* metric,
                                double scale, const char* unit) {
    const auto us = tracer.durations_us(span);
    add(m, metric, median(us) * scale, unit, us.size());
  };
  add_self("crypto.sign", "crypto.sign_us");
  add_self("crypto.verify", "crypto.verify_us");
  add_self("crypto.seal", "crypto.seal_us");
  add_self("crypto.open", "crypto.open_us");
  // In-process responders verify the request and sign the reply.
  add(m, "crypto.ops_per_op",
      ratio(dc.crypto_ops + static_cast<double>(traced.client_crypto) +
                2 * dc.auth_ok,
            ops, 0),
      "count", n);
  add_self("net.encode", "net.encode_us");
  add_self("net.decode", "net.decode_us");
  add(m, "net.frames_per_op", ratio(dc.frames, ops, 0), "count", n);
  add(m, "net.bytes_per_op", ratio(dc.bytes, ops, 0), "B", n);
  add(m, "net.frames_per_flush", ratio(dc.frames_out, dc.flushes, 0), "count",
      n);
  add(m, "service.wait_p50_us", percentile(waits_us, 50), "us",
      waits_us.size());
  add(m, "service.wait_p90_us", percentile(waits_us, 90), "us",
      waits_us.size());
  add(m, "auth.targets_per_op", ratio(dc.auth_sent, ops, 0), "count", n);
  add(m, "auth.answered_ratio", ratio(dc.auth_ok, dc.auth_sent, 1), "1",
      static_cast<std::size_t>(dc.auth_sent));
  add_duration("auth.target", "auth.target_us", 1, "us");
  add_duration("l1.model_clean", "l1.model_clean_us", 1, "us");
  add_duration("l1.model_dirty", "l1.model_dirty_us", 1, "us");
  add(m, "l1.switch_hit_rate",
      ratio(dc.switch_hits, dc.switch_hits + dc.recompiles, 1), "1", n);
  add(m, "l1.recompiles_per_op", ratio(dc.recompiles, ops, 0), "count", n);
  add(m, "l2.hit_rate", ratio(dc.l2_hits, dc.l2_lookups, 0), "1", n);
  add(m, "l2.evicted_per_op", ratio(dc.evicted, ops, 0), "count", n);
  add_self("hsa.evaluate", "hsa.evaluate_us");
  add_self("hsa.reach", "hsa.reach_us");
  add(m, "monitor.wakeups_per_op", ratio(dc.wakeups, ops, 0), "count", n);
  add(m, "monitor.skipped_per_op", ratio(dc.skipped, ops, 0), "count", n);
  add(m, "monitor.pushes_per_op", ratio(dc.pushes, ops, 0), "count", n);
  add_duration("monitor.reeval", "monitor.reeval_ms_per_op", 1e-3, "ms");

  // Attribution: each replayed path's layer self times, summed, against the
  // live traced median.
  std::map<std::string, double> layer_total;
  std::vector<double> path_ms;
  for (const auto& [root, layers] : tracer.layer_us_by_root("path")) {
    double total = 0;
    for (const auto& [layer, us] : layers) {
      layer_total[layer] += us;
      total += us;
    }
    path_ms.push_back(total / 1e3);
  }
  const double live_ms = median(traced.latency_ms);
  add(m, "trace.unattributed_ms", live_ms - median(path_ms), "ms",
      path_ms.size());
  add(m, "trace.overhead_pct",
      (live_ms / median(base.latency_ms) - 1.0) * 100.0, "%", n);

  add(result.diagnostics, "untraced_p50_ms", median(base.latency_ms), "ms",
      base.ops());
  add(result.diagnostics, "traced_p50_ms", live_ms, "ms", n);
  add(result.diagnostics, "replayed_path_ms", median(path_ms), "ms",
      path_ms.size());
  std::string largest;
  double largest_ms = -1;
  for (const auto& [layer, us] : layer_total) {
    const double per_path = us / 1e3 / static_cast<double>(path_ms.size());
    add(result.diagnostics, "stage." + layer + "_ms", per_path, "ms",
        path_ms.size());
    if (per_path > largest_ms) {
      largest_ms = per_path;
      largest = layer;
    }
  }
  std::printf("largest traced stage on the blocking path: %s (%.3f ms)\n",
              largest.c_str(), largest_ms);
  return result;
}

}  // namespace

std::size_t session_count(const std::string& workload) {
  return session_hosts(kind_of(workload)).size();
}

Result run_workload(const Options& options) {
  const Kind kind = kind_of(options.workload);
  return options.trace ? run_traced(kind, options)
                       : run_untraced(kind, options);
}

}  // namespace perfbench
