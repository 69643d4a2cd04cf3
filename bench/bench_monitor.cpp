// Push vs pull continuous verification on the 50-switch provider-routed
// grid: a population of clients each holds one standing Property
// subscription (traffic to a fixed peer, the paper's per-client flow model),
// and a compromised provider repeatedly injects / removes an exfiltration
// rule at one switch (single-switch churn, the steady state of the paper's
// monitoring loop).
//
//   push  — churn-triggered monitor: a flow-update wakes only subscriptions
//           whose dependency footprint covers the churned switch; the
//           affected client receives a signed ViolationAlert.
//   pull  — re-query-all baseline: no subscriptions; every client re-sends
//           its sealed one-shot query each poll interval (50 ms) and
//           discovers the violation on its next poll.
//
// Reported: median/mean time-to-alert (simulated time from rule injection
// to the victim holding a verified violation verdict) and wakeups-per-churn
// (re-evaluations the monitor ran vs the subscription population). Full
// mode enforces the >= 5x median time-to-alert gate.
//
// A second, engine-level scaling mode grows a synthetic registry to 100k,
// 300k and 1M subscriptions (2k/5k/10k in smoke) around a fixed set of 64
// churn-affected sentinels and measures wall-clock time-to-alert for
// single-switch churn: with the inverted footprint index the monitor wakes
// O(affected) regardless of registry size, so the gate is median(1M) <= 2x
// median(100k). The retired linear scan is timed alongside as the O(subs)
// contrast.
//
// Flags: --smoke (tiny topology, 2 cycles)   --json FILE (machine output)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <set>

#include "rvaas/monitor.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;

namespace {

constexpr sdn::ControllerId kProviderId{1};
constexpr sim::Time kPollInterval = 50 * sim::kMillisecond;

struct Setup {
  std::unique_ptr<workload::ScenarioRuntime> runtime;
  std::vector<sdn::HostId> clients;          ///< subscribing / polling hosts
  std::vector<core::Property> properties;    ///< one per client
  sdn::HostId victim{};
  sdn::HostId victim_peer{};
};

Setup make_setup(bool smoke) {
  workload::ScenarioConfig config;
  config.generated = smoke ? workload::grid(2, 2)    // 4 switches
                           : workload::grid(10, 5);  // 50 switches
  config.seed = 77;
  Setup setup;
  setup.runtime =
      std::make_unique<workload::ScenarioRuntime>(std::move(config));
  setup.runtime->settle();

  // Client population: every host (smoke) / a 16-host sample (full), each
  // verifying its flow to a fixed peer — small per-subscription footprints,
  // so single-switch churn touches few of them.
  const auto& hosts = setup.runtime->hosts();
  const std::size_t population = smoke ? hosts.size() : 16;
  for (std::size_t i = 0; i < population; ++i) {
    const sdn::HostId client = hosts[i];
    const sdn::HostId peer = hosts[(i + 7) % hosts.size()];
    core::Property property;
    property.kind = core::QueryKind::ReachableEndpoints;
    property.constraint = sdn::Match().exact(
        sdn::Field::IpDst, setup.runtime->addressing().of(peer).ip);
    setup.clients.push_back(client);
    setup.properties.push_back(std::move(property));
    if (i == 0) {
      setup.victim = client;
      setup.victim_peer = peer;
    }
  }
  return setup;
}

/// Runs the loop until `cond` holds (checked every 0.2 ms of simulated
/// time); false if `deadline` passes first.
template <class Cond>
bool run_until(workload::ScenarioRuntime& runtime, sim::Time deadline,
               Cond&& cond) {
  while (!cond()) {
    if (runtime.loop().now() >= deadline) return false;
    runtime.loop().run_until(runtime.loop().now() + 200 * sim::kMicrosecond);
  }
  return true;
}

/// Removes the exfiltration rule (cookie 0xe4f1) wherever it landed.
std::size_t remove_attack_rules(workload::ScenarioRuntime& runtime) {
  std::size_t removed = 0;
  for (const sdn::SwitchId sw : runtime.network().topology().switches()) {
    for (const auto& entry : runtime.rvaas().snapshot().table(sw)) {
      if (entry.cookie != 0xe4f1) continue;
      sdn::FlowMod mod;
      mod.command = sdn::FlowModCommand::Delete;
      mod.target = entry.id;
      if (runtime.network().switch_sim(sw).apply_flow_mod(kProviderId, mod)
              .ok()) {
        ++removed;
      }
    }
  }
  return removed;
}

struct TrialResult {
  util::Samples alert_ms;  ///< per-cycle time-to-alert, simulated ms
  std::uint64_t cycles_detected = 0;
};

/// Push trial: subscriptions registered once; each cycle injects the attack
/// at a randomized phase and waits for the victim's ViolationAlert.
TrialResult run_push_trial(Setup& setup, int cycles, util::Rng& rng) {
  workload::ScenarioRuntime& runtime = *setup.runtime;
  std::optional<bool> victim_ok;  // latest pushed verdict at the victim
  sim::Time alert_at = 0;

  for (std::size_t i = 0; i < setup.clients.size(); ++i) {
    const bool is_victim = setup.clients[i] == setup.victim;
    runtime.client(setup.clients[i])
        .subscribe(setup.properties[i],
                   [&victim_ok, &alert_at, is_victim,
                    &runtime](const core::ClientAgent::MonitorEvent& event) {
                     if (!is_victim) return;
                     victim_ok = event.verdict.ok;
                     if (!event.verdict.ok) alert_at = runtime.loop().now();
                   });
  }
  // Baseline notifications for the whole population.
  runtime.settle(30 * sim::kMillisecond);

  TrialResult result;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    // Random phase within a poll period, so push and pull face the same
    // attack schedule distribution.
    runtime.settle(rng.below(kPollInterval));

    attacks::ExfiltrationAttack attack(setup.victim, setup.victim_peer);
    const auto record = attack.launch(runtime.provider(), runtime.network());
    if (!record) {
      std::fprintf(stderr, "FATAL: exfiltration attack failed to launch\n");
      std::exit(1);
    }
    const sim::Time injected_at = runtime.loop().now();
    const bool detected =
        run_until(runtime, injected_at + 2000 * sim::kMillisecond,
                  [&] { return victim_ok.has_value() && !*victim_ok; });
    if (detected) {
      ++result.cycles_detected;
      result.alert_ms.add(sim::to_ms(alert_at - injected_at));
    }

    remove_attack_rules(runtime);
    run_until(runtime, runtime.loop().now() + 2000 * sim::kMillisecond,
              [&] { return victim_ok.has_value() && *victim_ok; });
  }
  return result;
}

/// Pull baseline: every client re-sends its sealed query each poll
/// interval; detection is the victim's first violating verdict.
TrialResult run_pull_trial(Setup& setup, int cycles, util::Rng& rng) {
  workload::ScenarioRuntime& runtime = *setup.runtime;
  bool victim_violated = false;
  sim::Time detected_at = 0;

  // Self-rescheduling pollers, one per client (the re-query-all model).
  // The function object owns itself via shared_ptr so a reschedule firing
  // after this frame unwinds never touches a dead local.
  auto active = std::make_shared<bool>(true);
  auto poll = std::make_shared<std::function<void(std::size_t)>>();
  *poll = [&, active, poll](std::size_t i) {
    if (!*active) return;
    const bool is_victim = setup.clients[i] == setup.victim;
    runtime.client(setup.clients[i])
        .send_query(setup.properties[i].query(),
                    [&, is_victim](const core::ClientAgent::Outcome& outcome) {
                      if (!is_victim || !outcome.reply) return;
                      const core::Verdict verdict = core::evaluate_reply(
                          *outcome.reply, setup.properties[0].expect);
                      victim_violated = !verdict.ok;
                      if (!verdict.ok) detected_at = runtime.loop().now();
                    });
    runtime.loop().schedule_after(kPollInterval, [poll, i, active] {
      if (*active) (*poll)(i);
    });
  };
  for (std::size_t i = 0; i < setup.clients.size(); ++i) (*poll)(i);

  TrialResult result;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    runtime.settle(rng.below(kPollInterval));

    attacks::ExfiltrationAttack attack(setup.victim, setup.victim_peer);
    if (!attack.launch(runtime.provider(), runtime.network())) {
      std::fprintf(stderr, "FATAL: exfiltration attack failed to launch\n");
      std::exit(1);
    }
    const sim::Time injected_at = runtime.loop().now();
    victim_violated = false;
    const bool detected =
        run_until(runtime, injected_at + 2000 * sim::kMillisecond,
                  [&] { return victim_violated; });
    if (detected) {
      ++result.cycles_detected;
      result.alert_ms.add(sim::to_ms(detected_at - injected_at));
    }

    remove_attack_rules(runtime);
    // Let the next clean poll land before the next cycle.
    runtime.settle(kPollInterval + 10 * sim::kMillisecond);
  }
  *active = false;
  return result;
}

// --- engine-level scaling mode -------------------------------------------

double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// One ladder rung: a fresh monitor over a copied snapshot, `total`
/// subscriptions of which exactly `sentinels` have the churn switch in
/// their footprint. Background subscriptions enter pre-evaluated with
/// synthetic footprints that avoid the churn switch — their content never
/// matters, they exist to give the index (and the linear reference) a
/// registry worth scanning.
struct ScalingRung {
  double warmup_linear_ms = 0;  ///< first sweep = the O(subs) fallback scan
  util::Samples alert_ms;       ///< apply churn + sweep, wall clock
  util::Samples index_select_us;
  util::Samples linear_select_us;
  bool wakeups_exact = true;  ///< every cycle woke exactly the sentinels
};

ScalingRung run_scaling_rung(Setup& setup, core::QueryEngine& engine,
                             std::size_t total, std::size_t sentinels,
                             int cycles, std::uint64_t seed) {
  workload::ScenarioRuntime& runtime = *setup.runtime;
  const sdn::Topology& topo = runtime.network().topology();
  core::SnapshotManager snap = runtime.rvaas().snapshot();  // fresh identity
  core::PropertyMonitor monitor(engine);
  core::DisclosedGeo geo(topo);
  core::QueryEngine::EvalContext ctx;
  ctx.geo = &geo;
  ctx.addressing = &runtime.addressing();

  const auto& hosts = runtime.hosts();
  const sdn::HostId sentinel_client = hosts.back();
  const sdn::PortRef sentinel_ap = topo.host_ports(sentinel_client).front();
  const sdn::SwitchId churn_sw = sentinel_ap.sw;
  std::vector<sdn::SwitchId> others;
  for (const sdn::SwitchId sw : topo.switches()) {
    if (sw != churn_sw) others.push_back(sw);
  }

  // Background registry: pre-evaluated at the current epoch, synthetic
  // footprints off the churn switch, so single-switch churn never selects
  // them — by either selection path.
  util::Rng rng(seed);
  const std::uint64_t epoch0 = snap.epoch();
  for (std::size_t i = 0; i < total - sentinels; ++i) {
    core::PropertyMonitor::Subscription sub;
    sub.id = 1 + i;
    sub.client = hosts[i % hosts.size()];
    sub.request_point = topo.host_ports(sub.client).front();
    sub.property.kind = core::QueryKind::ReachableEndpoints;
    sub.evaluated = true;
    sub.evaluated_epoch = epoch0;
    std::set<sdn::SwitchId> fp;
    const std::size_t len = std::min<std::size_t>(
        others.size(), 3 + static_cast<std::size_t>(rng.below(4)));
    while (fp.size() < len) fp.insert(others[rng.below(others.size())]);
    sub.footprint.assign(fp.begin(), fp.end());
    monitor.subscribe(std::move(sub));
  }
  // Sentinels: real properties anchored at the churn switch (their ingress),
  // so every re-evaluation keeps the churn switch in their footprint.
  for (std::size_t j = 0; j < sentinels; ++j) {
    core::PropertyMonitor::Subscription sub;
    sub.id = 10'000'000 + j;
    sub.client = sentinel_client;
    sub.request_point = sentinel_ap;
    sub.property.kind = core::QueryKind::ReachableEndpoints;
    sub.property.constraint = sdn::Match().exact(
        sdn::Field::IpDst,
        runtime.addressing().of(hosts[(1 + 7 * j) % hosts.size()]).ip);
    monitor.subscribe(std::move(sub));
  }

  ScalingRung rung;

  // Warmup sweep: no index anchors yet, so this is the retired O(subs)
  // linear scan over the full registry — kept as the baseline contrast —
  // and it runs the sentinels' baseline evaluations.
  const auto w0 = std::chrono::steady_clock::now();
  const auto baseline = monitor.sweep(snap, ctx);
  rung.warmup_linear_ms = elapsed_ms(w0, std::chrono::steady_clock::now());
  if (baseline.size() != sentinels) rung.wakeups_exact = false;

  // Steady state: alternately add / remove one rule at the churn switch;
  // each cycle's time-to-alert is the wall clock from applying the update
  // to holding the re-evaluated wakeups.
  std::optional<sdn::FlowEntry> installed;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    sdn::FlowUpdate update;
    update.sw = churn_sw;
    if (installed) {
      update.kind = sdn::FlowUpdateKind::Removed;
      update.entry = *installed;
      installed.reset();
    } else {
      sdn::FlowEntry e;
      e.id = sdn::FlowEntryId(9'000'000 + static_cast<std::uint64_t>(cycle));
      e.priority = 2;
      e.match = sdn::Match().exact(sdn::Field::L4Dst, 9900);
      e.actions = {sdn::drop()};
      update.kind = sdn::FlowUpdateKind::Added;
      update.entry = e;
      installed = e;
    }

    const auto t0 = std::chrono::steady_clock::now();
    snap.apply_update(update, 0);
    const auto t1 = std::chrono::steady_clock::now();

    // Selection contrast, outside the alert window (both are pure).
    const auto i0 = std::chrono::steady_clock::now();
    const auto indexed = monitor.indexed_wakeups(snap);
    const auto i1 = std::chrono::steady_clock::now();
    const auto linear = monitor.linear_wakeups(snap);
    const auto i2 = std::chrono::steady_clock::now();
    rung.index_select_us.add(elapsed_ms(i0, i1) * 1000.0);
    rung.linear_select_us.add(elapsed_ms(i1, i2) * 1000.0);
    if (indexed != linear) rung.wakeups_exact = false;

    const auto s0 = std::chrono::steady_clock::now();
    const auto wakeups = monitor.sweep(snap, ctx);
    const auto s1 = std::chrono::steady_clock::now();
    rung.alert_ms.add(elapsed_ms(t0, t1) + elapsed_ms(s0, s1));
    if (wakeups.size() != sentinels) rung.wakeups_exact = false;
  }
  return rung;
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  const int cycles = args.smoke ? 2 : 10;

  std::puts("push (churn-triggered monitor) vs pull (re-query-all each 50 ms)");
  std::puts("time-to-alert for an exfiltration rule injected at one switch,");
  std::puts("randomized phase, provider-routed grid.\n");

  // Separate runtimes so the pull baseline carries no monitor state.
  util::Rng rng(2016);
  Setup push_setup = make_setup(args.smoke);
  const TrialResult push = run_push_trial(push_setup, cycles, rng);
  const auto monitor_stats = push_setup.runtime->rvaas().monitor().stats();
  const auto rvaas_stats = push_setup.runtime->rvaas().stats();

  util::Rng pull_rng(2016);
  Setup pull_setup = make_setup(args.smoke);
  const TrialResult pull = run_pull_trial(pull_setup, cycles, pull_rng);

  util::Table latency({"mode", "cycles-detected", "median-ms", "mean-ms",
                       "p90-ms"});
  const auto add_latency = [&latency, cycles](const char* mode,
                                              const TrialResult& r) {
    latency.add_row({mode,
                     std::to_string(r.cycles_detected) + "/" +
                         std::to_string(cycles),
                     util::Table::fmt(r.alert_ms.median(), 3),
                     util::Table::fmt(r.alert_ms.mean(), 3),
                     util::Table::fmt(r.alert_ms.percentile(90.0), 3)});
  };
  add_latency("push-monitor", push);
  add_latency("pull-requery-all", pull);
  latency.print();

  // Wakeup economics: re-evaluations actually run vs what re-query-all
  // would have evaluated (population x churn events).
  const std::uint64_t subs = push_setup.clients.size();
  const std::uint64_t churn_sweeps = rvaas_stats.monitor_sweeps;
  const double wakeups_per_sweep =
      churn_sweeps == 0
          ? 0.0
          : static_cast<double>(monitor_stats.wakeups) /
                static_cast<double>(churn_sweeps);
  util::Table wakeups({"subscriptions", "sweeps", "wakeups",
                       "wakeups-per-sweep", "skipped", "alerts",
                       "all-clears"});
  wakeups.add_row({std::to_string(subs), std::to_string(churn_sweeps),
                   std::to_string(monitor_stats.wakeups),
                   util::Table::fmt(wakeups_per_sweep, 2),
                   std::to_string(monitor_stats.skipped),
                   std::to_string(monitor_stats.alerts),
                   std::to_string(monitor_stats.all_clears)});
  std::puts("\nmonitor wakeup economics over the push trial (a sweep is one");
  std::puts("coalesced churn event; re-query-all would evaluate every");
  std::puts("subscription every poll interval regardless):");
  wakeups.print();

  const double speedup = push.alert_ms.median() > 0
                             ? pull.alert_ms.median() / push.alert_ms.median()
                             : 0.0;
  std::printf("\nmedian time-to-alert: push %.3f ms vs pull %.3f ms -> %.1fx "
              "(target >= 5x)\n",
              push.alert_ms.median(), pull.alert_ms.median(), speedup);

  bool ok = push.cycles_detected == static_cast<std::uint64_t>(cycles) &&
            pull.cycles_detected == static_cast<std::uint64_t>(cycles);
  if (!ok) std::puts("FAIL: some attack cycles went undetected");

  // --- registry scaling: O(affected) wakeups under single-switch churn ---
  const std::vector<std::size_t> ladder =
      args.smoke ? std::vector<std::size_t>{2000, 5000, 10000}
                 : std::vector<std::size_t>{100000, 300000, 1000000};
  const int scaling_cycles = args.smoke ? 3 : 9;
  const std::size_t sentinels = 64;

  std::puts("\nregistry scaling: synthetic subscriptions around 64 sentinels");
  std::puts("whose footprint covers the churned switch; time-to-alert is");
  std::puts("apply-update + sweep, wall clock; warmup-linear-ms is the");
  std::puts("retired O(subs) scan the index replaces:");
  core::QueryEngine scaling_engine(
      push_setup.runtime->network().topology(), core::EngineConfig{});
  util::Table scaling({"subscriptions", "affected", "warmup-linear-ms",
                       "median-alert-ms", "p90-alert-ms", "index-select-us",
                       "linear-select-us"});
  double first_median = 0.0, last_median = 0.0;
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    const std::size_t total = ladder[r];
    const ScalingRung rung = run_scaling_rung(
        push_setup, scaling_engine, total, sentinels, scaling_cycles,
        2016 + r);
    scaling.add_row({std::to_string(total), std::to_string(sentinels),
                     util::Table::fmt(rung.warmup_linear_ms, 3),
                     util::Table::fmt(rung.alert_ms.median(), 3),
                     util::Table::fmt(rung.alert_ms.percentile(90.0), 3),
                     util::Table::fmt(rung.index_select_us.median(), 1),
                     util::Table::fmt(rung.linear_select_us.median(), 1)});
    if (!rung.wakeups_exact) {
      std::printf("FAIL: rung %zu woke a wrong subscription set (expected "
                  "exactly the %zu sentinels, index == linear)\n",
                  total, sentinels);
      ok = false;
    }
    if (r == 0) first_median = rung.alert_ms.median();
    last_median = rung.alert_ms.median();
  }
  scaling.print();

  // The tentpole gate: single-switch churn wakes O(affected), so
  // time-to-alert must stay flat as the registry grows 10x.
  if (!args.smoke && first_median > 0.0 && last_median > 2.0 * first_median) {
    std::printf("FAIL: time-to-alert not flat across the ladder (%.3f ms at "
                "%zu subs vs %.3f ms at %zu; gate is 2x)\n",
                last_median, ladder.back(), first_median, ladder.front());
    ok = false;
  }

  if (!args.json.empty()) {
    if (!util::write_json_tables(args.json, {{"latency", &latency},
                                             {"wakeups", &wakeups},
                                             {"scaling", &scaling}})) {
      return 1;
    }
    std::printf("JSON written to %s\n", args.json.c_str());
  }

  if (!args.smoke && speedup < 5.0) {
    std::puts("FAIL: push median time-to-alert advantage below 5x");
    ok = false;
  }
  // Wakeup proportionality: churn touches one switch, so the monitor must
  // wake far fewer subscriptions than the population per sweep.
  if (!args.smoke && wakeups_per_sweep > static_cast<double>(subs) / 2.0) {
    std::puts("FAIL: wakeups not confined (per-sweep average > half the "
              "population)");
    ok = false;
  }
  return ok ? 0 : 1;
}
