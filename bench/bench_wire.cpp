// Wire front-end load generator: hundreds of concurrent loopback TCP
// sessions against the epoll server (src/net), mixing one-shot queries,
// standing subscriptions and churn-triggered push fan-out.
//
// Per (connections, io-threads) rung:
//   connect  — C sessions (HELLO/WELCOME + attestation verification) from a
//              pool of worker threads,
//   query    — each session loops mixed one-shot queries (geo / transfer /
//              reachable-endpoints every 8th, the latter paying the in-band
//              auth round); reported as q/s with p50/p99 latency,
//   push     — every session holds an EveryChange subscription; a single
//              full-drop rule at the middle switch partitions the fabric, so
//              one coalesced sweep re-evaluates every subscription and pushes
//              a signed alert down every socket (fan-out throughput),
//   teardown — orderly disconnect; the bench fails on any server-side bad
//              frame/envelope or missed push.
//
// The io-thread scaling rungs (full mode, >= 4 hardware threads only: the
// envelope crypto is what parallelizes, which a 1-core host cannot show)
// re-run the query phase at the same C with more I/O threads and require
// throughput to improve.
//
// Flags: --smoke (8 connections, 1 rung, CI gate)   --json FILE

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "net/server.hpp"
#include "net/client.hpp"
#include "util/stats.hpp"
#include "workload/wire_world.hpp"

using namespace rvaas;

namespace {

constexpr sdn::ControllerId kProviderId{1};

using Clock = std::chrono::steady_clock;

double elapsed_s(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

struct World {
  std::unique_ptr<workload::ScenarioRuntime> runtime;
  std::unique_ptr<net::WireService> service;
  std::unique_ptr<net::WireServer> server;
  std::vector<sdn::HostId> wire_hosts;
};

World make_world(std::size_t connections, std::size_t io_threads) {
  workload::ScenarioConfig config;
  // Host-dense line: enough hosts for C wire sessions plus as many
  // in-process agents; 4-host tenants bound the per-query auth fan-out, so
  // per-query cost stays flat as C grows.
  const std::uint32_t per_switch =
      static_cast<std::uint32_t>((2 * connections + 3) / 4);
  config.generated = workload::linear_fanout(4, std::max(2u, per_switch));
  config.tenant_count = std::max<std::size_t>(1, connections / 2);
  config.seed = 2016;
  config.rvaas.auth_timeout = 2 * sim::kMillisecond;
  const auto& hosts = config.generated.hosts;
  World world;
  world.wire_hosts.assign(hosts.end() - connections, hosts.end());
  config.wire_hosts = world.wire_hosts;
  world.runtime =
      std::make_unique<workload::ScenarioRuntime>(std::move(config));
  world.runtime->settle(50 * sim::kMillisecond);

  world.service = std::make_unique<net::WireService>(world.runtime->loop());
  net::WireServerConfig server_config;
  server_config.io_threads = io_threads;
  world.server = std::make_unique<net::WireServer>(
      server_config, world.runtime->rvaas(), *world.service,
      world.runtime->ias().root_key(),
      workload::wire_slots(*world.runtime, world.wire_hosts), 0x3157);
  world.service->start();
  world.server->start();
  return world;
}

/// Runs `fn(client_index)` for every client, sharded over min(C, 16) worker
/// threads (blocking clients: concurrency comes from the pool, not from one
/// thread per socket).
void for_each_client(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = std::min<std::size_t>(count, 16);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < count; i += workers) fn(i);
    });
  }
  for (auto& t : pool) t.join();
}

struct Rung {
  std::size_t connections = 0;
  std::size_t io_threads = 0;
  double connect_s = 0;   ///< wall time to establish all sessions
  double qps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double push_per_s = 0;  ///< churn-alert fan-out throughput
  std::uint64_t queries = 0;
  std::uint64_t pushes = 0;
  std::uint64_t failures = 0;  ///< timeouts, bad signatures, missed pushes
};

Rung run_rung(std::size_t connections, std::size_t io_threads, bool smoke) {
  World world = make_world(connections, io_threads);
  Rung rung;
  rung.connections = connections;
  rung.io_threads = io_threads;

  // --- connect ---
  std::vector<std::unique_ptr<net::WireClient>> clients(connections);
  std::atomic<std::uint64_t> failures{0};
  const auto c0 = Clock::now();
  for_each_client(connections, [&](std::size_t i) {
    net::WireClientConfig config;
    config.port = world.server->port();
    config.requested_host = world.wire_hosts[i].value;
    config.seed = 0xc11e + i;
    clients[i] = std::make_unique<net::WireClient>(config);
    if (clients[i]->connect() != net::WelcomeStatus::Ok) ++failures;
  });
  rung.connect_s = elapsed_s(c0);
  if (failures != 0) {
    rung.failures = failures;
    return rung;  // nothing else is meaningful
  }

  // --- one-shot queries ---
  const std::size_t per_conn = smoke ? 4 : 24;
  std::mutex samples_mu;
  util::Samples latency_us;
  const auto q0 = Clock::now();
  for_each_client(connections, [&](std::size_t i) {
    util::Samples local;
    for (std::size_t q = 0; q < per_conn; ++q) {
      core::Query query;
      query.kind = q % 8 == 7   ? core::QueryKind::ReachableEndpoints
                   : q % 2 == 0 ? core::QueryKind::Geo
                                : core::QueryKind::TransferSummary;
      const auto t0 = Clock::now();
      const auto outcome = clients[i]->query(query, 30'000);
      if (outcome.timed_out || !outcome.reply || !outcome.signature_ok) {
        ++failures;
        continue;
      }
      local.add(elapsed_s(t0) * 1e6);
    }
    std::lock_guard<std::mutex> lock(samples_mu);
    for (const double v : local.values()) latency_us.add(v);
  });
  const double query_wall = elapsed_s(q0);
  rung.queries = latency_us.count();
  rung.qps = query_wall > 0 ? static_cast<double>(rung.queries) / query_wall
                            : 0;
  rung.p50_us = latency_us.median();
  rung.p99_us = latency_us.percentile(99.0);

  // --- subscriptions + baseline pushes ---
  std::vector<std::uint64_t> sub_ids(connections);
  for_each_client(connections, [&](std::size_t i) {
    core::Property property;
    property.kind = core::QueryKind::ReachableEndpoints;
    property.expect.require_full_auth = false;  // wire peers may be idle
    sub_ids[i] = clients[i]->subscribe(property,
                                       core::NotifyPolicy::EveryChange);
    if (!clients[i]->wait_notification(30'000)) ++failures;  // baseline
  });

  // --- churn-triggered fan-out ---
  // A full-drop rule at the middle switch cuts the line in half: every
  // subscription's endpoint set changes, one sweep pushes to every session.
  const sdn::SwitchId mid =
      world.runtime->network().topology().switches()[1];
  const int rounds = smoke ? 1 : 3;
  std::atomic<std::uint64_t> pushes{0};
  const auto p0 = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    world.service->post([&runtime = *world.runtime, mid] {
      sdn::FlowMod mod;
      // Must out-rank the provider's routing rules (priorities <= 10) while
      // staying below the 0xffff control-intercept rule.
      mod.priority = 1000;
      mod.cookie = 0x817e;
      mod.actions = {sdn::drop()};
      runtime.network().switch_sim(mid).apply_flow_mod(kProviderId, mod);
    });
    for_each_client(connections, [&](std::size_t i) {
      if (clients[i]->wait_notification(30'000)) {
        ++pushes;
      } else {
        ++failures;
      }
    });
    // Heal: delete the drop rule (by cookie scan, on the service thread)
    // and drain the recovery push so the next round starts from baseline.
    world.service->post([&runtime = *world.runtime, mid] {
      for (const auto& entry :
           runtime.rvaas().snapshot().table(mid)) {
        if (entry.cookie != 0x817e) continue;
        sdn::FlowMod del;
        del.command = sdn::FlowModCommand::Delete;
        del.target = entry.id;
        runtime.network().switch_sim(mid).apply_flow_mod(kProviderId, del);
      }
    });
    for_each_client(connections, [&](std::size_t i) {
      if (clients[i]->wait_notification(30'000)) {
        ++pushes;
      } else {
        ++failures;
      }
    });
  }
  const double push_wall = elapsed_s(p0);
  rung.pushes = pushes;
  rung.push_per_s =
      push_wall > 0 ? static_cast<double>(pushes) / push_wall : 0;

  // --- teardown ---
  for_each_client(connections, [&](std::size_t i) {
    clients[i]->unsubscribe(sub_ids[i]);
    clients[i]->close();
  });
  const net::WireServer::Stats stats = world.server->stats();
  if (stats.bad_frames + stats.bad_hellos + stats.bad_envelopes != 0) {
    std::printf("FAIL: server flagged %llu bad frames/hellos/envelopes\n",
                static_cast<unsigned long long>(
                    stats.bad_frames + stats.bad_hellos + stats.bad_envelopes));
    ++failures;
  }
  world.server->stop();
  world.service->stop();
  rung.failures = failures;
  return rung;
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();

  const std::vector<std::size_t> conn_ladder =
      args.smoke ? std::vector<std::size_t>{8}
                 : std::vector<std::size_t>{64, 256};
  // The crypto offload only shows with real cores; keep 1-core CI honest.
  const std::vector<std::size_t> io_ladder =
      (args.smoke || hw < 4) ? std::vector<std::size_t>{1}
                             : std::vector<std::size_t>{1, 4};

  std::puts("wire front-end load: loopback TCP sessions, mixed one-shot");
  std::puts("queries (sealed envelopes, signed replies) + EveryChange");
  std::puts("subscriptions with partition-churn push fan-out.\n");

  util::Table table({"connections", "io-threads", "connect-s", "q/s",
                     "p50-us", "p99-us", "push/s", "queries", "pushes",
                     "failures"});
  bool ok = true;
  std::vector<Rung> rungs;
  for (const std::size_t connections : conn_ladder) {
    for (const std::size_t io_threads : io_ladder) {
      const Rung rung = run_rung(connections, io_threads, args.smoke);
      rungs.push_back(rung);
      table.add_row({std::to_string(rung.connections),
                     std::to_string(rung.io_threads),
                     util::Table::fmt(rung.connect_s, 2),
                     util::Table::fmt(rung.qps, 1),
                     util::Table::fmt(rung.p50_us, 0),
                     util::Table::fmt(rung.p99_us, 0),
                     util::Table::fmt(rung.push_per_s, 1),
                     std::to_string(rung.queries),
                     std::to_string(rung.pushes),
                     std::to_string(rung.failures)});
      if (rung.failures != 0) {
        std::printf("FAIL: rung C=%zu T=%zu had %llu failures\n",
                    rung.connections, rung.io_threads,
                    static_cast<unsigned long long>(rung.failures));
        ok = false;
      }
    }
  }
  table.print();

  // Scaling gate: more I/O threads must not make throughput worse (the
  // envelope crypto parallelizes); only meaningful with real cores. `best`
  // ranges over the multi-thread rungs only, so the 1-thread rung cannot
  // pass the gate on its own.
  if (io_ladder.size() > 1 && hw >= 4) {
    for (const std::size_t connections : conn_ladder) {
      double base = 0, best = 0;
      for (const Rung& r : rungs) {
        if (r.connections != connections) continue;
        if (r.io_threads == io_ladder.front()) {
          base = r.qps;
        } else {
          best = std::max(best, r.qps);
        }
      }
      if (base > 0 && best < base) {
        std::printf("FAIL: io-thread scaling regressed at C=%zu "
                    "(best %.1f q/s < 1 thread's %.1f)\n",
                    connections, best, base);
        ok = false;
      }
    }
  }

  if (!args.json.empty()) {
    if (!util::write_json_tables(args.json, {{"wire", &table}})) return 1;
    std::printf("JSON written to %s\n", args.json.c_str());
  }
  return ok ? 0 : 1;
}
