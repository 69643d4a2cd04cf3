// E1 (Figures 1+2): end-to-end integrity-query protocol — simulated latency
// and message counts vs topology size and shape.
//
// Series: topology | switches | hosts | endpoints | auth issued | latency
// (simulated ms) | packet-ins | packet-outs | host CPU ms (controller-side
// compute, wall clock).
//
// Flags: --smoke (same sizes: the full run is already CI-sized)
//        --json FILE (machine output)

#include <chrono>
#include <cstdio>

#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;

namespace {

struct Row {
  std::string name;
  workload::GeneratedTopology topo;
};

void run_case(util::Table& table, Row row) {
  workload::ScenarioConfig config;
  config.generated = std::move(row.topo);
  config.seed = 1;
  workload::ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  runtime.network().reset_counters();
  util::Samples latency_ms;
  util::Samples wall_ms;
  std::size_t endpoints = 0;
  std::uint32_t issued = 0;

  const int kQueries = 5;
  for (int i = 0; i < kQueries; ++i) {
    const sdn::HostId client = hosts[static_cast<std::size_t>(i) % hosts.size()];
    core::Query query;
    query.kind = core::QueryKind::ReachableEndpoints;

    const auto wall_start = std::chrono::steady_clock::now();
    const auto timed =
        runtime.query_timed(client, query, 200 * sim::kMillisecond);
    const auto wall_end = std::chrono::steady_clock::now();
    if (!timed.outcome.reply) continue;
    latency_ms.add(sim::to_ms(timed.latency));
    wall_ms.add(std::chrono::duration<double, std::milli>(wall_end - wall_start)
                    .count());
    endpoints = timed.outcome.reply->endpoints.size();
    issued = timed.outcome.reply->auth.issued;
  }

  const auto& counters = runtime.network().counters();
  table.add_row({row.name, std::to_string(runtime.network().topology().switch_count()),
                 std::to_string(hosts.size()), std::to_string(endpoints),
                 std::to_string(issued), util::Table::fmt(latency_ms.mean(), 2),
                 std::to_string(counters.packet_ins / kQueries),
                 std::to_string(counters.packet_outs / kQueries),
                 util::Table::fmt(wall_ms.mean(), 1)});
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  std::puts("E1: integrity-query protocol (Fig. 1 + Fig. 2), latency and");
  std::puts("message cost vs topology. Latency includes the auth round-trip");
  std::puts("and the controller's auth-timeout finalization.\n");

  util::Table table({"topology", "switches", "hosts", "endpoints",
                     "auth-issued", "sim-latency-ms", "pkt-ins/query",
                     "pkt-outs/query", "cpu-ms/query"});
  run_case(table, {"linear-3", workload::linear(3)});
  run_case(table, {"linear-6", workload::linear(6)});
  run_case(table, {"linear-9", workload::linear(9)});
  run_case(table, {"grid-3x3", workload::grid(3, 3)});
  run_case(table, {"fat-tree-4", workload::fat_tree(4)});
  run_case(table, {"fat-tree-4x2", workload::fat_tree(4, 2)});
  table.print();

  std::puts("\nShape check: simulated latency is a few control-plane RTTs");
  std::puts("(replies finalize early once every endpoint authenticates) and");
  std::puts("is independent of network size; message counts grow linearly");
  std::puts("in the number of reachable endpoints, not in network size.");

  if (!args.json.empty() &&
      !util::write_json_tables(args.json, {{"protocol", &table}})) {
    return 1;
  }
  return 0;
}
