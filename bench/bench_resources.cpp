// E7 (§I.A claim): RVaaS servers "do not have to inspect live traffic, and
// have low resource requirements; they also do not come with strict latency
// requirements."
//
// Measures the controller's snapshot + history memory, flow-event ingest
// rate, and per-query CPU time as the network scales.
//
// Flags: --smoke (same sizes: the full run is already CI-sized)
//        --json FILE (machine output)

#include <chrono>
#include <cstdio>

#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;

namespace {

void run_case(util::Table& table, const std::string& name,
              workload::GeneratedTopology topo) {
  workload::ScenarioConfig config;
  config.generated = std::move(topo);
  config.seed = 31;
  workload::ScenarioRuntime runtime(std::move(config));
  const auto& snap = runtime.rvaas().snapshot();

  // Event ingest rate: feed a burst of synthetic flow updates through the
  // snapshot manager and time it.
  core::SnapshotManager ingest_probe;
  sdn::FlowEntry entry;
  entry.match = sdn::Match().exact(sdn::Field::IpDst, 0x0a000001);
  entry.actions = {sdn::output(sdn::PortNo(1))};
  const int kEvents = 20000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kEvents; ++i) {
    entry.id = sdn::FlowEntryId(static_cast<std::uint64_t>(i));
    ingest_probe.apply_update(
        {sdn::SwitchId(1), sdn::FlowUpdateKind::Added, entry},
        static_cast<sim::Time>(i));
  }
  const double ingest_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Per-query CPU: wall time of the full logical step.
  const hsa::NetworkModel model = hsa::NetworkModel::from_tables(
      runtime.network().topology(), snap.table_dump());
  const auto ap = runtime.network()
                      .topology()
                      .host_ports(runtime.hosts().front())
                      .front();
  util::Samples query_ms;
  for (int i = 0; i < 5; ++i) {
    const auto q0 = std::chrono::steady_clock::now();
    const auto result = model.reach(ap, hsa::HeaderSpace::all());
    query_ms.add(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - q0)
                     .count());
    (void)result;
  }

  table.add_row(
      {name, std::to_string(runtime.network().topology().switch_count()),
       std::to_string(snap.entry_count()),
       util::Table::fmt(static_cast<double>(snap.approx_memory_bytes()) / 1024.0, 1),
       util::Table::fmt(kEvents / ingest_s / 1000.0, 0) + "k/s",
       util::Table::fmt(query_ms.mean(), 2)});
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  std::puts("E7: RVaaS controller resource footprint vs network size.");
  std::puts("No live traffic is inspected: state = configuration snapshot +");
  std::puts("bounded history; CPU = logical verification per query.\n");

  util::Table table({"topology", "switches", "snapshot-entries", "memory-KiB",
                     "event-ingest", "reach-cpu-ms"});
  run_case(table, "linear-4", workload::linear(4));
  run_case(table, "grid-3x3", workload::grid(3, 3));
  run_case(table, "fat-tree-4", workload::fat_tree(4));
  run_case(table, "fat-tree-4x2", workload::fat_tree(4, 2));
  run_case(table, "fat-tree-6", workload::fat_tree(6));
  table.print();

  std::puts("\nShape check: memory scales with installed rules (KiB-MiB,");
  std::puts("not traffic volume); event ingest is far above realistic");
  std::puts("control-plane change rates; queries take milliseconds - no");
  std::puts("strict latency requirement, as the paper claims.");

  if (!args.json.empty() &&
      !util::write_json_tables(args.json, {{"resources", &table}})) {
    return 1;
  }
  return 0;
}
