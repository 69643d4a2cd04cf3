// E7 (§I.A claim): RVaaS servers "do not have to inspect live traffic, and
// have low resource requirements; they also do not come with strict latency
// requirements."
//
// Measures the controller's snapshot + history memory, the heap each
// traversal cached in the reach cache (L2) keeps, flow-event ingest rate,
// and per-query CPU time as the network scales.
//
// Flags: --smoke (same sizes: the full run is already CI-sized)
//        --json FILE (machine output)

#include <malloc.h>

#include <chrono>
#include <cstdio>

#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;

namespace {

/// Cold traversals bytes_per_cached_traversal() caches; far below
/// core::ReachCache::kMaxEntries, so none is flushed.
constexpr int kCachedTraversals = 256;

/// Gate on grid-6x6, perfbench query_cold's world. A 35-endpoint traversal
/// there keeps 10.5 KiB with one hop list per endpoint and exact-size
/// vectors, and kept 18.2 KiB when each endpoint stored its switch path twice
/// and the result's vectors kept their growth slack.
constexpr double kMaxGridBytesPerTraversal = 14 * 1024;

/// Heap bytes L2 keeps per cached traversal: the glibc in-use delta
/// (mallinfo2().uordblks) over kCachedTraversals cold TransferSummary
/// evaluations on one QueryEngine, each constrained to an L4 destination
/// port of its own (so each misses L2 and stays cached), divided by their
/// count. The compiled model (L1) is built before the first reading.
double bytes_per_cached_traversal(const sdn::Topology& topo,
                                  const core::SnapshotManager& snap,
                                  sdn::PortRef from) {
  const core::QueryEngine engine(topo, core::EngineConfig{});
  core::Property property;
  property.kind = core::QueryKind::TransferSummary;
  core::QueryEngine::EvalContext ctx;
  ctx.from = from;
  (void)engine.evaluate(snap, property, ctx);
  const double before = static_cast<double>(mallinfo2().uordblks);
  for (int i = 0; i < kCachedTraversals; ++i) {
    property.constraint = sdn::Match().exact(sdn::Field::L4Dst, 30000 + i);
    (void)engine.evaluate(snap, property, ctx);
  }
  const double after = static_cast<double>(mallinfo2().uordblks);
  return (after - before) / kCachedTraversals;
}

/// Returns the case's bytes per cached traversal.
double run_case(util::Table& table, const std::string& name,
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
  const double cached_bytes = bytes_per_cached_traversal(
      runtime.network().topology(), snap, ap);
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
       util::Table::fmt(cached_bytes / 1024.0, 1),
       util::Table::fmt(kEvents / ingest_s / 1000.0, 0) + "k/s",
       util::Table::fmt(query_ms.mean(), 2)});
  return cached_bytes;
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  std::puts("E7: RVaaS controller resource footprint vs network size.");
  std::puts("No live traffic is inspected: state = configuration snapshot +");
  std::puts("bounded history; CPU = logical verification per query.\n");

  util::Table table({"topology", "switches", "snapshot-entries", "memory-KiB",
                     "l2-KiB/traversal", "event-ingest", "reach-cpu-ms"});
  run_case(table, "linear-4", workload::linear(4));
  run_case(table, "grid-3x3", workload::grid(3, 3));
  const double grid_bytes = run_case(table, "grid-6x6", workload::grid(6, 6));
  run_case(table, "fat-tree-4", workload::fat_tree(4));
  run_case(table, "fat-tree-4x2", workload::fat_tree(4, 2));
  run_case(table, "fat-tree-6", workload::fat_tree(6));
  table.print();

  std::puts("\nShape check: memory scales with installed rules (KiB-MiB,");
  std::puts("not traffic volume); event ingest is far above realistic");
  std::puts("control-plane change rates; queries take milliseconds - no");
  std::puts("strict latency requirement, as the paper claims.");
  std::printf("\nL2 keeps %.1f KiB per cached traversal on grid-6x6 "
              "(gate: <= %.1f KiB).\n",
              grid_bytes / 1024.0, kMaxGridBytesPerTraversal / 1024.0);

  if (!args.json.empty() &&
      !util::write_json_tables(args.json, {{"resources", &table}})) {
    return 1;
  }
  if (grid_bytes > kMaxGridBytesPerTraversal) {
    std::puts("FAIL: grid-6x6 cached traversal above its byte budget");
    return 1;
  }
  return 0;
}
