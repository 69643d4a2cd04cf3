// The two cache tiers of the verification pipeline under churn: on an
// N-switch provider-routed grid, mutate a varying fraction of switch tables
// per iteration, then re-verify a per-client flow working set (every access
// point paired with sampled destination hosts, each constrained to the
// destination's address — the paper's per-client query model) two ways:
//   cold — full model recompilation (QueryEngine::model_uncached) + one
//          uncached reach per flow,
//   warm — CompiledModelCache (L1: recompiles only dirty switches) +
//          ReachCache (L2: only flows whose dependency footprint intersects
//          the dirty switches recompute).
// The model step of each side is timed on its own, so every row reports L1
// alone (full vs incremental compilation) and both tiers end-to-end.
//
// The paper's control loop re-verifies after every monitored change
// (§IV.A); single-switch churn is the steady state there, and the cached
// path must win big on it (targets: >=5x L1 model compilation and >=5x
// end-to-end on the 50-switch topology).
//
// Flags: --smoke (tiny topology, 1 iteration)   --json FILE (machine output)

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "rvaas/engine.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return 1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mutates one switch's table content through the passive monitor path
/// (cookie modify keeps table sizes — and iteration cost — constant).
void churn_one(core::SnapshotManager& snap, sdn::SwitchId sw, util::Rng& rng,
               std::uint64_t& next_id) {
  const auto table = snap.table(sw);
  if (table.empty()) {
    sdn::FlowEntry e;
    e.id = sdn::FlowEntryId(next_id++);
    e.priority = 1;
    e.actions = {sdn::output(sdn::PortNo(0))};
    snap.apply_update({sw, sdn::FlowUpdateKind::Added, e}, 0);
    return;
  }
  sdn::FlowEntry e = table[rng.below(table.size())];
  e.cookie = rng.next_u64();
  snap.apply_update({sw, sdn::FlowUpdateKind::Modified, e}, 0);
}

/// One client flow to re-verify: traffic from `ingress` constrained to a
/// destination address.
struct Flow {
  sdn::PortRef ingress;
  hsa::HeaderSpace space;
};

std::string pct(double fraction) {
  return util::Table::fmt(100.0 * fraction, 1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);

  workload::ScenarioConfig config;
  config.generated = args.smoke ? workload::grid(2, 2)   // 4 switches
                                : workload::grid(10, 5); // 50 switches
  config.tenant_count = 2;
  config.seed = 29;
  workload::ScenarioRuntime runtime(std::move(config));
  runtime.settle();

  const sdn::Topology& topo = runtime.network().topology();
  const std::size_t n_switches = topo.switch_count();
  const int iters = args.smoke ? 1 : 10;

  // Mirror the provider-routed configuration into a locally owned snapshot.
  core::SnapshotManager snap;
  for (const auto& [sw, entries] : runtime.rvaas().snapshot().table_dump()) {
    for (const sdn::FlowEntry& e : entries) {
      snap.apply_update({sw, sdn::FlowUpdateKind::Added, e}, 0);
    }
  }

  core::QueryEngine engine(topo, core::EngineConfig{});

  // Per-client flow working set: every access point, sampled destinations.
  util::Rng rng(2016);
  std::vector<Flow> flows;
  const auto& hosts = runtime.hosts();
  const std::size_t dests_per_ap = args.smoke ? 2 : 3;
  for (const sdn::PortRef ap : topo.all_access_points()) {
    const auto local = topo.host_at(ap);
    for (std::size_t d = 0; d < dests_per_ap; ++d) {
      const sdn::HostId dst = hosts[rng.below(hosts.size())];
      if (local && dst == *local) continue;
      hsa::Wildcard cube;
      cube.set_field(sdn::Field::IpDst, runtime.addressing().of(dst).ip);
      flows.push_back(Flow{ap, hsa::HeaderSpace(cube)});
    }
  }

  // Pin warm == cold once up front for both tiers (this also warms them).
  {
    const hsa::NetworkModel warm_model = engine.model(snap);
    const hsa::NetworkModel cold_model = engine.model_uncached(snap);
    bool same = warm_model.transfer() == cold_model.transfer();
    for (const Flow& f : flows) {
      same = same && *engine.reach(warm_model, snap, f.ingress, f.space) ==
                         cold_model.reach(f.ingress, f.space, 64);
    }
    if (!same) {
      std::fprintf(stderr, "FATAL: cached model or reach differs from cold\n");
      return 1;
    }
  }

  std::printf("cached vs cold model compilation and flow reverification "
              "under churn — %zu-switch grid, %zu snapshot entries, %zu "
              "flows, %d iterations/row\n\n",
              n_switches, snap.entry_count(), flows.size(), iters);

  // Churn levels: 1 switch (the paper's steady-state case), then growing
  // fractions up to a full-network reconfiguration.
  std::vector<std::size_t> levels{1};
  for (const double frac : {0.1, 0.5, 1.0}) {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(n_switches) * frac + 0.5);
    if (k > 1 && k <= n_switches) levels.push_back(k);
  }

  util::Table table({"churn-switches", "churn-pct", "full-model-ms",
                     "incr-model-ms", "model-speedup", "cold-ms", "warm-ms",
                     "speedup", "l2-hit-rate"});

  const auto switches = topo.switches();
  std::uint64_t next_id = 1 << 20;
  double single_switch_model_speedup = 0.0;
  double single_switch_speedup = 0.0;

  for (const std::size_t k : levels) {
    util::Samples full_model, incr_model, cold_total, warm_total;
    const core::ReachCache::Stats level_start = engine.reach_stats();
    for (int it = 0; it < iters; ++it) {
      auto picks = switches;
      rng.shuffle(picks);
      for (std::size_t i = 0; i < k; ++i) {
        churn_one(snap, picks[i], rng, next_id);
      }

      {  // Cold baseline: full recompilation + uncached traversals.
        const auto t0 = Clock::now();
        const hsa::NetworkModel model = engine.model_uncached(snap);
        full_model.add(ms_since(t0));
        for (const Flow& f : flows) {
          (void)model.reach(f.ingress, f.space, 64);
        }
        cold_total.add(ms_since(t0));
      }
      {  // Warm path: L1 incremental model + L2 reach cache.
        const auto t0 = Clock::now();
        const hsa::NetworkModel model = engine.model(snap);
        incr_model.add(ms_since(t0));
        for (const Flow& f : flows) {
          (void)engine.reach(model, snap, f.ingress, f.space);
        }
        warm_total.add(ms_since(t0));
      }
    }

    const double model_speedup = full_model.mean() / incr_model.mean();
    const double speedup = cold_total.mean() / warm_total.mean();
    if (k == 1) {
      single_switch_model_speedup = model_speedup;
      single_switch_speedup = speedup;
    }
    const auto level_end = engine.reach_stats();
    const std::uint64_t lookups = level_end.lookups - level_start.lookups;
    const std::uint64_t hits = level_end.hits - level_start.hits;
    table.add_row({std::to_string(k),
                   util::Table::fmt(100.0 * static_cast<double>(k) /
                                        static_cast<double>(n_switches), 0),
                   util::Table::fmt(full_model.mean(), 3),
                   util::Table::fmt(incr_model.mean(), 3),
                   util::Table::fmt(model_speedup, 1) + "x",
                   util::Table::fmt(cold_total.mean(), 3),
                   util::Table::fmt(warm_total.mean(), 3),
                   util::Table::fmt(speedup, 1) + "x",
                   pct(lookups == 0 ? 0.0
                                    : static_cast<double>(hits) /
                                          static_cast<double>(lookups))});
  }
  table.print();

  const auto l1_stats = engine.cache_stats();
  util::Table l1({"lookups", "full-rebuilds", "clean-hits",
                  "switch-recompiles", "switch-hits", "switch-hit-rate"});
  l1.add_row({std::to_string(l1_stats.lookups),
              std::to_string(l1_stats.full_rebuilds),
              std::to_string(l1_stats.clean_hits),
              std::to_string(l1_stats.switch_recompiles),
              std::to_string(l1_stats.switch_hits),
              pct(l1_stats.switch_hit_rate())});
  std::puts("\nmodel cache (L1) counters over the whole run:");
  l1.print();

  const auto l2_stats = engine.reach_stats();
  util::Table l2({"lookups", "hits", "misses", "entries-invalidated",
                  "full-clears", "hit-rate"});
  l2.add_row({std::to_string(l2_stats.lookups), std::to_string(l2_stats.hits),
              std::to_string(l2_stats.misses),
              std::to_string(l2_stats.entries_invalidated),
              std::to_string(l2_stats.full_clears),
              pct(l2_stats.hit_rate())});
  std::puts("\nreach cache (L2) counters over the whole run:");
  l2.print();

  std::printf("\nsingle-switch churn: incremental model compilation (L1) is "
              "%.1fx faster than full recompilation, and cached "
              "reverification of the flow set (L1+L2) is %.1fx faster "
              "end-to-end than the uncached path (targets >= 5x).\n",
              single_switch_model_speedup, single_switch_speedup);

  if (!args.json.empty()) {
    if (!util::write_json_tables(args.json, {{"churn", &table},
                                             {"l1", &l1},
                                             {"l2", &l2}})) {
      return 1;
    }
    std::printf("JSON written to %s\n", args.json.c_str());
  }

  bool ok = true;
  if (!args.smoke && single_switch_model_speedup < 5.0) {
    std::puts("FAIL: single-switch model compilation speedup below 5x");
    ok = false;
  }
  if (!args.smoke && single_switch_speedup < 5.0) {
    std::puts("FAIL: single-switch reverification speedup below 5x");
    ok = false;
  }
  return ok ? 0 : 1;
}
