// Federated verification scoreboard: how do recursive queries scale with
// the number of providers, how fast are PolicyCompliance walks over growing
// AS graphs, and does the detector still catch the two inter-domain attack
// families at every scale?
//
//   E8 chain         (§IV.C.a) 1 / 2 / 4 / 6 / 8 single-line domains peered
//                    tail-to-head (also in smoke: it takes well under a
//                    second); one ReachableEndpoints query from the head
//                    must find the endpoint in the last domain through one
//                    signed RVaaS-to-RVaaS subquery per domain crossed.
//   domains ladder   4 / 8 / 16 domains (smoke: 4 only). Each domain is a
//                    full ScenarioRuntime; tier-0 cores are fat-tree(4)
//                    fabrics, everyone else a small random ISP mesh. The
//                    valley-free AS baseline (P50/P45/P44/P40) is installed
//                    by AsWorld.
//   walk sweep       from every provider/peer-fed (transit) ingress, one
//                    PolicyCompliance walk toward an in-cone destination
//                    and one toward a foreign destination; reports/s is
//                    walks over wall-clock time.
//   detection sanity per rung, one route-origin-hijack and one route-leak
//                    are injected and must be flagged (UnauthorizedOrigin /
//                    RouteLeak) by a walk at the attacked ingress, then
//                    reverted.
//
// Acceptance: the chain finds its remote endpoint with providers - 1
// subqueries on every rung, and both attack families are detected on every
// AS rung (verdict rows, non-zero exit otherwise).
//
// Flags: --smoke (4 AS domains only, CI mode)   --json FILE (machine output)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attacks/attacks.hpp"
#include "hsa/transfer.hpp"
#include "util/stats.hpp"
#include "workload/as_world.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;
using Clock = std::chrono::steady_clock;

namespace {

using core::NeighborClass;
using core::PolicyReportItem;
using core::PolicyVerdict;
using sdn::Field;
using sdn::Match;

/// A chain of N single-line domains, peered tail-to-head, with a
/// through-route installed in each.
struct Chain {
  std::vector<std::unique_ptr<workload::ScenarioRuntime>> domains;
  core::Federation fed;

  explicit Chain(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      workload::ScenarioConfig config;
      config.generated = workload::linear(3);
      config.seed = 200 + i;
      domains.push_back(
          std::make_unique<workload::ScenarioRuntime>(std::move(config)));
      fed.add_domain(core::ProviderId(static_cast<std::uint32_t>(i + 1)),
                     domains.back()->rvaas());
    }
    for (std::size_t i = 0; i + 1 < n; ++i) {
      fed.add_peering(core::ProviderId(static_cast<std::uint32_t>(i + 1)),
                      {sdn::SwitchId(3), sdn::PortNo(3)},
                      core::ProviderId(static_cast<std::uint32_t>(i + 2)),
                      {sdn::SwitchId(1), sdn::PortNo(3)});
    }
    // Through-routing inside every domain.
    const sdn::ControllerId prov(1);
    auto fwd = [](std::uint16_t prio, sdn::PortNo in, sdn::PortNo out) {
      sdn::FlowMod m;
      m.priority = prio;
      m.match = sdn::Match().in_port(in);
      m.actions = {sdn::output(out)};
      return m;
    };
    for (std::size_t i = 0; i < n; ++i) {
      auto& net = domains[i]->network();
      const sdn::PortNo entry = i == 0 ? sdn::PortNo(2) : sdn::PortNo(3);
      const sdn::PortNo exit =
          i + 1 < n ? sdn::PortNo(3) : sdn::PortNo(2);  // last: to its host
      net.switch_sim(sdn::SwitchId(1))
          .apply_flow_mod(prov, fwd(40, entry, sdn::PortNo(1)));
      net.switch_sim(sdn::SwitchId(2))
          .apply_flow_mod(prov, fwd(40, sdn::PortNo(0), sdn::PortNo(1)));
      net.switch_sim(sdn::SwitchId(3))
          .apply_flow_mod(prov, fwd(40, sdn::PortNo(0), exit));
      domains[i]->settle();
    }
  }
};

/// E8: one chain per rung; true iff every rung finds the last domain's
/// endpoint through exactly one subquery per domain crossed.
bool run_chain_ladder(util::Table& table) {
  bool ok = true;
  for (const std::size_t n : {1u, 2u, 4u, 6u, 8u}) {
    Chain chain(n);
    const auto t0 = Clock::now();
    const auto result =
        chain.fed.reachable(core::ProviderId(1),
                            {sdn::SwitchId(1), sdn::PortNo(2)}, sdn::Match(),
                            /*max_domains=*/16);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const core::ProviderId last(static_cast<std::uint32_t>(n));
    bool remote = false;
    for (const auto& e : result.endpoints) {
      remote |= e.provider == last && !e.info.dark;
    }
    ok &= remote && result.subqueries == n - 1;
    table.add_row({std::to_string(n), std::to_string(result.domains_visited),
                   std::to_string(result.subqueries),
                   std::to_string(result.endpoints.size()),
                   remote ? "found" : "MISSING", util::Table::fmt(ms, 2)});
  }
  return ok;
}

Match dst_tcp(std::uint32_t dst) {
  // TCP keeps the walk space clear of the UDP in-band RVaaS rules.
  return Match().exact(Field::IpDst, dst).exact(Field::IpProto,
                                                sdn::kIpProtoTcp);
}

std::optional<std::uint32_t> foreign_ip(workload::AsWorld& world,
                                        std::size_t d) {
  const auto& cone = world.cone_ips(d);
  for (std::size_t x = 0; x < world.domain_count(); ++x) {
    if (x == d) continue;
    for (const auto h : world.domain_hosts(x)) {
      const std::uint32_t ip = control::HostAddressing::derive(h).ip;
      if (std::find(cone.begin(), cone.end(), ip) == cone.end()) return ip;
    }
  }
  return std::nullopt;
}

struct Rung {
  std::uint32_t domains = 0;
  std::size_t ingresses = 0;
  std::size_t walks = 0;
  double walks_per_s = 0;
  std::size_t report_items = 0;
  std::uint32_t max_depth = 0;
  std::size_t subqueries = 0;
  bool hijack_detected = false;
  bool leak_detected = false;
};

bool verdict_present(const core::PolicyVerification& v, PolicyVerdict kind) {
  for (const PolicyReportItem& item : v.reply.policy_report) {
    if (item.verdict == kind) return true;
  }
  return false;
}

Rung run_rung(std::uint32_t n_domains) {
  Rung rung;
  rung.domains = n_domains;

  workload::AsWorldConfig config;
  config.n_domains = n_domains;
  config.seed = 7;
  workload::AsWorld world(config);
  core::Federation& fed = world.federation();

  const auto transit = world.transit_ingresses();
  rung.ingresses = transit.size();

  // --- walk sweep -----------------------------------------------------------
  const auto t0 = Clock::now();
  for (const auto& in : transit) {
    // Highest cone IP = a deepest-customer host: walks that actually cross
    // borders down the provider hierarchy rather than delivering next door.
    std::vector<std::uint32_t> dsts{world.cone_ips(in.domain).back()};
    if (const auto foreign = foreign_ip(world, in.domain)) {
      dsts.push_back(*foreign);
    }
    for (const std::uint32_t dst : dsts) {
      const auto v =
          fed.verify_policy(workload::AsWorld::provider_of(in.domain),
                            in.port, dst_tcp(dst));
      ++rung.walks;
      rung.report_items += v.reply.policy_report.size();
      rung.max_depth = std::max(rung.max_depth, v.max_walk_depth);
      rung.subqueries += v.subqueries;
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  rung.walks_per_s = elapsed > 0 ? static_cast<double>(rung.walks) / elapsed
                                 : 0.0;

  // --- detection sanity -----------------------------------------------------
  if (!transit.empty()) {
    const auto& in = transit.front();
    if (const auto foreign = foreign_ip(world, in.domain)) {
      attacks::RouteOriginHijackAttack hijack(
          *foreign, in.port, world.domain_hosts(in.domain).front());
      if (hijack.launch(world.domain(in.domain).provider(),
                        world.domain(in.domain).network())) {
        world.domain(in.domain).settle();
        const auto v =
            fed.verify_policy(workload::AsWorld::provider_of(in.domain),
                              in.port, dst_tcp(*foreign));
        rung.hijack_detected =
            verdict_present(v, PolicyVerdict::UnauthorizedOrigin);
        hijack.revert(world.domain(in.domain).provider(),
                      world.domain(in.domain).network());
        world.domain(in.domain).settle();
      }
    }
  }
  for (std::size_t i = 0; i < transit.size() && !rung.leak_detected; ++i) {
    for (std::size_t j = 0; j < transit.size(); ++j) {
      if (i == j || transit[i].domain != transit[j].domain) continue;
      const std::size_t d = transit[i].domain;
      const auto foreign = foreign_ip(world, d);
      if (!foreign) continue;
      attacks::RouteLeakAttack leak(transit[i].port, transit[j].port,
                                    *foreign);
      if (!leak.launch(world.domain(d).provider(),
                       world.domain(d).network())) {
        continue;
      }
      world.domain(d).settle();
      const auto v = fed.verify_policy(workload::AsWorld::provider_of(d),
                                       transit[i].port, dst_tcp(*foreign));
      rung.leak_detected = verdict_present(v, PolicyVerdict::RouteLeak);
      leak.revert(world.domain(d).provider(), world.domain(d).network());
      world.domain(d).settle();
      break;
    }
  }
  return rung;
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);

  std::puts("E8: federated (multi-provider) recursive queries over a chain");
  std::puts("of domains; each hop is a signed RVaaS-to-RVaaS subquery.\n");
  util::Table chain({"providers", "domains-visited", "subqueries",
                     "endpoints", "remote-endpoint", "cpu-ms"});
  const bool chain_ok = run_chain_ladder(chain);
  chain.print();

  std::puts("\nfederated policy verification: PolicyCompliance walk sweeps");
  std::puts("over generated AS graphs, plus per-rung detection sanity for");
  std::puts("route-origin-hijack and route-leak.\n");

  std::vector<std::uint32_t> ladder{4, 8, 16};
  if (args.smoke) ladder = {4};

  std::vector<Rung> rungs;
  for (const std::uint32_t n : ladder) rungs.push_back(run_rung(n));

  util::Table table({"domains", "transit-ingresses", "walks", "walks-per-s",
                     "report-items", "max-walk-depth", "subqueries", "hijack",
                     "leak"});
  for (const Rung& rung : rungs) {
    table.add_row({std::to_string(rung.domains),
                   std::to_string(rung.ingresses), std::to_string(rung.walks),
                   util::Table::fmt(rung.walks_per_s, 1),
                   std::to_string(rung.report_items),
                   std::to_string(rung.max_depth),
                   std::to_string(rung.subqueries),
                   rung.hijack_detected ? "detected" : "MISSED",
                   rung.leak_detected ? "detected" : "MISSED"});
  }
  table.print();

  bool all_detected = true;
  util::Table verdicts({"criterion", "target", "measured", "ok"});
  verdicts.add_row({"E8 chain @1-8 providers",
                    "remote endpoint found, providers-1 subqueries",
                    chain_ok ? "every rung" : "not every rung",
                    chain_ok ? "yes" : "NO"});
  for (const Rung& rung : rungs) {
    const bool ok = rung.hijack_detected && rung.leak_detected;
    all_detected &= ok;
    verdicts.add_row(
        {"attack detection @" + std::to_string(rung.domains) + " domains",
         "hijack+leak flagged",
         std::string(rung.hijack_detected ? "hijack" : "-") + "/" +
             (rung.leak_detected ? "leak" : "-"),
         ok ? "yes" : "NO"});
  }
  std::puts("");
  verdicts.print();

  if (!args.json.empty()) {
    if (!util::write_json_tables(args.json, {{"chain", &chain},
                                             {"ladder", &table},
                                             {"verdicts", &verdicts}})) {
      return 1;
    }
  }
  return chain_ok && all_detected ? 0 : 1;
}
