// Seed-driven federated policy fuzzing: randomized schedules of
// route-origin-hijack and route-leak attacks (plus functionally inert
// provider churn and reverts) over generated AS graphs, with an exact
// equivalence oracle between the PolicyCompliance detector and data-plane
// ground truth. Both sides read the same switch tables — HSA walks for the
// detector, packet traces for the truth — so every probe must agree, with
// attacks active, under concurrent churn, and after reverts.

#include <gtest/gtest.h>

#include <algorithm>

#include "attacks/attacks.hpp"
#include "hsa/transfer.hpp"
#include "workload/as_world.hpp"

namespace rvaas::workload {
namespace {

using core::NeighborClass;
using core::PolicyReportItem;
using core::PolicyVerdict;
using core::ProviderId;
using sdn::Field;
using sdn::Match;
using sdn::PortRef;

/// What one PolicyCompliance probe concluded about the probed domain. Items
/// from deeper domains are ignored: the oracle compares each domain's
/// verdicts against that domain's own data plane, so concurrent attacks
/// elsewhere cannot cross-talk.
struct ProbeResult {
  bool hijack = false;
  bool leak = false;
};

/// Walks from `ingress` of domain `d` constrained to (dst, TCP). The TCP
/// constraint keeps the walk space clear of the UDP in-band RVaaS rules;
/// the attacks match on IpDst alone, so detection is unaffected.
ProbeResult probe(AsWorld& world, std::size_t d, PortRef ingress,
                  std::uint32_t dst) {
  const auto v = world.federation().verify_policy(
      AsWorld::provider_of(d), ingress,
      Match()
          .exact(Field::IpDst, dst)
          .exact(Field::IpProto, sdn::kIpProtoTcp));
  ProbeResult out;
  for (const PolicyReportItem& item : v.reply.policy_report) {
    if (item.from != AsWorld::provider_of(d)) continue;
    out.hijack |= item.verdict == PolicyVerdict::UnauthorizedOrigin;
    out.leak |= item.verdict == PolicyVerdict::RouteLeak;
  }
  return out;
}

/// Data-plane truth for the same probe: inject a packet at the ingress and
/// watch where domain `d` puts it.
ProbeResult truth(AsWorld& world, std::size_t d, PortRef ingress,
                  std::uint32_t dst, NeighborClass entered_from) {
  ProbeResult out;
  const auto& cone = world.cone_ips(d);
  const sdn::Trajectory t = world.trace(d, ingress, dst);
  for (const auto& delivery : t.deliveries) {
    if (delivery.host.has_value()) {
      // A local delivery of a prefix outside the domain's own origin space.
      bool own = false;
      for (const auto h : world.domain_hosts(d)) {
        own |= control::HostAddressing::derive(h).ip == dst;
      }
      out.hijack |= !own;
      continue;
    }
    if (entered_from == NeighborClass::Customer) continue;
    // Transit traffic exiting through a non-customer border is a valley.
    for (const auto& in : world.ingresses()) {
      if (in.domain == d && in.port == delivery.egress &&
          in.feeder_class != NeighborClass::Customer) {
        out.leak = true;
      }
    }
  }
  static_cast<void>(cone);
  return out;
}

/// A destination some other domain originates and `d` does not route
/// (outside d's customer cone): the baseline guard drops it, so only an
/// attack can make it go anywhere inside d.
std::optional<std::uint32_t> foreign_ip(AsWorld& world, std::size_t d,
                                        util::Rng& rng) {
  const auto& cone = world.cone_ips(d);
  std::vector<std::uint32_t> candidates;
  for (std::size_t x = 0; x < world.domain_count(); ++x) {
    if (x == d) continue;
    for (const auto h : world.domain_hosts(x)) {
      const std::uint32_t ip = control::HostAddressing::derive(h).ip;
      if (std::find(cone.begin(), cone.end(), ip) == cone.end()) {
        candidates.push_back(ip);
      }
    }
  }
  if (candidates.empty()) return std::nullopt;
  return candidates[rng.below(candidates.size())];
}

struct OracleCounters {
  std::uint32_t schedules = 0;
  std::uint32_t hijacks_detected = 0;
  std::uint32_t leaks_detected = 0;
};

/// One schedule: launch a hijack and a leak, churn inert rules underneath,
/// check detector == truth at every stage, revert, check clean again.
void run_schedule(AsWorld& world, util::Rng& rng, OracleCounters& counters) {
  const auto transit = world.transit_ingresses();
  ASSERT_FALSE(transit.empty());

  // --- route-origin hijack in a random domain ---
  const auto& hijack_in = transit[rng.below(transit.size())];
  const std::size_t hd = hijack_in.domain;
  const auto hijack_dst = foreign_ip(world, hd, rng);
  std::optional<attacks::RouteOriginHijackAttack> hijack;
  if (hijack_dst) {
    const auto& hosts = world.domain_hosts(hd);
    const sdn::HostId sink = hosts[rng.below(hosts.size())];
    hijack.emplace(*hijack_dst, hijack_in.port, sink);
    const auto record = hijack->launch(world.domain(hd).provider(),
                                       world.domain(hd).network());
    ASSERT_TRUE(record.has_value());
    world.domain(hd).settle();
  }

  // --- route leak between two non-customer borders of one domain ---
  std::optional<attacks::RouteLeakAttack> leak;
  std::size_t ld = 0;
  PortRef leak_ingress, leak_border;
  std::optional<std::uint32_t> leak_dst;
  {
    // Pick a domain with at least two transit ingresses.
    std::vector<std::size_t> domains;
    for (const auto& in : transit) domains.push_back(in.domain);
    std::sort(domains.begin(), domains.end());
    std::vector<std::size_t> eligible;
    for (std::size_t i = 0; i + 1 < domains.size(); ++i) {
      if (domains[i] == domains[i + 1]) eligible.push_back(domains[i]);
    }
    eligible.erase(std::unique(eligible.begin(), eligible.end()),
                   eligible.end());
    if (!eligible.empty()) {
      ld = eligible[rng.below(eligible.size())];
      std::vector<const AsWorld::Ingress*> ins;
      for (const auto& in : transit) {
        if (in.domain == ld) ins.push_back(&in);
      }
      const std::size_t first = rng.below(ins.size());
      std::size_t second = rng.below(ins.size() - 1);
      if (second >= first) ++second;
      leak_ingress = ins[first]->port;
      leak_border = ins[second]->port;
      leak_dst = foreign_ip(world, ld, rng);
      if (leak_dst) {
        leak.emplace(leak_ingress, leak_border, *leak_dst);
        const auto record = leak->launch(world.domain(ld).provider(),
                                         world.domain(ld).network());
        if (record.has_value()) {
          world.domain(ld).settle();
        } else {
          leak.reset();  // no route between the borders in this graph
        }
      }
    }
  }

  auto check_agreement = [&](const char* stage) {
    if (hijack_dst) {
      const ProbeResult d =
          probe(world, hd, hijack_in.port, *hijack_dst);
      const ProbeResult t = truth(world, hd, hijack_in.port, *hijack_dst,
                                  hijack_in.feeder_class);
      EXPECT_EQ(d.hijack, t.hijack) << stage << ": hijack oracle split in "
                                    << "domain " << hd;
      if (hijack) {
        EXPECT_TRUE(d.hijack) << stage;
      }
      counters.hijacks_detected += d.hijack ? 1 : 0;
    }
    if (leak) {
      const ProbeResult d = probe(world, ld, leak_ingress, *leak_dst);
      NeighborClass entered = NeighborClass::Customer;
      for (const auto& in : transit) {
        if (in.domain == ld && in.port == leak_ingress) {
          entered = in.feeder_class;
        }
      }
      const ProbeResult t =
          truth(world, ld, leak_ingress, *leak_dst, entered);
      EXPECT_EQ(d.leak, t.leak)
          << stage << ": leak oracle split in domain " << ld;
      EXPECT_TRUE(d.leak) << stage;
      counters.leaks_detected += d.leak ? 1 : 0;
    }
  };

  check_agreement("attacks active");

  // --- functionally inert churn: priorities 1-29 never outrank the AS
  // baseline (P40+), so the oracle must not move ---
  for (int i = 0; i < 3; ++i) {
    const std::size_t cd = rng.below(world.domain_count());
    const auto& topo = world.domain(cd).network().topology();
    const auto& switches = topo.switches();
    sdn::FlowMod mod;
    mod.priority = static_cast<std::uint16_t>(1 + rng.below(29));
    mod.cookie = 0xc4a7;
    mod.match = Match().exact(Field::IpDst, 0x0b000000u + rng.below(0xffff));
    mod.actions = {sdn::drop()};
    world.domain(cd).provider_flow_mod(switches[rng.below(switches.size())],
                                       mod);
    world.domain(cd).settle();
  }

  check_agreement("under churn");

  // --- revert: the detector must go quiet again ---
  if (hijack) {
    hijack->revert(world.domain(hd).provider(), world.domain(hd).network());
    world.domain(hd).settle();
  }
  if (leak) {
    leak->revert(world.domain(ld).provider(), world.domain(ld).network());
    world.domain(ld).settle();
  }
  if (hijack_dst) {
    const ProbeResult d = probe(world, hd, hijack_in.port, *hijack_dst);
    const ProbeResult t = truth(world, hd, hijack_in.port, *hijack_dst,
                                hijack_in.feeder_class);
    EXPECT_EQ(d.hijack, t.hijack) << "post-revert hijack oracle split";
    EXPECT_FALSE(d.hijack) << "hijack survived revert in domain " << hd;
  }
  if (leak) {
    const ProbeResult d = probe(world, ld, leak_ingress, *leak_dst);
    EXPECT_FALSE(d.leak) << "leak survived revert in domain " << ld;
  }
  ++counters.schedules;
}

TEST(PolicyFuzz, DetectorMatchesGroundTruthOverRandomSchedules) {
  OracleCounters counters;
  util::Rng meta(0x90110c);
  // 12 worlds x 10 schedules = 120 schedules on 4-6 domain AS graphs.
  for (std::uint32_t w = 0; w < 12; ++w) {
    AsWorldConfig config;
    config.n_domains = 4 + w % 3;
    config.seed = 1000 + w;
    config.tier0_fat_tree = false;  // small random_isp cores: cheap worlds
    AsWorld world(config);
    util::Rng rng = meta.fork();
    for (int s = 0; s < 10; ++s) run_schedule(world, rng, counters);
  }
  EXPECT_GE(counters.schedules, 100u);
  // Both attack families must have been exercised and caught many times —
  // a fuzzer that mostly skips its attacks proves nothing.
  EXPECT_GE(counters.hijacks_detected, 100u);
  EXPECT_GE(counters.leaks_detected, 100u);
}

}  // namespace
}  // namespace rvaas::workload
