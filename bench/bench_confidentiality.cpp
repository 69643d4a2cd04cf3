// E5 (§III/§IV.A claims): provider autonomy — query answers should reveal
// endpoints only, never internal topology; and query contents must be
// hidden from the provider.
//
// Quantifies leakage: how many internal switches/links a curious client can
// enumerate from query answers, under the EndpointsOnly policy vs the
// FullPaths strawman; plus the sealed-request property. Exits non-zero
// unless EndpointsOnly leaks nothing, FullPaths leaks something, and only
// the enclave can open a sealed query.
//
// Flags: --smoke (same sizes: the full run is already CI-sized)
//        --json FILE (machine output)

#include <cstdio>
#include <set>

#include "rvaas/inband.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;

namespace {

/// Internal switch names a client can extract from one reply.
std::set<std::string> leaked_switches(const core::QueryReply& reply,
                                      const sdn::Topology& topo) {
  std::set<std::string> leaked;
  for (const auto& path : reply.disclosed_paths) {
    // Parse "s1->s2->s3" fragments.
    std::size_t pos = 0;
    while ((pos = path.find('s', pos)) != std::string::npos) {
      std::size_t end = pos + 1;
      while (end < path.size() && isdigit(path[end])) ++end;
      leaked.insert(path.substr(pos, end - pos));
      pos = end;
    }
  }
  // Endpoint access points reveal their switch too — but those are edge
  // switches the client already interfaces with; count internal ones only.
  std::set<std::string> internal;
  for (const auto& name : leaked) {
    const sdn::SwitchId sw(
        static_cast<std::uint32_t>(std::stoul(name.substr(1))));
    if (topo.access_ports(sw).empty()) internal.insert(name);
  }
  return internal;
}

std::size_t run_policy(core::ConfidentialityPolicy policy,
                       std::size_t* total_internal) {
  workload::ScenarioConfig config;
  config.generated = workload::fat_tree(4);
  config.seed = 17;
  config.rvaas.policy = policy;
  workload::ScenarioRuntime runtime(std::move(config));
  const auto& topo = runtime.network().topology();

  std::size_t internal = 0;
  for (const auto sw : topo.switches()) {
    if (topo.access_ports(sw).empty()) ++internal;
  }
  *total_internal = internal;

  std::set<std::string> leaked;
  for (const auto host : runtime.hosts()) {
    core::Query query;
    query.kind = core::QueryKind::ReachableEndpoints;
    const auto outcome =
        runtime.query_and_wait(host, query, 100 * sim::kMillisecond);
    if (!outcome.reply) continue;
    for (const auto& name : leaked_switches(*outcome.reply, topo)) {
      leaked.insert(name);
    }
  }
  return leaked.size();
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  std::puts("E5: topology confidentiality — internal switches a curious");
  std::puts("client coalition (all 8 clients) can enumerate from reach-query");
  std::puts("answers on a fat-tree(4) with 12 internal switches.\n");

  std::size_t internal = 0;
  const std::size_t endpoints_only =
      run_policy(core::ConfidentialityPolicy::EndpointsOnly, &internal);
  const std::size_t full_paths =
      run_policy(core::ConfidentialityPolicy::FullPaths, &internal);

  util::Table table({"policy", "internal-switches", "leaked", "leak-rate"});
  table.add_row({"endpoints-only (RVaaS)", std::to_string(internal),
                 std::to_string(endpoints_only),
                 util::Table::fmt(100.0 * endpoints_only / internal, 0) + "%"});
  table.add_row({"full-paths (strawman)", std::to_string(internal),
                 std::to_string(full_paths),
                 util::Table::fmt(100.0 * full_paths / internal, 0) + "%"});
  table.print();

  // Query-content confidentiality: the provider observes the request packet
  // but cannot decrypt it.
  std::puts("\nQuery-content confidentiality (sealed requests):");
  util::Rng rng(3);
  enclave::Enclave rvaas_enclave("rvaas", "1.0", rng);
  enclave::Enclave provider_spy("provider-spy", "1.0", rng);
  core::QueryRequest request;
  request.request_id = 1;
  request.client = sdn::HostId(1);
  const auto packet = core::inband::make_request_packet(
      {0, 0x0a000001}, request, rvaas_enclave.box_public(), rng);
  const bool provider_reads =
      core::inband::open_request(packet, provider_spy).has_value();
  const bool rvaas_reads =
      core::inband::open_request(packet, rvaas_enclave).has_value();
  util::Table sealed({"party", "can-read-query"});
  sealed.add_row({"provider", provider_reads ? "YES" : "no"});
  sealed.add_row({"rvaas-enclave", rvaas_reads ? "yes" : "NO"});
  sealed.print();

  std::puts("\nShape check: the default policy leaks 0 internal switches;");
  std::printf("the strawman leaks %zu of %zu. Queries are opaque to the\n",
              full_paths, internal);
  std::puts("provider.");

  if (!args.json.empty() &&
      !util::write_json_tables(args.json,
                               {{"leakage", &table}, {"sealed", &sealed}})) {
    return 1;
  }
  const bool ok = endpoints_only == 0 && full_paths > 0 && !provider_reads &&
                  rvaas_reads;
  if (!ok) std::puts("FAIL: confidentiality claim does not hold");
  return ok ? 0 : 1;
}
