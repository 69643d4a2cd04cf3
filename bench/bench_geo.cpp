// E6 (§IV.B.2): geo-location checks with the paper's three location
// sources — provider-disclosed, crowd-sourced, geo-IP-inferred — at varying
// report error rates. Measures jurisdiction-set accuracy (Jaccard index
// against ground truth) and diversion-detection rate; exits non-zero unless
// the disclosed source is exact and every row detects the diversion.
//
// Flags: --smoke (same sizes: the full run is already CI-sized)
//        --json FILE (machine output)

#include <cstdio>
#include <set>

#include "util/stats.hpp"
#include "workload/geoip.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;

namespace {

std::set<std::string> truth_jurisdictions(workload::ScenarioRuntime& runtime,
                                          sdn::HostId src, sdn::HostId dst) {
  sdn::Packet p;
  p.hdr.ip_src = runtime.addressing().of(src).ip;
  p.hdr.ip_dst = runtime.addressing().of(dst).ip;
  const auto t = runtime.network().trace_from_host(src, p);
  std::set<std::string> out;
  for (const auto sw : t.traversed_switches()) {
    out.insert(runtime.network().topology().geo(sw).jurisdiction);
  }
  return out;
}

double jaccard(const std::set<std::string>& a, const std::set<std::string>& b) {
  if (a.empty() && b.empty()) return 1.0;
  std::size_t inter = 0;
  for (const auto& x : a) inter += b.contains(x);
  return static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size() - inter);
}

struct CaseResult {
  double accuracy;
  bool detects_diversion;
};

CaseResult run_case(const std::string& source, double error_rate,
                    std::uint64_t seed) {
  workload::ScenarioConfig config;
  config.generated = workload::linear(9);
  config.seed = seed;
  config.with_geo = false;  // we install the provider below
  workload::ScenarioRuntime runtime(std::move(config));
  util::Rng rng(seed * 131);

  if (source == "disclosed") {
    runtime.rvaas().set_geo_provider(
        std::make_unique<core::DisclosedGeo>(runtime.network().topology()));
  } else if (source == "crowd") {
    runtime.rvaas().set_geo_provider(workload::synth_crowd_geo(
        runtime.network().topology(), error_rate, rng));
  } else {
    runtime.rvaas().set_geo_provider(std::make_unique<core::GeoIpGeo>(
        runtime.network().topology(), runtime.addressing(),
        workload::synth_geoip_db(runtime.network().topology(),
                                 runtime.addressing(), error_rate, rng)));
  }

  const auto& hosts = runtime.hosts();
  // Accuracy over several (src, dst) pairs.
  util::Samples accuracy;
  const std::pair<int, int> pairs[] = {{0, 2}, {0, 8}, {3, 5}, {2, 6}};
  for (const auto& [a, b] : pairs) {
    core::Query query;
    query.kind = core::QueryKind::Geo;
    query.constraint = sdn::Match().exact(
        sdn::Field::IpDst, runtime.addressing().of(hosts[b]).ip);
    const auto outcome =
        runtime.query_and_wait(hosts[a], query, 100 * sim::kMillisecond);
    if (!outcome.reply) continue;
    const std::set<std::string> reported(outcome.reply->jurisdictions.begin(),
                                         outcome.reply->jurisdictions.end());
    accuracy.add(jaccard(reported, truth_jurisdictions(runtime, hosts[a], hosts[b])));
  }

  // Diversion detection: divert host0->host2 through switch 8 (US third).
  attacks::GeoDiversionAttack attack(hosts[0], hosts[2], sdn::SwitchId(8));
  attack.launch(runtime.provider(), runtime.network());
  runtime.settle();
  core::Query query;
  query.kind = core::QueryKind::Geo;
  query.constraint = sdn::Match().exact(
      sdn::Field::IpDst, runtime.addressing().of(hosts[2]).ip);
  const auto outcome =
      runtime.query_and_wait(hosts[0], query, 100 * sim::kMillisecond);
  core::Expectation expect;
  expect.allowed_jurisdictions = {"DE"};
  const bool detected =
      outcome.reply && !core::evaluate_reply(*outcome.reply, expect).ok;

  return CaseResult{accuracy.mean(), detected};
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  std::puts("E6: geo-query accuracy (Jaccard vs ground truth) and diversion");
  std::puts("detection for the three location sources of §IV.B.2.\n");

  util::Table table({"source", "report-error", "accuracy", "diversion-detected"});
  const struct {
    const char* source;
    double err;
  } cases[] = {
      {"disclosed", 0.0}, {"crowd", 0.0},  {"crowd", 0.2},
      {"crowd", 0.5},     {"geo-ip", 0.0}, {"geo-ip", 0.2},
      {"geo-ip", 0.5},
  };
  bool ok = true;
  for (const auto& c : cases) {
    const CaseResult r = run_case(c.source, c.err, 23);
    ok &= r.detects_diversion &&
          (std::string(c.source) != "disclosed" || r.accuracy == 1.0);
    table.add_row({c.source, util::Table::fmt(c.err * 100, 0) + "%",
                   util::Table::fmt(r.accuracy * 100, 1) + "%",
                   r.detects_diversion ? "yes" : "NO"});
  }
  table.print();

  std::puts("\nShape check: disclosed locations are exact; crowd-sourced");
  std::puts("and geo-IP sources degrade gracefully with report error, and");
  std::puts("coarse sources still catch a cross-jurisdiction diversion.");

  if (!args.json.empty() &&
      !util::write_json_tables(args.json, {{"geo", &table}})) {
    return 1;
  }
  if (!ok) std::puts("FAIL: disclosed source inexact or a diversion missed");
  return ok ? 0 : 1;
}
