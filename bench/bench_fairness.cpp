// E10 (§IV.C.b): fairness / network-neutrality checking via meter tables.
// Clients in differently-metered tenants query their minimum configured
// rate; the verdict comparison exposes discriminatory shaping. Exits
// non-zero unless equal meters read as no discrimination and unequal ones
// as visible discrimination.
//
// Flags: --smoke (same sizes: the full run is already CI-sized)
//        --json FILE (machine output)

#include <cstdio>

#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;

namespace {

struct CaseResult {
  std::uint64_t tenant1_rate;
  std::uint64_t tenant2_rate;
  bool discrimination_visible;
  double query_latency_ms;
};

CaseResult run_case(std::uint64_t rate1_bps, std::uint64_t rate2_bps) {
  workload::ScenarioConfig config;
  config.generated = workload::linear(4);
  config.tenant_count = 2;
  config.seed = 41;
  if (rate1_bps) config.tenant_meters[0] = sdn::MeterConfig{rate1_bps, 10000};
  if (rate2_bps) config.tenant_meters[1] = sdn::MeterConfig{rate2_bps, 10000};
  config.rvaas.poll_period = 5 * sim::kMillisecond;  // meters come from polls
  workload::ScenarioRuntime runtime(std::move(config));
  runtime.settle(25 * sim::kMillisecond);
  const auto& hosts = runtime.hosts();

  core::Query query;
  query.kind = core::QueryKind::Fairness;
  query.constraint = sdn::Match().exact(sdn::Field::Vlan, 0);

  const auto timed1 =
      runtime.query_timed(hosts[0], query, 100 * sim::kMillisecond);
  const auto outcome1 = timed1.outcome;
  const auto outcome2 =
      runtime.query_and_wait(hosts[1], query, 100 * sim::kMillisecond);

  CaseResult result{};
  result.query_latency_ms = sim::to_ms(timed1.latency);
  if (outcome1.reply) result.tenant1_rate = outcome1.reply->fairness[0].value;
  if (outcome2.reply) result.tenant2_rate = outcome2.reply->fairness[0].value;
  result.discrimination_visible = result.tenant1_rate != result.tenant2_rate;
  return result;
}

std::string rate_str(std::uint64_t bps) {
  if (bps == ~std::uint64_t{0}) return "unmetered";
  return util::Table::fmt(static_cast<double>(bps) / 1e6, 0) + "Mbps";
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);
  std::puts("E10: fairness / network-neutrality verification via meter");
  std::puts("tables (§IV.C.b). Two tenants, differing meter configurations;");
  std::puts("each client queries the tightest rate applied to its traffic.\n");

  util::Table table({"tenant1-meter", "tenant2-meter", "t1-reported",
                     "t2-reported", "discrimination", "latency-ms"});
  const struct {
    std::uint64_t r1, r2;
  } cases[] = {
      {0, 0},                      // neutral: nobody metered
      {100'000'000, 100'000'000},  // neutral: equal meters
      {10'000'000, 100'000'000},   // tenant 1 throttled
      {10'000'000, 0},             // tenant 1 metered, tenant 2 free
  };
  bool ok = true;
  for (const auto& c : cases) {
    const CaseResult r = run_case(c.r1, c.r2);
    ok &= r.discrimination_visible == (c.r1 != c.r2);
    table.add_row({c.r1 ? rate_str(c.r1) : "none",
                   c.r2 ? rate_str(c.r2) : "none", rate_str(r.tenant1_rate),
                   rate_str(r.tenant2_rate),
                   r.discrimination_visible ? "VISIBLE" : "none",
                   util::Table::fmt(r.query_latency_ms, 2)});
  }
  table.print();

  std::puts("\nShape check: equal treatment yields equal answers; any");
  std::puts("differential shaping surfaces as a reported rate difference a");
  std::puts("client coalition can compare out of band.");

  if (!args.json.empty() &&
      !util::write_json_tables(args.json, {{"fairness", &table}})) {
    return 1;
  }
  if (!ok) std::puts("FAIL: reported discrimination does not match meters");
  return ok ? 0 : 1;
}
