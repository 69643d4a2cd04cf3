// E9 (§I/§III claim): "in the context of high-performance networks ...
// cryptographic per-packet operations (like encryption, signatures, etc.)
// are out of question. Concretely, we rule out signed logs in every packet
// ... and ideally not even per-flow public key operations."
//
// Times the asymmetric primitives (median and p90 per call), then contrasts
// the total crypto budget of a per-packet-signing strawman against RVaaS's
// per-QUERY crypto for a realistic traffic mix.
//
// Flags: --smoke (few calls per primitive)   --json FILE (machine output)

#include <chrono>
#include <cstdio>

#include "crypto/seal.hpp"
#include "crypto/sign.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;
using Clock = std::chrono::steady_clock;

namespace {

/// Calls `op` `calls` times; one sample per call, in microseconds.
template <typename Op>
util::Samples time_calls(int calls, Op op) {
  util::Samples us;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    op();
    us.add(1e6 * std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return us;
}

/// Per-call cost of each primitive on the query path, plus the per-packet
/// hash a signed-log scheme would need at minimum.
util::Table time_primitives(int calls) {
  util::Rng rng(1);
  const crypto::SigningKey key = crypto::SigningKey::generate(rng);
  const crypto::BoxOpener opener = crypto::BoxOpener::generate(rng);
  const util::Bytes msg = util::to_bytes(
      "sealed query payload, ~100 bytes of serialized request data...");
  const crypto::Signature sig = key.sign(msg);
  const crypto::SealedBox box = opener.sealer().seal(rng, msg);
  const util::Bytes packet(1500, 0xab);
  volatile bool sink = false;  // keeps every result observable

  util::Table table({"operation", "calls", "median-us", "p90-us"});
  const auto add = [&](const char* name, int n, const util::Samples& us) {
    table.add_row({name, std::to_string(n), util::Table::fmt(us.median(), 2),
                   util::Table::fmt(us.percentile(90), 2)});
  };
  add("schnorr-sign", calls,
      time_calls(calls, [&] { sink = key.sign(msg).s.is_odd(); }));
  add("schnorr-verify", calls, time_calls(calls, [&] {
        sink = key.verify_key().verify(msg, sig);
      }));
  add("seal", calls, time_calls(calls, [&] {
        sink = opener.sealer().seal(rng, msg).ephemeral.is_odd();
      }));
  add("open", calls,
      time_calls(calls, [&] { sink = opener.open(box).has_value(); }));
  const int hashes = 100 * calls;
  add("sha256-1500B", hashes,
      time_calls(hashes, [&] { sink = crypto::sha256(packet)[0] & 1; }));
  return table;
}

/// Asymmetric operations one verification query costs end to end: the
/// controller's and the querying client's counters after a single query.
std::uint64_t ops_per_query() {
  workload::ScenarioConfig config;
  config.generated = workload::linear(6);
  config.seed = 71;
  workload::ScenarioRuntime runtime(std::move(config));
  const auto& hosts = runtime.hosts();

  core::Query query;
  query.kind = core::QueryKind::ReachableEndpoints;
  (void)runtime.query_and_wait(hosts[0], query, 100 * sim::kMillisecond);
  return runtime.rvaas().stats().crypto_ops +
         runtime.client(hosts[0]).stats().crypto_ops;
}

/// The comparison table the experiment records.
util::Table budget_comparison(std::uint64_t rvaas_ops) {
  util::Table table({"scheme", "packets", "asym-ops", "ops/packet"});
  for (const std::uint64_t packets : {1000ull, 100000ull, 10000000ull}) {
    // Strawman: every packet signed at source and verified at destination.
    const std::uint64_t strawman = 2 * packets;
    table.add_row({"per-packet signatures", std::to_string(packets),
                   std::to_string(strawman), "2.00"});
    table.add_row({"RVaaS (one query)", std::to_string(packets),
                   std::to_string(rvaas_ops),
                   util::Table::fmt(static_cast<double>(rvaas_ops) /
                                        static_cast<double>(packets),
                                    6)});
  }
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);

  const util::Table primitives = time_primitives(args.smoke ? 5 : 500);
  std::puts("asymmetric primitives, per call:");
  primitives.print();

  const std::uint64_t rvaas_ops = ops_per_query();
  const util::Table budget = budget_comparison(rvaas_ops);
  std::puts("\nCrypto budget: per-packet signing strawman vs RVaaS per-query");
  std::puts("(counts of asymmetric operations; simulated protocol run on a");
  std::puts("linear-6 network, 1 query, vs a flow of N packets).\n");
  budget.print();
  std::printf("\nRVaaS asymmetric ops per verification query: %llu\n",
              static_cast<unsigned long long>(rvaas_ops));
  std::puts("(seal + unseal + N auth signatures/verifications + reply");
  std::puts("sign/seal + client-side open/verify — independent of traffic");
  std::puts("volume, as the paper requires.)");

  if (!args.json.empty()) {
    if (!util::write_json_tables(args.json, {{"primitives", &primitives},
                                             {"budget", &budget}})) {
      return 1;
    }
    std::printf("JSON written to %s\n", args.json.c_str());
  }
  return 0;
}
