// Stand-alone RVaaS wire client: connects to an rvaas_server, verifies the
// enclave attestation from the WELCOME, then runs one-shot queries or holds
// a standing subscription and prints verified pushes.
//
//   rvaas_client --port P                       query ReachableEndpoints
//   rvaas_client --port P --kind geo            other kinds: reach, sources,
//                                               isolation, geo, pathlen,
//                                               fairness, transfer
//   rvaas_client --port P --kind pathlen --peer H
//                                               PathLength to host H
//   rvaas_client --port P --watch               subscribe + print pushes
//   rvaas_client --server A --host H --seed S   explicit identity/slot
//   rvaas_client --no-attest                    skip quote verification

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/client.hpp"

using namespace rvaas;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

std::optional<core::QueryKind> parse_kind(const std::string& name) {
  if (name == "reach") return core::QueryKind::ReachableEndpoints;
  if (name == "sources") return core::QueryKind::ReachingSources;
  if (name == "isolation") return core::QueryKind::Isolation;
  if (name == "geo") return core::QueryKind::Geo;
  if (name == "pathlen") return core::QueryKind::PathLength;
  if (name == "fairness") return core::QueryKind::Fairness;
  if (name == "transfer") return core::QueryKind::TransferSummary;
  return std::nullopt;
}

void print_reply(const core::QueryReply& reply, bool signature_ok) {
  std::printf("reply id=%llu kind=%s signature=%s\n",
              static_cast<unsigned long long>(reply.request_id),
              core::to_string(reply.kind), signature_ok ? "ok" : "BAD");
  for (const auto& ep : reply.endpoints) {
    std::printf("  endpoint sw=%u port=%u %s%s", ep.access_point.sw.value,
                ep.access_point.port.value, ep.dark ? "dark " : "",
                ep.authenticated ? "authenticated" : "unauthenticated");
    if (ep.authenticated_as) {
      std::printf(" as host %u", ep.authenticated_as->value);
    }
    std::printf("\n");
  }
  if (!reply.endpoints.empty()) {
    std::printf("  auth %u/%u answered\n", reply.auth.responded,
                reply.auth.issued);
  }
  for (const auto& j : reply.jurisdictions) {
    std::printf("  jurisdiction %s\n", j.c_str());
  }
  for (const auto& m : reply.fairness) {
    std::printf("  fairness %s=%llu\n", m.name.c_str(),
                static_cast<unsigned long long>(m.value));
  }
  for (const auto& e : reply.transfer_summary) {
    std::printf("  egress sw=%u port=%u cubes=%u\n", e.egress.sw.value,
                e.egress.port.value, e.cube_count);
  }
  if (reply.kind == core::QueryKind::PathLength) {
    std::printf("  path found=%d installed=%u optimal=%u\n", reply.path_found,
                reply.installed_path_length, reply.optimal_path_length);
  }
  if (reply.freshness.degraded()) {
    std::printf("  DEGRADED staleness=%lluns unreachable_switches=%zu\n",
                static_cast<unsigned long long>(reply.freshness.max_staleness),
                reply.freshness.unreachable.size());
  } else {
    std::printf("  freshness: footprint fully healthy\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  net::WireClientConfig config;
  core::QueryKind kind = core::QueryKind::ReachableEndpoints;
  std::optional<sdn::HostId> peer;
  bool watch = false;
  int timeout_ms = 5000;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--server" && i + 1 < argc) {
      config.server = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      config.port =
          static_cast<std::uint16_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (arg == "--host" && i + 1 < argc) {
      config.requested_host =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (arg == "--seed" && i + 1 < argc) {
      config.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--kind" && i + 1 < argc) {
      const auto parsed = parse_kind(argv[++i]);
      if (!parsed) {
        std::fprintf(stderr, "unknown query kind: %s\n", argv[i]);
        return 2;
      }
      kind = *parsed;
    } else if (arg == "--peer" && i + 1 < argc) {
      peer = sdn::HostId(
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0)));
    } else if (arg == "--watch") {
      watch = true;
    } else if (arg == "--timeout" && i + 1 < argc) {
      timeout_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 0));
    } else if (arg == "--no-attest") {
      config.verify_attestation = false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.port == 0) {
    std::fprintf(stderr, "--port is required (see rvaas_server output)\n");
    return 2;
  }

  net::WireClient client(config);
  const net::WelcomeStatus status = client.connect();
  if (status != net::WelcomeStatus::Ok) {
    std::fprintf(stderr, "connect failed (welcome status %d)\n",
                 static_cast<int>(status));
    return 1;
  }
  std::printf("session established: host=%u access_point=sw%u:%u%s\n",
              client.host().value, client.access_point().sw.value,
              client.access_point().port.value,
              config.verify_attestation ? " (attestation verified)" : "");

  if (!watch) {
    core::Query query;
    query.kind = kind;
    query.peer = peer;
    const net::WireClient::Outcome outcome = client.query(query, timeout_ms);
    if (outcome.timed_out || !outcome.reply) {
      std::fprintf(stderr, "query timed out\n");
      return 1;
    }
    print_reply(*outcome.reply, outcome.signature_ok);
    return outcome.signature_ok ? 0 : 1;
  }

  core::Property property;
  property.kind = kind;
  property.peer = peer;
  const std::uint64_t sub_id =
      client.subscribe(property, core::NotifyPolicy::EveryChange);
  std::printf("subscribed id=%llu; waiting for pushes (^C to stop)\n",
              static_cast<unsigned long long>(sub_id));
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop) {
    const auto event = client.wait_notification(500);
    if (!event) continue;
    std::printf("push sub=%llu seq=%llu epoch=%llu %s verdict=%s\n",
                static_cast<unsigned long long>(event->subscription_id),
                static_cast<unsigned long long>(event->sequence),
                static_cast<unsigned long long>(event->epoch),
                core::to_string(event->kind),
                event->verdict.ok ? "ok" : "VIOLATED");
    print_reply(event->reply, true);
    std::fflush(stdout);
  }
  client.unsubscribe(sub_id);
  return 0;
}
