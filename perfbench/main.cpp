// perfbench: end-to-end and per-layer benchmark of the RVaaS wire service.
//
//   perfbench --workload query_warm|query_cold|churn_alert --seed N
//             --seconds S --trace 0|1 [--spans FILE] [--sha GIT_SHA]
//
// Prints the run's metadata, every metric with its unit and sample count,
// and as the last line one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics untraced (--trace 0), the per-layer
// metrics traced (--trace 1). Exits non-zero when any output check failed.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Metric;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "query_warm|query_cold|churn_alert --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--sha GIT_SHA]\n",
               why);
  std::exit(2);
}

void print_metric(const char* tag, const Metric& m) {
  std::printf("%-12s %-28s %14.4f %-6s (n=%zu)\n", tag, m.name.c_str(),
              m.value, m.unit.c_str(), m.samples);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string sha = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 0);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value.c_str());
      have_seconds = true;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--spans") {
      options.spans_path = value;
    } else if (arg == "--sha") {
      sha = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (options.workload != "query_warm" && options.workload != "query_cold" &&
      options.workload != "churn_alert") {
    usage(("unknown workload " + options.workload).c_str());
  }
  if (options.seconds < 1 || options.seconds > 60) {
    usage("--seconds must be within 1..60");
  }

  std::printf(
      "# meta {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%d,\"trace\":%d,"
      "\"sessions\":%zu,\"nproc\":%ld,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"git_sha\":\"%s\","
      "\"transport\":\"loopback TCP\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0,
      perfbench::session_count(options.workload),
      ::sysconf(_SC_NPROCESSORS_ONLN),
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, sha.c_str());
  std::fflush(stdout);

  perfbench::Result result = perfbench::run_workload(options);

  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.fail("metric " + m.name + " is not finite");
    }
  }
  for (const Metric& m : result.metrics) print_metric("metric", m);
  for (const Metric& m : result.diagnostics) print_metric("diagnostic", m);
  const double fail_ratio =
      result.attempted == 0 ? 1.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::printf("%-12s %-28s %14.4f %-6s (n=%llu)\n", "diagnostic", "fail_ratio",
              fail_ratio, "1",
              static_cast<unsigned long long>(result.attempted));
  for (const std::string& e : result.errors) {
    std::printf("FAIL: %s\n", e.c_str());
  }

  const bool correct = result.correct() && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
