#pragma once
// Deterministic adversarial scenario schedules: the input language of the
// fuzzer (fuzzer.hpp). A Schedule is a scenario configuration plus a list of
// steps — attack installs/reverts, flow/meter churn, one-shot queries,
// standing subscriptions, settle periods, snapshot identity resets — all
// derived from one seed. Step operands are raw draws that the harness
// resolves against live runtime state ("pick modulo choices"), so a
// schedule stays executable after the shrinker (shrink.hpp) removes
// arbitrary steps, and a repro string replays bit-identically.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace rvaas::fuzz {

enum class StepKind : std::uint8_t {
  Settle = 0,     ///< run the loop for (1 + a % 8) ms of simulated time
  FlowChurn,      ///< random provider rule: a = domain/switch, b/c = shape
  RemoveChurn,    ///< delete installed churn rule #a (no-op when none)
  MeterChurn,     ///< meter mod: a = switch, b = rate, c = meter id/burst
  Query,          ///< one-shot query: a = client, b = kind, c = constraint
  Subscribe,      ///< standing subscription: a = client, b = kind, c = shape
  Unsubscribe,    ///< drop tracked subscription #a (no-op when none)
  LaunchAttack,   ///< a = class (mod 6), b = victim, c = class-specific aux
  RevertAttack,   ///< revert active attack #a (no-op when none)
  SnapshotReset,  ///< RVaaS snapshot identity reset (restart simulation)
  MassSubscribe,  ///< bulk-register 4 + b % 5 untracked subscriptions across
                  ///< tenants: a = client base, c = query shape base. Grows
                  ///< the monitor registry so the index-vs-linear oracle
                  ///< exercises multi-entry index buckets, not just the
                  ///< kMaxTrackedSubs handful.

  // Control-channel fault steps (sdn/fault_plane.hpp). Only generated when
  // generate_schedule() is asked for them; the harness forces fixed polling
  // for any schedule that contains one so degraded-health timing is
  // deterministic.
  InjectDrop,       ///< a = switch, b: drop p = 0.25*(1 + b % 4) both
                    ///< directions, c: c % 4 == 0 adds 25% duplication
  InjectDelay,      ///< a = switch, b: extra delay up to (1 + b % 5) ms
  InjectPartition,  ///< a = first switch, b: window (5 + b % 6) ms,
                    ///< c: 1 + c % 3 consecutive switches
  InjectCrash,      ///< a = switch: agent crash/restart (voids in-flight)
  HealFaults,       ///< clear all faults, then require full reconvergence
};
constexpr std::size_t kStepKindCount = 16;

const char* to_string(StepKind kind);

/// One schedule action. Operands are raw bounded draws; meaning is
/// per-kind (see StepKind comments and the harness).
struct Step {
  StepKind kind = StepKind::Settle;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;

  bool operator==(const Step&) const = default;
};

enum class TopologyKind : std::uint8_t {
  Linear = 0,
  Ring,
  Grid,
};
constexpr std::size_t kTopologyKindCount = 3;

const char* to_string(TopologyKind kind);

/// Scenario-level choices fixed for the whole schedule.
struct ScheduleConfig {
  TopologyKind topology = TopologyKind::Linear;
  std::uint32_t topo_size = 4;  ///< switch count (grid: see harness mapping)
  std::uint32_t tenant_count = 1;
  std::uint8_t polling = 0;  ///< 0 randomized, 1 fixed, 2 disabled
  /// Attach a peer RVaaS domain behind a border port and run the
  /// federation-vs-flat differential oracle (Linear topologies only).
  bool federation = false;
  std::uint64_t seed = 1;  ///< runtime seed (keys, poll jitter, nonces)

  bool operator==(const ScheduleConfig&) const = default;
};

struct Schedule {
  ScheduleConfig config;
  std::vector<Step> steps;

  bool operator==(const Schedule&) const = default;

  /// Self-contained single-line repro, parseable by parse_repro(). Paste
  /// into fuzz::replay() (see fuzzer.hpp) to rerun a shrunk failure as a
  /// plain gtest.
  std::string repro() const;
};

/// Largest grid size code the generator draws (and parse_repro accepts).
/// Codes map to grid dimensions in the harness: 0=2x2, 1=3x2, 2=3x3,
/// 3=4x3, 4=4x4.
constexpr std::uint32_t kMaxGridSizeCode = 4;

/// Derives a complete schedule (config + steps) from one seed. Equal seeds
/// always produce equal schedules, across processes and platforms.
/// `max_grid_code` caps the grid size draw (soak tooling exposes it as
/// --max-grid); the default sweeps the full range. With `include_faults`
/// the step weight table adds the five control-channel fault kinds (and a
/// trailing HealFaults so every run ends with a convergence check); without
/// it the table is byte-identical to the historical one, so pinned corpora
/// stay pinned.
Schedule generate_schedule(std::uint64_t seed,
                           std::uint32_t max_grid_code = kMaxGridSizeCode,
                           bool include_faults = false);

/// Parses Schedule::repro() output; nullopt on malformed input.
std::optional<Schedule> parse_repro(const std::string& text);

}  // namespace rvaas::fuzz
