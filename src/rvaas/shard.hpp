#pragma once
// Switch-partition sharding for the L2 cache (ReachCache, engine.hpp):
// every switch hashes to one of kSwitchShards partitions, entries home by
// their ingress switch's partition, and each footprint compresses to a
// partition mask — so the eviction walk skips whole shards the churn cannot
// touch and its cost tracks the dirty partition rather than the total
// cache size.

#include <cstdint>
#include <span>

#include "sdn/types.hpp"

namespace rvaas::core {

/// Number of switch partitions. A power of two so the modulo compiles to a
/// mask; at most 32 so a partition mask fits in one uint32_t.
inline constexpr std::size_t kSwitchShards = 16;

/// The partitioning rule: dense generator-assigned switch ids round-robin
/// across shards, so grid/linear neighborhoods spread instead of clumping.
constexpr std::size_t switch_shard(sdn::SwitchId sw) noexcept {
  return static_cast<std::size_t>(sw.value) % kSwitchShards;
}

/// One bit per shard (kSwitchShards <= 32).
constexpr std::uint32_t switch_shard_bit(sdn::SwitchId sw) noexcept {
  return std::uint32_t{1} << switch_shard(sw);
}

/// OR of shard bits over a dependency footprint: a cheap conservative
/// summary — if footprint_mask & dirty_mask == 0, no footprint switch is
/// dirty (the converse needs the exact intersect).
inline std::uint32_t footprint_shard_mask(
    std::span<const sdn::SwitchId> footprint) noexcept {
  std::uint32_t mask = 0;
  for (const sdn::SwitchId sw : footprint) mask |= switch_shard_bit(sw);
  return mask;
}

}  // namespace rvaas::core
