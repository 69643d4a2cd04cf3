#include "hsa/reachability.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "util/ensure.hpp"

namespace rvaas::hsa {

using sdn::PortRef;
using sdn::SwitchId;

namespace {

/// Sorts and uniques in place — one sort instead of a node-based set.
template <class T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

std::vector<sdn::HostId> ReachabilityResult::reached_hosts() const {
  std::vector<sdn::HostId> out;
  out.reserve(endpoints.size());
  for (const auto& e : endpoints) {
    if (e.host) out.push_back(*e.host);
  }
  sort_unique(out);
  return out;
}

std::vector<PortRef> ReachabilityResult::reached_ports() const {
  std::vector<PortRef> out;
  out.reserve(endpoints.size());
  for (const auto& e : endpoints) out.push_back(e.egress);
  sort_unique(out);
  return out;
}

std::vector<SwitchId> ReachabilityResult::traversed_switches() const {
  std::vector<SwitchId> out;
  for (const auto& e : endpoints) {
    out.insert(out.end(), e.path.begin(), e.path.end());
  }
  for (const auto& c : controller_hits) {
    out.insert(out.end(), c.path.begin(), c.path.end());
  }
  for (const auto& l : loops) {
    out.insert(out.end(), l.path.begin(), l.path.end());
  }
  sort_unique(out);
  return out;
}

bool ReachabilityResult::depends_on(std::span<const SwitchId> dirty) const {
  // Both sides sorted: a two-pointer sweep finds any common switch.
  auto a = footprint.begin();
  auto b = dirty.begin();
  while (a != footprint.end() && b != dirty.end()) {
    if (*a == *b) return true;
    if (*a < *b) {
      ++a;
    } else {
      ++b;
    }
  }
  return false;
}

ReachabilityResult NetworkModel::reach(PortRef ingress, const HeaderSpace& hs,
                                       std::size_t max_depth) const {
  util::ensure(topo_->valid_port(ingress), "bad ingress port");
  ReachabilityResult result;

  struct WorkItem {
    PortRef in;
    HeaderSpace space;
    std::vector<SwitchId> path;
    std::vector<std::pair<SwitchId, sdn::FlowEntryId>> rules;
  };
  std::deque<WorkItem> queue;
  queue.push_back(WorkItem{ingress, hs, {}, {}});

  // Dominance pruning: spaces already explored per (switch, in-port). A new
  // space is narrowed by what was seen; only the new part continues. This
  // bounds the walk even through loops (each visit strictly grows coverage).
  // The hottest associative lookup of the BFS inner loop — hashed, not
  // ordered (PortRef hashes in sdn/types.hpp).
  std::unordered_map<PortRef, std::vector<Wildcard>> visited;

  // Switches the walk consulted; becomes result.footprint (deduped at the
  // end — no per-visit tree walk in the inner loop).
  std::vector<SwitchId> touched;

  while (!queue.empty()) {
    WorkItem item = std::move(queue.front());
    queue.pop_front();

    if (item.path.size() >= max_depth) continue;
    if (item.space.is_empty()) continue;

    // Loop check: re-entering a switch already on this walk's path.
    if (std::find(item.path.begin(), item.path.end(), item.in.sw) !=
        item.path.end()) {
      auto loop_path = item.path;
      loop_path.push_back(item.in.sw);
      result.loops.push_back(LoopFinding{std::move(loop_path), item.space});
      continue;
    }

    // Dominance pruning against previously explored spaces at this port.
    std::vector<Wildcard>& seen_here = visited[item.in];
    HeaderSpace fresh = item.space;
    for (const Wildcard& seen : seen_here) {
      fresh = fresh.subtract(seen);
    }
    fresh.compact();
    if (fresh.is_empty()) continue;
    // Canonical insertion keeps the per-port coverage list merged as the
    // BFS produces it: fewer, larger cubes mean the dominance subtraction
    // above appends fewer diffs to every later space through this port —
    // the in-BFS half of the cube-blowup fix (the other half is bounded
    // lazy diffs in HeaderSpace::subtract). The flatten is budgeted:
    // a cube whose plain form would blow past the materialization bound is
    // left out of the coverage list (an under-approximation — sound here,
    // it only means that slice can be explored again).
    for (Wildcard& cube :
         fresh.resolve_within(HeaderSpace::kMaxMaterializeCubes)) {
      insert_canonical(seen_here, std::move(cube));
    }

    // The walk is about to consult this switch's transfer function (present
    // or not): the result now depends on its table content.
    touched.push_back(item.in.sw);

    const auto tf_it = transfer_->find(item.in.sw);
    if (tf_it == transfer_->end()) continue;  // switch absent from snapshot

    auto path = item.path;
    path.push_back(item.in.sw);

    for (TfResult& tr : tf_it->second.apply(item.in.port, fresh)) {
      ++result.steps;
      if (tr.kind == TfOutput::Kind::Controller) {
        result.controller_hits.push_back(
            ControllerHit{item.in.sw, tr.cookie, std::move(tr.space), path});
        continue;
      }
      auto rules = item.rules;
      rules.emplace_back(item.in.sw, tr.entry_id);
      const PortRef out{item.in.sw, tr.port};
      if (const auto peer = topo_->link_peer(out)) {
        queue.push_back(
            WorkItem{*peer, std::move(tr.space), path, std::move(rules)});
      } else {
        result.endpoints.push_back(
            ReachedEndpoint{out, topo_->host_at(out), std::move(tr.space),
                            path, std::move(rules)});
      }
    }
  }
  sort_unique(touched);
  result.footprint = std::move(touched);
  return result;
}

ReachabilityResult NetworkModel::reach_from_host(sdn::HostId host) const {
  const auto ports = topo_->host_ports(host);
  util::ensure(!ports.empty(), "host has no access point");
  return reach(ports.front(), HeaderSpace::all());
}

}  // namespace rvaas::hsa
