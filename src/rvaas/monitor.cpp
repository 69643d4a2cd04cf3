#include "rvaas/monitor.hpp"

#include <algorithm>
#include <atomic>

#include "util/fnv.hpp"

namespace rvaas::core {

using sdn::SwitchId;

namespace {

// TEST-ONLY fault switch (see test_fault_freeze_index).
std::atomic<bool> g_index_frozen{false};

/// Two-pointer intersection test over sorted switch-id vectors.
bool intersects(const std::vector<SwitchId>& a, const std::vector<SwitchId>& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

bool index_frozen() {
  return g_index_frozen.load(std::memory_order_relaxed);
}

}  // namespace

void PropertyMonitor::test_fault_freeze_index(bool on) {
  g_index_frozen.store(on, std::memory_order_relaxed);
}

std::size_t PropertyMonitor::KeyHash::operator()(const Key& k) const noexcept {
  return static_cast<std::size_t>(
      util::fnv1a_mix(static_cast<std::uint64_t>(k.first.value), k.second));
}

void PropertyMonitor::index_insert(const std::vector<SwitchId>& footprint,
                                   const Key& key) {
  if (index_frozen()) return;
  for (const SwitchId sw : footprint) index_[sw.value].insert(key);
}

void PropertyMonitor::index_erase(const std::vector<SwitchId>& footprint,
                                  const Key& key) {
  if (index_frozen()) return;
  for (const SwitchId sw : footprint) {
    const auto it = index_.find(sw.value);
    if (it == index_.end()) continue;
    it->second.erase(key);
    if (it->second.empty()) index_.erase(it);
  }
}

std::size_t PropertyMonitor::index_entries() const {
  std::size_t n = 0;
  for (const auto& [sw, keys] : index_) n += keys.size();
  return n;
}

void PropertyMonitor::subscribe(Subscription sub) {
  ++stats_.subscribes;
  const Key key{sub.client, sub.id};
  const auto it = subs_.find(key);
  if (it != subs_.end()) {
    // A retransmitted subscribe for the identical property is idempotent:
    // keep the evaluation and push state so the client neither gets a
    // duplicate baseline nor loses footprint confinement. Exact equality,
    // not fingerprints — a hash collision must not leave a new property
    // silently unmonitored.
    if (it->second.property == sub.property &&
        it->second.policy == sub.policy) {
      it->second.request_point = sub.request_point;
      return;
    }
    // A genuine replacement re-evaluates from scratch, but the notification
    // sequence must keep increasing — the client's replay guard remembers
    // the old high-water mark. The old registry footprint leaves the index
    // with the subscription it belonged to.
    sub.sequence = it->second.sequence;
    if (it->second.evaluated) index_erase(it->second.footprint, key);
    unevaluated_.erase(key);
  } else {
    ++per_client_[sub.client];
  }
  // Index invariant: entries mirror the registry footprints of evaluated
  // subscriptions exactly. The controller path always arrives unevaluated
  // (baseline pending); the bench registers pre-evaluated synthetic
  // subscriptions whose footprints must be indexed immediately.
  if (sub.evaluated) {
    index_insert(sub.footprint, key);
  } else {
    unevaluated_.insert(key);
  }
  subs_[key] = std::move(sub);
}

bool PropertyMonitor::unsubscribe(sdn::HostId client, std::uint64_t id) {
  const Key key{client, id};
  const auto it = subs_.find(key);
  if (it == subs_.end()) return false;
  if (it->second.evaluated) index_erase(it->second.footprint, key);
  unevaluated_.erase(key);
  if (const auto pc = per_client_.find(client); pc != per_client_.end()) {
    if (--pc->second == 0) per_client_.erase(pc);
  }
  subs_.erase(it);
  ++stats_.unsubscribes;
  return true;
}

const PropertyMonitor::Subscription* PropertyMonitor::find(
    sdn::HostId client, std::uint64_t id) const {
  const auto it = subs_.find(Key{client, id});
  return it == subs_.end() ? nullptr : &it->second;
}

std::vector<std::uint64_t> PropertyMonitor::ids_of(sdn::HostId client) const {
  std::vector<std::uint64_t> out;
  // subs_ is ordered by (client, id): one lower_bound, then a contiguous run.
  for (auto it = subs_.lower_bound(Key{client, 0});
       it != subs_.end() && it->first.first == client; ++it) {
    out.push_back(it->first.second);
  }
  return out;
}

std::size_t PropertyMonitor::active_for(sdn::HostId client) const {
  const auto it = per_client_.find(client);
  return it == per_client_.end() ? 0 : it->second;
}

std::vector<PropertyMonitor::Key> PropertyMonitor::linear_wakeups(
    const SnapshotManager& snap, bool force_all) const {
  const std::uint64_t epoch = snap.epoch();
  std::vector<Key> out;
  // dirty_since() is an O(#switches) scan whose result arrives sorted and
  // duplicate-free (the change clock is an ordered map), so the per-epoch
  // vectors need no per-subscription dedup — memoize one scan per distinct
  // evaluated_epoch. Epoch keys are small uniform integers; a reserved
  // unordered map beats the ordered tree this memo used to be.
  std::unordered_map<std::uint64_t, std::vector<SwitchId>> dirty_by_epoch;
  dirty_by_epoch.reserve(16);
  for (const auto& [key, sub] : subs_) {
    if (force_all || !sub.evaluated) {
      out.push_back(key);
      continue;
    }
    if (sub.evaluated_epoch >= epoch) continue;
    auto dirty_it = dirty_by_epoch.find(sub.evaluated_epoch);
    if (dirty_it == dirty_by_epoch.end()) {
      dirty_it = dirty_by_epoch
                     .emplace(sub.evaluated_epoch,
                              snap.dirty_since(sub.evaluated_epoch))
                     .first;
    }
    if (intersects(sub.footprint, dirty_it->second)) out.push_back(key);
  }
  return out;  // subs_ is ordered, so this is ascending Key order
}

std::vector<PropertyMonitor::Key> PropertyMonitor::select_wakeups(
    const SnapshotManager& snap, bool force_all, bool& used_fallback) const {
  used_fallback = false;
  if (force_all) {
    std::vector<Key> out;
    out.reserve(subs_.size());
    for (const auto& [key, sub] : subs_) out.push_back(key);
    return out;
  }
  // The index answers "dirty since the last sweep"; against a snapshot the
  // anchors were not established on (first sweep, a different snapshot
  // instance, an epoch that moved backwards) that window is meaningless —
  // run the exact linear selection instead and re-anchor from its result.
  if (swept_instance_ == 0 || snap.instance_id() != swept_instance_ ||
      snap.epoch() < swept_epoch_) {
    used_fallback = true;
    return linear_wakeups(snap, false);
  }
  std::vector<Key> out(unevaluated_.begin(), unevaluated_.end());
  for (const SwitchId sw : snap.dirty_since(swept_epoch_)) {
    const auto it = index_.find(sw.value);
    if (it == index_.end()) continue;
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<PropertyMonitor::Key> PropertyMonitor::indexed_wakeups(
    const SnapshotManager& snap, bool force_all) const {
  bool used_fallback = false;
  return select_wakeups(snap, force_all, used_fallback);
}

std::vector<PropertyMonitor::Wakeup> PropertyMonitor::sweep(
    const SnapshotManager& snap, const QueryEngine::EvalContext& base_ctx,
    bool force_all) {
  ++stats_.sweeps;
  const std::uint64_t epoch = snap.epoch();

  // Select through the inverted footprint index: O(affected) against the
  // switches dirtied since the last sweep, instead of the retired O(subs)
  // per-subscription scan (linear_wakeups, kept as fallback and oracle).
  bool used_fallback = false;
  const std::vector<Key> selected =
      select_wakeups(snap, force_all, used_fallback);
  ++(used_fallback ? stats_.fallback_sweeps : stats_.indexed_sweeps);
  stats_.skipped += subs_.size() - selected.size();
  // The anchors advance even on an empty selection: an empty wakeup set
  // proves every evaluated subscription is clean through `epoch`, which is
  // exactly what makes dirty_since(swept_epoch_) a complete filter for the
  // next sweep.
  swept_epoch_ = epoch;
  swept_instance_ = snap.instance_id();
  if (selected.empty()) return {};

  // Phase 1: evaluate every wakeup against one L1 compilation. Nothing in
  // the registry moves yet, so a throwing evaluation leaves it untouched.
  const hsa::NetworkModel model = engine_->model(snap);
  std::vector<Wakeup> out;
  out.reserve(selected.size());
  for (const Key& key : selected) {
    const Subscription& sub = subs_.at(key);
    QueryEngine::EvalContext ctx = base_ctx;
    ctx.from = sub.request_point;
    Wakeup& w = out.emplace_back();
    w.key = key;
    w.request_point = sub.request_point;
    w.evaluation = engine_->evaluate(model, snap, sub.property, ctx);
    w.evaluation.reply.request_id = sub.id;
    w.epoch = epoch;
    w.property_fingerprint = sub.property.fingerprint();
  }

  // Phase 2: move each fresh footprint into the registry. This is the
  // index-update hook: entries change in the same step the registry
  // footprint does, or the next selection consults a stale index.
  // Unchanged footprints (the steady state under confined churn) skip it.
  for (Wakeup& w : out) {
    Subscription& sub = subs_.at(w.key);
    std::vector<SwitchId>& fresh = w.evaluation.footprint;
    if (!sub.evaluated) {
      unevaluated_.erase(w.key);
      index_insert(fresh, w.key);
    } else if (sub.footprint != fresh) {
      index_erase(sub.footprint, w.key);
      index_insert(fresh, w.key);
    }
    // Moved, not copied: the registry is the footprint's home from here on
    // (wakeup consumers read it through find(), not the Evaluation).
    sub.footprint = std::move(fresh);
    sub.evaluated_epoch = epoch;
    sub.evaluated = true;
  }
  stats_.wakeups += out.size();
  return out;
}

std::vector<PropertyMonitor::DegradedPush> PropertyMonitor::mark_degraded(
    const std::vector<SwitchId>& unreachable) {
  std::vector<DegradedPush> out;
  if (unreachable.empty()) return out;
  for (auto& [key, sub] : subs_) {
    if (sub.degraded_notified) continue;  // debt already outstanding
    if (!sub.evaluated) continue;  // no footprint yet; baseline will tell
    if (!intersects(sub.footprint, unreachable)) continue;
    sub.degraded_notified = true;
    ++sub.sequence;
    ++stats_.degraded;
    out.push_back(DegradedPush{key, sub.request_point, sub.sequence,
                               sub.property.fingerprint(),
                               sub.evaluated_epoch, sub.property.kind});
  }
  return out;  // subs_ is ordered, so pushes go out in ascending Key order
}

PropertyMonitor::Decision PropertyMonitor::commit(
    const Key& key, const QueryReply& final_reply) {
  const auto it = subs_.find(key);
  if (it == subs_.end()) return {};  // unsubscribed while in flight
  Subscription& sub = it->second;

  const Verdict verdict = evaluate_reply(final_reply, sub.property.expect);

  // The first committed outcome is always news (the baseline push doubles
  // as the subscribe acknowledgement); afterwards the policy decides. A
  // degraded_notified debt forces the push regardless — the client heard
  // "verification degraded" and is owed a signed resume even if the
  // verdict never moved.
  bool push = !sub.last_ok.has_value() || sub.degraded_notified;
  util::Bytes payload;
  if (sub.policy == NotifyPolicy::EveryChange) {
    util::ByteWriter w;
    final_reply.serialize(w);
    payload = w.take();
    push = push || payload != sub.last_payload;
  } else if (!push) {
    push = *sub.last_ok != verdict.ok;
  }
  if (!push) {
    ++stats_.suppressed;
    return {};
  }
  if (sub.degraded_notified) {
    sub.degraded_notified = false;
    ++stats_.degraded_resumes;
  }

  if (sub.policy == NotifyPolicy::EveryChange) {
    sub.last_payload = std::move(payload);
  }
  sub.last_ok = verdict.ok;
  ++sub.sequence;
  Decision decision;
  decision.push = verdict.ok ? Push::AllClear : Push::ViolationAlert;
  decision.sequence = sub.sequence;
  if (verdict.ok) {
    ++stats_.all_clears;
  } else {
    ++stats_.alerts;
  }
  return decision;
}

}  // namespace rvaas::core
