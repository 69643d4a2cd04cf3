#include "replay.hpp"

#include <algorithm>

#include "net/framing.hpp"
#include "rvaas/inband.hpp"
#include "util/ensure.hpp"

namespace perfbench {

namespace {

using namespace rvaas;
namespace inband = core::inband;

/// Stand-in keys for the parties that hold their own secrets (the wire
/// client and the in-process auth responders): same group, same cost.
struct PeerKeys {
  explicit PeerKeys(util::Rng& rng)
      : client_box(crypto::BoxOpener::generate(rng)),
        responder(crypto::SigningKey::generate(rng)) {}
  crypto::BoxOpener client_box;
  crypto::SigningKey responder;
};

struct Ctx {
  const ReplayInput& in;
  Tracer& t;
  const enclave::Enclave& enclave;
  PeerKeys keys;
  util::Rng rng;
};

sdn::Packet unframe(const util::Bytes& frame) {
  net::FrameDecoder decoder;
  util::ensure(decoder.feed(frame), "replay frame rejected");
  const auto payload = decoder.take();
  util::ensure(payload.has_value(), "replay frame incomplete");
  auto packet = net::decode_inband(*payload);
  util::ensure(packet.has_value(), "replay packet undecodable");
  return std::move(*packet);
}

void framing(Ctx& c, std::uint32_t root, std::uint64_t req,
             const sdn::Packet& packet) {
  util::Bytes frame;
  {
    Scope s(&c.t, "net.encode", root, req);
    frame = net::encode_frame(net::encode_inband(packet));
  }
  Scope s(&c.t, "net.decode", root, req);
  (void)unframe(frame);
}

/// Client seal -> framing -> enclave open, as a wire request travels.
void request_leg(Ctx& c, std::uint32_t root, std::uint64_t req,
                 const ReplayOp& op) {
  core::QueryRequest request;
  request.request_id = req;
  request.client = c.in.hosts[op.session];
  request.query = op.property.query();
  sdn::Packet packet;
  {
    Scope s(&c.t, "crypto.seal", root, req);
    packet = inband::make_request_packet(
        c.in.addressing->of(request.client), request, c.enclave.box_public(),
        c.rng);
  }
  framing(c, root, req, packet);
  Scope s(&c.t, "crypto.open", root, req);
  util::ensure(inband::open_request(packet, c.enclave).has_value(),
               "replay request did not open");
}

/// One in-band authentication target: the codec chain the controller and an
/// in-process responder run, each call spanned by the asymmetric operation
/// it performs.
void auth_target(Ctx& c, std::uint32_t root, std::uint64_t req,
                 sdn::PortRef target) {
  Scope round(&c.t, "auth.target", root, req);
  inband::AuthRequest request;
  request.request_id = req;
  request.nonce = c.rng.next_u64();
  request.target = target;
  const auto responder = c.in.topo->host_at(target);
  util::ensure(responder.has_value(), "auth target without a host");
  sdn::Packet out;
  {
    Scope s(&c.t, "crypto.sign", round.id(), req);
    out = inband::make_auth_request(request, c.enclave);
  }
  std::optional<inband::AuthRequest> seen;
  {
    Scope s(&c.t, "crypto.verify", round.id(), req);
    seen = inband::verify_auth_request(out, c.enclave.verify_key());
  }
  util::ensure(seen.has_value(), "replay auth request did not verify");
  inband::AuthReply reply;
  reply.request_id = seen->request_id;
  reply.nonce = seen->nonce;
  reply.client = *responder;
  sdn::Packet back;
  {
    Scope s(&c.t, "crypto.sign", round.id(), req);
    back = inband::make_auth_reply(c.in.addressing->of(*responder), reply,
                                   c.keys.responder);
  }
  Scope s(&c.t, "crypto.verify", round.id(), req);
  const auto parsed = inband::parse_auth_reply(back);
  util::ensure(parsed && c.keys.responder.verify_key().verify(
                             parsed->first.signing_payload(), parsed->second),
               "replay auth reply did not verify");
}

/// Enclave sign + seal -> framing -> client open + verify, as a reply or a
/// push travels. `packet` is the same message as built by the codec.
template <typename Message>
void reply_leg(Ctx& c, std::uint32_t root, std::uint64_t req,
               const Message& message, const sdn::Packet& packet) {
  crypto::Signature signature;
  {
    Scope s(&c.t, "crypto.sign", root, req);
    signature = c.enclave.sign(message.signing_payload());
  }
  util::ByteWriter inner;
  message.serialize(inner);
  inner.put_bytes(signature.serialize());
  crypto::SealedBox box;
  {
    Scope s(&c.t, "crypto.seal", root, req);
    box = c.keys.client_box.sealer().seal(c.rng, inner.data());
  }
  framing(c, root, req, packet);
  {
    Scope s(&c.t, "crypto.open", root, req);
    util::ensure(c.keys.client_box.open(box).has_value(),
                 "replay reply did not open");
  }
  Scope s(&c.t, "crypto.verify", root, req);
  util::ensure(c.enclave.verify_key().verify(message.signing_payload(),
                                             signature),
               "replay reply did not verify");
}

core::QueryEngine::EvalContext context_for(const ReplayInput& in,
                                           std::size_t session) {
  core::QueryEngine::EvalContext ctx;
  ctx.from = in.aps[session];
  ctx.addressing = in.addressing;
  return ctx;
}

/// The churn event the replay applies: a higher-priority copy of the
/// session's traffic toward its peer, sent to a dark port of its ingress
/// switch (the shape ExfiltrationAttack installs through the provider).
sdn::FlowUpdate event_update(const ReplayInput& in, std::size_t session,
                             bool add) {
  const sdn::PortRef ap = in.aps[session];
  sdn::FlowUpdate update;
  update.sw = ap.sw;
  update.kind = add ? sdn::FlowUpdateKind::Added : sdn::FlowUpdateKind::Removed;
  update.entry.id = sdn::FlowEntryId(0x7e57'0000'0000ull + session);
  update.entry.priority = 30;
  update.entry.cookie = 0xe4f1;
  update.entry.match =
      sdn::Match()
          .in_port(ap.port)
          .exact(sdn::Field::IpDst, in.addressing->of(in.peers[session]).ip);
  update.entry.actions = {
      sdn::output(in.topo->dark_ports(ap.sw).front().port)};
  update.entry.owner = sdn::ControllerId(1);
  return update;
}

bool touches(const std::vector<sdn::SwitchId>& footprint, sdn::SwitchId sw) {
  return std::binary_search(footprint.begin(), footprint.end(), sw);
}

/// Standing properties with the footprint of their last evaluation.
struct Standing {
  std::size_t session = 0;
  core::Property property;
  std::vector<sdn::SwitchId> footprint;
  core::QueryEngine::Evaluation last;
};

/// Re-evaluates every standing property whose footprint the event at `sw`
/// touched, as the monitor's sweep does. Returns the evaluation of
/// `standing[wanted]` if it woke.
std::optional<core::QueryEngine::Evaluation> reevaluate(
    Ctx& c, std::uint32_t parent, std::uint64_t req,
    const core::QueryEngine& engine, const hsa::NetworkModel& model,
    const core::SnapshotManager& snap, std::vector<Standing>& standing,
    sdn::SwitchId sw, std::size_t wanted) {
  std::optional<core::QueryEngine::Evaluation> out;
  Scope sweep(&c.t, "monitor.reeval", parent, req);
  for (std::size_t i = 0; i < standing.size(); ++i) {
    Standing& st = standing[i];
    if (!touches(st.footprint, sw)) continue;
    {
      Scope s(&c.t, "hsa.evaluate", sweep.id(), req);
      st.last = engine.evaluate(model, snap, st.property,
                                context_for(c.in, st.session));
    }
    st.footprint = st.last.footprint;
    if (i == wanted) out = st.last;
  }
  return out;
}

/// Probes that are not on any workload's blocking path but are measured on
/// every workload: a cold reach from the session's access point.
void reach_probe(Ctx& c, const core::EngineConfig& config,
                 const hsa::NetworkModel& model,
                 const core::SnapshotManager& snap, std::size_t session,
                 const core::Property& property, std::uint64_t req) {
  const core::QueryEngine cold(*c.in.topo, config);
  const hsa::HeaderSpace hs =
      core::QueryEngine::constraint_space(property.constraint);
  Scope s(&c.t, "hsa.reach", 0, req);
  (void)cold.reach(model, snap, c.in.aps[session], hs);
}

}  // namespace

void authenticate_all(const sdn::Topology& topo,
                      core::QueryEngine::Evaluation& ev) {
  for (core::EndpointInfo& e : ev.reply.endpoints) {
    if (std::find(ev.to_authenticate.begin(), ev.to_authenticate.end(),
                  e.access_point) == ev.to_authenticate.end()) {
      continue;
    }
    e.authenticated = true;
    e.authenticated_as = topo.host_at(e.access_point);
  }
  ev.reply.auth.issued = static_cast<std::uint32_t>(ev.to_authenticate.size());
  ev.reply.auth.responded = ev.reply.auth.issued;
}

void replay(const ReplayInput& in, Tracer& tracer) {
  util::Rng rng(in.seed);
  Ctx c{in, tracer, in.controller->enclave(), PeerKeys(rng),
        util::Rng(rng.next_u64())};
  const core::EngineConfig config = in.controller->engine().config();
  // A copy of the frozen view: same content, its own identity, so the
  // replay's churn events never touch the controller's state.
  core::SnapshotManager snap = in.controller->snapshot();
  const core::QueryEngine engine(*in.topo, config);
  hsa::NetworkModel model = engine.model(snap);  // full compile, untimed

  std::vector<Standing> standing;
  std::vector<std::size_t> sentinel(in.standing.size(), 0);
  for (std::size_t s = 0; s < in.standing.size(); ++s) {
    sentinel[s] = standing.size();
    for (const core::Property& p : in.standing[s]) {
      Standing st;
      st.session = s;
      st.property = p;
      st.last = engine.evaluate(model, snap, p, context_for(in, s));
      st.footprint = st.last.footprint;
      standing.push_back(std::move(st));
    }
  }

  sim::Time now = 1;
  if (!in.churn) {
    for (std::uint64_t k = 0; k < in.ops.size(); ++k) {
      const ReplayOp& op = in.ops[k];
      const auto ctx = context_for(in, op.session);
      if (in.l2_hits) (void)engine.evaluate(model, snap, op.property, ctx);
      const sdn::Packet reply_packet = inband::make_reply_packet(
          op.reply, c.enclave, c.keys.client_box.public_element(), c.rng);

      Scope root(&tracer, "path", 0, k);
      request_leg(c, root.id(), k, op);
      {
        Scope s(&tracer, "l1.model_clean", root.id(), k);
        model = engine.model(snap);
      }
      core::QueryEngine::Evaluation ev;
      if (in.l2_hits) {
        Scope s(&tracer, "l2.hit", root.id(), k);
        ev = engine.evaluate(model, snap, op.property, ctx);
      } else {
        const core::QueryEngine cold(*in.topo, config);
        Scope s(&tracer, "hsa.evaluate", root.id(), k);
        ev = cold.evaluate(model, snap, op.property, ctx);
      }
      for (const sdn::PortRef target : ev.to_authenticate) {
        auth_target(c, root.id(), k, target);
      }
      reply_leg(c, root.id(), k, op.reply, reply_packet);
    }
    for (std::uint64_t k = 0; k < in.ops.size(); ++k) {
      const ReplayOp& op = in.ops[k];
      // Off the path where the query kind needs no authentication: one
      // round against a tenant peer, so every workload reports its cost.
      if (!op.reply.endpoints.empty()) continue;
      const auto peer_ap = in.topo->host_ports(in.peers[op.session]).front();
      auth_target(c, 0, k, peer_ap);
    }
    for (std::uint64_t k = 0; k < in.ops.size(); ++k) {
      const ReplayOp& op = in.ops[k];
      reach_probe(c, config, model, snap, op.session, op.property, k);
      if (in.l2_hits) {
        const core::QueryEngine cold(*in.topo, config);
        Scope s(&tracer, "hsa.evaluate", 0, k);
        (void)cold.evaluate(model, snap, op.property,
                            context_for(in, op.session));
      }
    }
    // Churn events on a query workload: what the next configuration change
    // would cost this workload's properties (L1 recompile + re-evaluation).
    for (std::uint64_t e = 0; e < in.events; ++e) {
      const std::size_t s = (e / 2) % in.aps.size();
      snap.apply_update(event_update(in, s, e % 2 == 0), ++now);
      Scope root(&tracer, "probe.event", 0, e);
      {
        Scope m(&tracer, "l1.model_dirty", root.id(), e);
        model = engine.model(snap);
      }
      (void)reevaluate(c, root.id(), e, engine, model, snap, standing,
                       in.aps[s].sw, sentinel[s]);
    }
    return;
  }

  for (std::uint64_t e = 0; e < in.events; ++e) {
    const std::size_t s = (e / 2) % in.aps.size();
    const bool launch = e % 2 == 0;
    snap.apply_update(event_update(in, s, launch), ++now);
    {
      Scope root(&tracer, "path", 0, e);
      {
        Scope m(&tracer, "l1.model_dirty", root.id(), e);
        model = engine.model(snap);
      }
      auto woken = reevaluate(c, root.id(), e, engine, model, snap, standing,
                              in.aps[s].sw, sentinel[s]);
      util::ensure(woken.has_value(), "replay event did not wake the sentinel");
      for (const sdn::PortRef target : woken->to_authenticate) {
        auth_target(c, root.id(), e, target);
      }
      authenticate_all(*in.topo, *woken);
      core::Notification push;
      push.subscription_id = 1;
      push.sequence = e + 2;
      push.kind = launch ? core::NotificationKind::ViolationAlert
                         : core::NotificationKind::AllClear;
      push.epoch = snap.epoch();
      push.property_fingerprint = in.standing[s][0].fingerprint();
      push.reply = woken->reply;
      // Built by the codec only to have the push's wire form for framing;
      // a path's attributed time is the sum of its children, so this
      // untimed step does not count.
      const sdn::Packet packet = inband::make_notify_packet(
          push, c.enclave, c.keys.client_box.public_element(), c.rng);
      reply_leg(c, root.id(), e, push, packet);
    }
    reach_probe(c, config, model, snap, s, in.standing[s][0], e);
    Scope clean(&tracer, "l1.model_clean", 0, e);
    model = engine.model(snap);
  }
}

}  // namespace perfbench
