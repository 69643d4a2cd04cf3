#include "net/framing.hpp"

#include "util/ensure.hpp"

namespace rvaas::net {

namespace {

std::uint32_t read_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void write_be32(util::Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

}  // namespace

util::Bytes encode_frame(std::span<const std::uint8_t> payload) {
  util::ensure(!payload.empty() && payload.size() <= kMaxFrameBytes,
               "outbound frame violates the frame bound");
  util::Bytes out;
  out.reserve(kFrameLengthBytes + payload.size());
  write_be32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

bool FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (poisoned_) return false;
  std::size_t i = 0;
  while (i < data.size()) {
    if (expected_ == 0) {
      // Accumulate the 4-byte length prefix (it may arrive split).
      while (buffer_.size() < kFrameLengthBytes && i < data.size()) {
        buffer_.push_back(data[i++]);
      }
      if (buffer_.size() < kFrameLengthBytes) return true;
      const std::uint32_t claim = read_be32(buffer_.data());
      buffer_.clear();
      // The bound check precedes any allocation sized by the claim: a
      // 4-byte "4 GiB follows" must cost nothing.
      if (claim == 0 || claim > kMaxFrameBytes) {
        poisoned_ = true;
        return false;
      }
      expected_ = claim;
      frame_.clear();
      frame_.reserve(expected_);
    }
    const std::size_t want = expected_ - frame_.size();
    const std::size_t got = std::min(want, data.size() - i);
    frame_.insert(frame_.end(), data.begin() + static_cast<std::ptrdiff_t>(i),
                  data.begin() + static_cast<std::ptrdiff_t>(i + got));
    i += got;
    if (frame_.size() == expected_) {
      ready_.push_back(std::move(frame_));
      frame_.clear();
      expected_ = 0;
    }
  }
  return true;
}

std::optional<util::Bytes> FrameDecoder::take() {
  if (ready_.empty()) return std::nullopt;
  util::Bytes out = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return out;
}

// --- wire messages ---

util::Bytes WireHello::encode() const {
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(WireTag::Hello));
  w.put_u32(version);
  w.put_bytes(client_key.serialize());
  w.put_bytes(client_box_pub.to_bytes());
  w.put_u32(requested_host);
  return w.take();
}

std::optional<WireHello> WireHello::decode(
    std::span<const std::uint8_t> frame) {
  try {
    util::ByteReader r(frame);
    if (static_cast<WireTag>(r.get_u32()) != WireTag::Hello) {
      return std::nullopt;
    }
    WireHello h;
    h.version = r.get_u32();
    {
      util::ByteReader kr(r.get_bytes());
      h.client_key = crypto::VerifyKey::deserialize(kr);
    }
    h.client_box_pub = crypto::BigUInt::from_bytes(r.get_bytes());
    h.requested_host = r.get_u32();
    r.expect_done();
    return h;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

util::Bytes WireWelcome::encode() const {
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(WireTag::Welcome));
  w.put_u8(static_cast<std::uint8_t>(status));
  w.put_u32(host.value);
  w.put_u64(address.eth);
  w.put_u32(address.ip);
  w.put_u32(access_point.sw.value);
  w.put_u32(access_point.port.value);
  w.put_bytes(rvaas_key.serialize());
  w.put_bytes(rvaas_box_pub.to_bytes());
  w.put_bytes(quote.serialize());
  w.put_bytes(ias_root.serialize());
  w.put_string(enclave_name);
  w.put_string(enclave_version);
  return w.take();
}

std::optional<WireWelcome> WireWelcome::decode(
    std::span<const std::uint8_t> frame) {
  try {
    util::ByteReader r(frame);
    if (static_cast<WireTag>(r.get_u32()) != WireTag::Welcome) {
      return std::nullopt;
    }
    WireWelcome m;
    m.status = static_cast<WelcomeStatus>(r.get_u8());
    m.host = sdn::HostId(r.get_u32());
    m.address.eth = r.get_u64();
    m.address.ip = r.get_u32();
    m.access_point.sw = sdn::SwitchId(r.get_u32());
    m.access_point.port = sdn::PortNo(r.get_u32());
    {
      util::ByteReader kr(r.get_bytes());
      m.rvaas_key = crypto::VerifyKey::deserialize(kr);
    }
    m.rvaas_box_pub = crypto::BigUInt::from_bytes(r.get_bytes());
    {
      util::ByteReader qr(r.get_bytes());
      m.quote = enclave::Quote::deserialize(qr);
    }
    {
      util::ByteReader ir(r.get_bytes());
      m.ias_root = crypto::VerifyKey::deserialize(ir);
    }
    m.enclave_name = r.get_string();
    m.enclave_version = r.get_string();
    r.expect_done();
    return m;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

util::Bytes encode_inband(const sdn::Packet& packet) {
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(WireTag::Inband));
  packet.serialize(w);
  return w.take();
}

std::optional<sdn::Packet> decode_inband(
    std::span<const std::uint8_t> frame) {
  try {
    util::ByteReader r(frame);
    if (static_cast<WireTag>(r.get_u32()) != WireTag::Inband) {
      return std::nullopt;
    }
    sdn::Packet p = sdn::Packet::deserialize(r);
    r.expect_done();
    return p;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

std::optional<WireTag> peek_tag(std::span<const std::uint8_t> frame) {
  if (frame.size() < 4) return std::nullopt;
  // Tags are ByteWriter-serialized (little-endian), like the codec tags.
  const std::uint32_t raw = static_cast<std::uint32_t>(frame[0]) |
                            (static_cast<std::uint32_t>(frame[1]) << 8) |
                            (static_cast<std::uint32_t>(frame[2]) << 16) |
                            (static_cast<std::uint32_t>(frame[3]) << 24);
  const auto tag = static_cast<WireTag>(raw);
  switch (tag) {
    case WireTag::Hello:
    case WireTag::Welcome:
    case WireTag::Inband:
      return tag;
  }
  return std::nullopt;
}

}  // namespace rvaas::net
