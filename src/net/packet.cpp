#include "net/packet.hpp"

#include <algorithm>
#include <cstring>

namespace vpscope::net {

namespace {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix, so every output bit
/// depends on every input bit. The flow table only needs a decent hash, but
/// the sharded pipeline assigns workers by `hash % n_shards` — low bits must
/// be as mixed as high bits or low-entropy keys (sequential client
/// addresses, fixed server port) skew the shards.
std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

FlowKey FlowKey::canonical(const IpAddr& src, std::uint16_t sport,
                           const IpAddr& dst, std::uint16_t dport,
                           std::uint8_t protocol, bool* from_a_to_b) {
  FlowKey k;
  k.protocol = protocol;
  const bool src_first =
      std::tie(src.bytes, sport) <= std::tie(dst.bytes, dport);
  if (src_first) {
    k.addr_a = src;
    k.port_a = sport;
    k.addr_b = dst;
    k.port_b = dport;
  } else {
    k.addr_a = dst;
    k.port_a = dport;
    k.addr_b = src;
    k.port_b = sport;
  }
  if (from_a_to_b) *from_a_to_b = src_first;
  return k;
}

std::size_t FlowKeyHash::operator()(const FlowKey& k) const {
  std::uint64_t h = splitmix64(k.protocol);
  for (int i = 0; i < 16; i += 8) {
    std::uint64_t a = 0, b = 0;
    for (int j = 0; j < 8; ++j) {
      a = a << 8 | k.addr_a.bytes[static_cast<std::size_t>(i + j)];
      b = b << 8 | k.addr_b.bytes[static_cast<std::size_t>(i + j)];
    }
    h = splitmix64(h ^ a);
    h = splitmix64(h ^ b);
  }
  h = splitmix64(h ^ (static_cast<std::uint64_t>(k.port_a) << 16 | k.port_b));
  return static_cast<std::size_t>(h);
}

std::uint16_t DecodedPacket::src_port() const {
  if (tcp) return tcp->src_port;
  if (udp) return udp->src_port;
  return 0;
}

std::uint16_t DecodedPacket::dst_port() const {
  if (tcp) return tcp->dst_port;
  if (udp) return udp->dst_port;
  return 0;
}

FlowKey DecodedPacket::flow_key(bool* from_a_to_b) const {
  return FlowKey::canonical(src, src_port(), dst, dst_port(), protocol,
                            from_a_to_b);
}

std::optional<DecodedPacket> decode(ByteView raw, std::uint64_t timestamp_us) {
  if (raw.empty()) return std::nullopt;

  DecodedPacket out;
  out.timestamp_us = timestamp_us;
  out.ip_packet_size = raw.size();

  std::size_t ip_hlen = 0;
  const int version = raw[0] >> 4;
  if (version == 4) {
    if (raw.size() > 65535) return std::nullopt;
    const auto v4 = Ipv4Header::parse(raw, &ip_hlen);
    if (!v4) return std::nullopt;
    out.ttl = v4->ttl;
    out.src = v4->src;
    out.dst = v4->dst;
    out.protocol = v4->protocol;
    // Snap-length semantics: a capture may truncate the packet while the IP
    // header still reports the original datagram length — volumetric
    // telemetry must use the header value.
    out.ip_packet_size = std::max<std::size_t>(raw.size(), v4->total_length);
  } else if (version == 6) {
    if (raw.size() > kMaxDatagramBytes) return std::nullopt;
    const auto v6 = Ipv6Header::parse(raw, &ip_hlen);
    if (!v6) return std::nullopt;
    out.is_v6 = true;
    out.ttl = v6->hop_limit;
    out.src = v6->src;
    out.dst = v6->dst;
    out.protocol = v6->next_header;
  } else {
    return std::nullopt;
  }

  const ByteView transport = raw.subspan(ip_hlen);
  std::size_t t_hlen = 0;
  if (out.protocol == kProtoTcp) {
    out.tcp = TcpHeader::parse(transport, &t_hlen);
    if (!out.tcp) return std::nullopt;
  } else if (out.protocol == kProtoUdp) {
    out.udp = UdpHeader::parse(transport, &t_hlen);
    if (!out.udp) return std::nullopt;
  } else {
    return std::nullopt;
  }
  out.payload = transport.subspan(t_hlen);
  return out;
}

std::optional<FlowKey> flow_key_of(ByteView raw) {
  // Each check mirrors one decode() makes on the bytes read here, so no
  // datagram decode() accepts is refused.
  if (raw.empty()) return std::nullopt;
  IpAddr src, dst;
  std::size_t l4 = 0;
  std::uint8_t protocol = 0;
  const int version = raw[0] >> 4;
  if (version == 4) {
    l4 = (raw[0] & 0x0f) * std::size_t{4};
    if (raw.size() > 65535 || l4 < Ipv4Header::kMinSize || raw.size() < l4)
      return std::nullopt;
    protocol = raw[9];
    std::memcpy(src.bytes.data(), raw.data() + 12, 4);
    std::memcpy(dst.bytes.data(), raw.data() + 16, 4);
  } else if (version == 6) {
    l4 = Ipv6Header::kSize;
    if (raw.size() > kMaxDatagramBytes || raw.size() < l4) return std::nullopt;
    protocol = raw[6];
    src.is_v6 = dst.is_v6 = true;
    std::memcpy(src.bytes.data(), raw.data() + 8, 16);
    std::memcpy(dst.bytes.data(), raw.data() + 24, 16);
  } else {
    return std::nullopt;
  }
  // The fixed transport header must be present (TCP 20 B, UDP 8 B); its
  // first four bytes are the ports.
  const std::size_t min_l4 = protocol == kProtoTcp   ? TcpHeader::kMinSize
                             : protocol == kProtoUdp ? UdpHeader::kSize
                                                     : 0;
  if (min_l4 == 0 || raw.size() - l4 < min_l4) return std::nullopt;
  const std::uint8_t* ports = raw.data() + l4;
  return FlowKey::canonical(
      src, static_cast<std::uint16_t>(ports[0] << 8 | ports[1]), dst,
      static_cast<std::uint16_t>(ports[2] << 8 | ports[3]), protocol);
}

}  // namespace vpscope::net
