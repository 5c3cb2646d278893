// The packet abstraction shared by the synthesizer, PCAP I/O and the
// classification pipeline: a timestamped raw IP datagram, plus a decoded
// view giving typed access to the IP/TCP/UDP layers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "net/ip.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"

namespace vpscope::net {

/// A raw IP datagram as captured/synthesized. Timestamps are microseconds
/// since an arbitrary epoch (the campus simulator uses simulated time).
struct Packet {
  std::uint64_t timestamp_us = 0;
  Bytes data;  // starts at the IP header (linktype RAW)
};

/// Canonical bidirectional 5-tuple key: (addr, port) pairs are ordered so
/// both directions of a connection map to the same key — exactly what a
/// middlebox flow table needs.
struct FlowKey {
  IpAddr addr_a, addr_b;
  std::uint16_t port_a = 0, port_b = 0;
  std::uint8_t protocol = 0;

  /// Builds the canonical key; `from_a_to_b` reports whether (src, sport)
  /// ended up as the (addr_a, port_a) side.
  static FlowKey canonical(const IpAddr& src, std::uint16_t sport,
                           const IpAddr& dst, std::uint16_t dport,
                           std::uint8_t protocol, bool* from_a_to_b = nullptr);

  bool operator==(const FlowKey&) const = default;
};

/// Full-avalanche hash of the canonical key (SplitMix64-finalized), so both
/// `unordered_map` bucketing and `hash % n_shards` shard dispatch distribute
/// evenly even over low-entropy key populations.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const;
};

/// A decoded packet: typed headers + a payload view into the original bytes.
/// The view borrows from the Packet that produced it.
struct DecodedPacket {
  std::uint64_t timestamp_us = 0;
  bool is_v6 = false;
  std::uint8_t ttl = 0;  // hop_limit for v6
  IpAddr src, dst;
  std::uint8_t protocol = 0;
  std::size_t ip_packet_size = 0;  // full datagram length (attribute t1)

  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  ByteView payload;  // transport payload

  std::uint16_t src_port() const;
  std::uint16_t dst_port() const;
  FlowKey flow_key(bool* from_a_to_b = nullptr) const;
};

/// Longest datagram decode() and flow_key_of() accept: an IPv6 header plus
/// the largest non-jumbo payload (RFC 8200). IPv4 stops at 65,535 B, its
/// 16-bit total length (RFC 791); anything longer is no IP datagram.
inline constexpr std::size_t kMaxDatagramBytes = 40 + 65535;

/// Decodes a raw IP packet. Returns nullopt for non-IP, truncated,
/// over-long or non-TCP/UDP datagrams (the pipeline ignores those anyway).
/// The views in the result borrow from `datagram`.
std::optional<DecodedPacket> decode(ByteView datagram,
                                    std::uint64_t timestamp_us);
inline std::optional<DecodedPacket> decode(const Packet& packet) {
  return decode(ByteView{packet.data}, packet.timestamp_us);
}

/// The routing half of decode(): the canonical FlowKey read from fixed
/// offsets (IP version, IPv4 header length, protocol, addresses, ports)
/// without parsing TCP options or checking transport lengths. Whenever
/// decode(d) succeeds, flow_key_of(d) == decode(d)->flow_key(); the
/// converse does not hold (a bad TCP data offset, a malformed TCP option or
/// a UDP length past the datagram routes but does not decode).
std::optional<FlowKey> flow_key_of(ByteView datagram);

}  // namespace vpscope::net
