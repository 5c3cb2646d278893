#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <string>
#include <vector>

#include "capture/export.hpp"
#include "capture/replay.hpp"
#include "net/ip.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "util/rng.hpp"

#ifndef VPSCOPE_GOLDEN_DIR
#define VPSCOPE_GOLDEN_DIR "tests/data/golden"
#endif

namespace vpscope::net {
namespace {

TEST(IpAddr, V4Formatting) {
  EXPECT_EQ(IpAddr::v4(192, 168, 1, 10).to_string(), "192.168.1.10");
}

TEST(IpAddr, V4U32RoundTrip) {
  const IpAddr a = IpAddr::v4(10, 20, 30, 40);
  EXPECT_EQ(IpAddr::v4_from_u32(a.as_v4_u32()), a);
}

TEST(Checksum, KnownVector) {
  // Classic example from RFC 1071 discussions.
  const Bytes data = from_hex("0001f203f4f5f6f7");
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(Ipv4, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.ttl = 57;
  h.protocol = kProtoTcp;
  h.src = IpAddr::v4(10, 0, 0, 1);
  h.dst = IpAddr::v4(142, 250, 70, 78);
  h.identification = 0x1234;
  const Bytes payload = {1, 2, 3, 4, 5};
  const Bytes wire = h.serialize(payload);

  std::size_t hlen = 0;
  const auto parsed = Ipv4Header::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(hlen, Ipv4Header::kMinSize);
  EXPECT_EQ(parsed->ttl, 57);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->total_length, wire.size());
  // Header checksum must validate (sum over header with checksum = 0).
  EXPECT_EQ(internet_checksum(ByteView{wire.data(), hlen}), 0);
}

TEST(Ipv4, ParseRejectsTruncated) {
  EXPECT_FALSE(Ipv4Header::parse(from_hex("4500"), nullptr).has_value());
}

TEST(Ipv4, ParseRejectsWrongVersion) {
  Bytes garbage(20, 0);
  garbage[0] = 0x55;
  EXPECT_FALSE(Ipv4Header::parse(garbage, nullptr).has_value());
}

TEST(Ipv6, SerializeParseRoundTrip) {
  Ipv6Header h;
  h.hop_limit = 64;
  h.next_header = kProtoUdp;
  h.src.is_v6 = h.dst.is_v6 = true;
  h.src.bytes[15] = 1;
  h.dst.bytes[15] = 2;
  const Bytes wire = h.serialize(from_hex("cafe"));
  std::size_t hlen = 0;
  const auto parsed = Ipv6Header::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(hlen, Ipv6Header::kSize);
  EXPECT_EQ(parsed->hop_limit, 64);
  EXPECT_EQ(parsed->next_header, kProtoUdp);
  EXPECT_EQ(parsed->src, h.src);
}

TEST(Tcp, SynWithOptionsRoundTrip) {
  TcpHeader h;
  h.src_port = 51234;
  h.dst_port = 443;
  h.seq = 0xdeadbeef;
  h.flags.syn = true;
  h.window = 65535;
  h.options.mss = 1460;
  h.options.window_scale = 8;
  h.options.sack_permitted = true;
  h.options.timestamps = true;
  h.options.ts_value = 12345;

  const Bytes wire = h.serialize({});
  std::size_t hlen = 0;
  const auto parsed = TcpHeader::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 51234);
  EXPECT_EQ(parsed->dst_port, 443);
  EXPECT_TRUE(parsed->flags.syn);
  EXPECT_FALSE(parsed->flags.ack);
  EXPECT_EQ(parsed->window, 65535);
  ASSERT_TRUE(parsed->options.mss.has_value());
  EXPECT_EQ(*parsed->options.mss, 1460);
  ASSERT_TRUE(parsed->options.window_scale.has_value());
  EXPECT_EQ(*parsed->options.window_scale, 8);
  EXPECT_TRUE(parsed->options.sack_permitted);
  EXPECT_TRUE(parsed->options.timestamps);
  EXPECT_EQ(parsed->options.ts_value, 12345u);
  EXPECT_EQ(hlen % 4, 0u);
}

TEST(Tcp, KindOrderPreservedWithNops) {
  TcpHeader h;
  h.flags.syn = true;
  h.options.mss = 1460;
  h.options.sack_permitted = true;
  h.options.window_scale = 6;
  // Windows-style ordering: MSS, NOP, WScale, NOP, NOP, SACKperm.
  h.options.kind_order = {2, 1, 3, 1, 1, 4};
  const Bytes wire = h.serialize({});
  const auto parsed = TcpHeader::parse(wire, nullptr);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->options.kind_order, (std::vector<std::uint8_t>{2, 1, 3, 1, 1, 4}));
}

TEST(Tcp, FlagByteRoundTrip) {
  for (int b = 0; b < 256; ++b) {
    const auto f = TcpFlags::from_byte(static_cast<std::uint8_t>(b));
    EXPECT_EQ(f.to_byte(), b);
  }
}

TEST(Tcp, PayloadCarriedThrough) {
  TcpHeader h;
  h.flags.psh = h.flags.ack = true;
  const Bytes payload = from_hex("160301004a");
  const Bytes wire = h.serialize(payload);
  std::size_t hlen = 0;
  ASSERT_TRUE(TcpHeader::parse(wire, &hlen).has_value());
  EXPECT_EQ(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(hlen), wire.end()),
            payload);
}

TEST(Udp, RoundTrip) {
  UdpHeader h;
  h.src_port = 50000;
  h.dst_port = 443;
  const Bytes wire = h.serialize(from_hex("c0ffee"));
  std::size_t hlen = 0;
  const auto parsed = UdpHeader::parse(wire, &hlen);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, 50000);
  EXPECT_EQ(parsed->dst_port, 443);
  EXPECT_EQ(hlen, UdpHeader::kSize);
}

TEST(FlowKey, CanonicalIsDirectionless) {
  const IpAddr a = IpAddr::v4(10, 0, 0, 1);
  const IpAddr b = IpAddr::v4(142, 250, 70, 78);
  bool fwd = false, rev = false;
  const FlowKey k1 = FlowKey::canonical(a, 51234, b, 443, kProtoTcp, &fwd);
  const FlowKey k2 = FlowKey::canonical(b, 443, a, 51234, kProtoTcp, &rev);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(fwd, rev);
  EXPECT_EQ(FlowKeyHash{}(k1), FlowKeyHash{}(k2));
}

TEST(FlowKey, DifferentPortsDiffer) {
  const IpAddr a = IpAddr::v4(10, 0, 0, 1);
  const IpAddr b = IpAddr::v4(142, 250, 70, 78);
  const FlowKey k1 = FlowKey::canonical(a, 1111, b, 443, kProtoTcp);
  const FlowKey k2 = FlowKey::canonical(a, 2222, b, 443, kProtoTcp);
  EXPECT_NE(k1, k2);
}

TEST(FlowKeyHash, ShardAssignmentDistributesEvenly) {
  // The worst realistic case for `hash % n_shards` dispatch: a low-entropy
  // key population — sequential campus client addresses, one CDN server,
  // a narrow ephemeral-port range. The SplitMix64 finalizer must spread
  // these evenly across every shard count, including non-powers of two.
  const IpAddr server = IpAddr::v4(142, 250, 70, 78);
  constexpr int kFlows = 40000;
  for (const std::size_t shards : {2u, 4u, 7u, 8u}) {
    std::vector<int> buckets(shards, 0);
    for (int i = 0; i < kFlows; ++i) {
      const IpAddr client =
          IpAddr::v4(10, 7, static_cast<std::uint8_t>(i >> 8),
                     static_cast<std::uint8_t>(i));
      const auto port = static_cast<std::uint16_t>(40000 + i % 4096);
      const FlowKey key =
          FlowKey::canonical(client, port, server, 443, kProtoTcp);
      buckets[FlowKeyHash{}(key) % shards]++;
    }
    const double expected = static_cast<double>(kFlows) / shards;
    for (std::size_t b = 0; b < shards; ++b) {
      EXPECT_GT(buckets[b], expected * 0.9)
          << "shards=" << shards << " bucket=" << b;
      EXPECT_LT(buckets[b], expected * 1.1)
          << "shards=" << shards << " bucket=" << b;
    }
  }
}

TEST(FlowKeyHash, SingleBitKeyChangesAvalanche) {
  // Flipping one low bit of the port must flip roughly half the hash bits
  // (full-avalanche property the shard dispatch depends on).
  const IpAddr a = IpAddr::v4(10, 0, 0, 1);
  const IpAddr b = IpAddr::v4(142, 250, 70, 78);
  int total_flipped = 0;
  constexpr int kPairs = 1000;
  for (int i = 0; i < kPairs; ++i) {
    const auto port = static_cast<std::uint16_t>(40000 + 2 * i);
    const auto h1 = FlowKeyHash{}(
        FlowKey::canonical(a, port, b, 443, kProtoTcp));
    const auto h2 = FlowKeyHash{}(FlowKey::canonical(
        a, static_cast<std::uint16_t>(port + 1), b, 443, kProtoTcp));
    total_flipped += std::popcount(static_cast<std::uint64_t>(h1 ^ h2));
  }
  const double mean_flipped = static_cast<double>(total_flipped) / kPairs;
  EXPECT_GT(mean_flipped, 24.0);
  EXPECT_LT(mean_flipped, 40.0);
}

TEST(Decode, TcpPacketEndToEnd) {
  TcpHeader tcp;
  tcp.src_port = 50001;
  tcp.dst_port = 443;
  tcp.flags.syn = true;
  tcp.options.mss = 1400;
  Ipv4Header ip;
  ip.ttl = 63;
  ip.src = IpAddr::v4(10, 1, 2, 3);
  ip.dst = IpAddr::v4(1, 2, 3, 4);
  Packet pkt;
  pkt.timestamp_us = 777;
  pkt.data = ip.serialize(tcp.serialize(from_hex("aabb")));

  const auto d = decode(pkt);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->timestamp_us, 777u);
  EXPECT_EQ(d->ttl, 63);
  EXPECT_EQ(d->protocol, kProtoTcp);
  ASSERT_TRUE(d->tcp.has_value());
  EXPECT_EQ(d->tcp->src_port, 50001);
  EXPECT_EQ(d->payload.size(), 2u);
  EXPECT_EQ(d->ip_packet_size, pkt.data.size());
}

TEST(Decode, UdpPacketEndToEnd) {
  UdpHeader udp;
  udp.src_port = 50002;
  udp.dst_port = 443;
  Ipv4Header ip;
  ip.protocol = kProtoUdp;
  ip.src = IpAddr::v4(10, 1, 2, 3);
  ip.dst = IpAddr::v4(1, 2, 3, 4);
  Packet pkt;
  pkt.data = ip.serialize(udp.serialize(Bytes(1200, 0)));
  const auto d = decode(pkt);
  ASSERT_TRUE(d.has_value());
  ASSERT_TRUE(d->udp.has_value());
  EXPECT_EQ(d->payload.size(), 1200u);
}

TEST(Decode, RejectsGarbage) {
  Packet pkt;
  pkt.data = from_hex("ffffffff");
  EXPECT_FALSE(decode(pkt).has_value());
}

TEST(Decode, RejectsDatagramsPastTheIpMaximum) {
  // IPv4 total length is 16 bits; IPv6 without a jumbo payload stops at
  // 40 + 65,535 B. Longer buffers are no IP datagram, for decode and
  // routing alike.
  UdpHeader udp;
  udp.src_port = 50003;
  udp.dst_port = 443;
  Ipv4Header v4;
  v4.protocol = kProtoUdp;
  Bytes wire = v4.serialize(udp.serialize({}));
  wire.resize(65535);
  EXPECT_TRUE(decode(wire, 0).has_value());
  EXPECT_TRUE(flow_key_of(wire).has_value());
  wire.push_back(0);
  EXPECT_FALSE(decode(wire, 0).has_value());
  EXPECT_FALSE(flow_key_of(wire).has_value());

  Ipv6Header v6;
  v6.next_header = kProtoUdp;
  wire = v6.serialize(udp.serialize({}));
  wire.resize(kMaxDatagramBytes);
  EXPECT_TRUE(decode(wire, 0).has_value());
  EXPECT_TRUE(flow_key_of(wire).has_value());
  wire.push_back(0);
  EXPECT_FALSE(decode(wire, 0).has_value());
  EXPECT_FALSE(flow_key_of(wire).has_value());
}

// ---- routing/decode agreement (the sharded dispatcher routes with
// flow_key_of, its workers decode) ----

/// The golden corpus as bare IP datagrams.
std::vector<Bytes> golden_datagrams() {
  std::vector<Bytes> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(VPSCOPE_GOLDEN_DIR)) {
    if (entry.path().extension() != ".pcap") continue;
    const auto stats = capture::ReplayDriver().replay_file(
        entry.path().string(),
        [&out](Packet&& p) { out.push_back(std::move(p.data)); });
    EXPECT_TRUE(stats.ok) << entry.path() << ": " << stats.error;
  }
  return out;
}

std::size_t ip_header_len(const Bytes& d) {
  return d[0] >> 4 == 4 ? (d[0] & 0x0f) * std::size_t{4} : Ipv6Header::kSize;
}

/// Seeded structural mutants of one datagram, the cases where routing and
/// decoding read different amounts of the header.
std::vector<Bytes> routing_mutants(const Bytes& d, Rng& rng) {
  std::vector<Bytes> out;
  const std::size_t ihl = ip_header_len(d);
  const std::uint8_t proto = d[0] >> 4 == 4 ? d[9] : d[6];
  // Truncations, inside and just past the transport header.
  for (std::size_t cut = ihl; cut < std::min(d.size(), ihl + 64); cut += 3)
    out.emplace_back(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(cut));
  out.emplace_back(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(
                                              rng.uniform(0, d.size() - 1)));
  if (d[0] >> 4 == 4) {
    // IPv4 with options (IHL 6..15), option bytes spliced in.
    for (std::size_t words = 1; words <= 10; words += 3) {
      Bytes m = d;
      m[0] = static_cast<std::uint8_t>(0x40 | (ihl / 4 + words));
      Bytes opts(words * 4, 0x01);  // NOPs
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(ihl), opts.begin(),
               opts.end());
      out.push_back(std::move(m));
    }
    // An IHL past the datagram, and one under the minimum.
    Bytes m = d;
    m[0] = 0x4f;
    out.push_back(m);
    m[0] = 0x44;
    out.push_back(std::move(m));
    // The same transport segment over IPv6.
    Ipv6Header v6;
    v6.next_header = proto;
    v6.src.bytes[15] = d[15];
    v6.dst.bytes[15] = d[19];
    out.push_back(v6.serialize(ByteView{d}.subspan(ihl)));
  }
  if (proto == kProtoTcp && d.size() >= ihl + TcpHeader::kMinSize) {
    // Bad data offsets: under 5 words, and past the datagram.
    for (std::uint8_t off : {0, 3, 15}) {
      Bytes m = d;
      m[ihl + 12] = static_cast<std::uint8_t>(off << 4 | (m[ihl + 12] & 0x0f));
      out.push_back(std::move(m));
    }
    // A malformed option: length 0, 1 and past the header.
    for (std::uint8_t len : {0, 1, 9}) {
      Bytes m = d;
      m[ihl + 12] = static_cast<std::uint8_t>(6 << 4);
      const Bytes opt = {2, len, 0x05, 0xb4};
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(ihl + 20), opt.begin(),
               opt.end());
      out.push_back(std::move(m));
    }
  }
  if (proto == kProtoUdp && d.size() >= ihl + UdpHeader::kSize) {
    // UDP lengths past the datagram and under the header.
    for (std::uint16_t len :
         {static_cast<std::uint16_t>(d.size() - ihl + 1),
          static_cast<std::uint16_t>(0xffff), static_cast<std::uint16_t>(7)}) {
      Bytes m = d;
      m[ihl + 4] = static_cast<std::uint8_t>(len >> 8);
      m[ihl + 5] = static_cast<std::uint8_t>(len);
      out.push_back(std::move(m));
    }
  }
  // Random byte flips anywhere in the first 64 bytes.
  for (int i = 0; i < 8; ++i) {
    Bytes m = d;
    const std::size_t at = rng.uniform(0, std::min<std::size_t>(63, m.size() - 1));
    m[at] = static_cast<std::uint8_t>(rng.next_u32());
    out.push_back(std::move(m));
  }
  return out;
}

TEST(RoutingAgreement, FlowKeyOfMatchesDecodeOnGoldenCorpusAndMutants) {
  const std::vector<Bytes> corpus = golden_datagrams();
  ASSERT_GT(corpus.size(), 100u);
  Rng rng(1515);
  std::size_t decoded = 0, routed_only = 0, unrouted = 0;
  auto check = [&](const Bytes& d) {
    const auto dec = decode(d, 0);
    const auto key = flow_key_of(d);
    if (dec) {
      ++decoded;
      ASSERT_TRUE(key.has_value()) << "decode accepts what routing refuses";
      EXPECT_EQ(*key, dec->flow_key());
      EXPECT_EQ(FlowKeyHash{}(*key), FlowKeyHash{}(dec->flow_key()));
    } else if (key) {
      ++routed_only;  // rejected by the worker's decode, not by routing
    } else {
      ++unrouted;
    }
  };
  for (const Bytes& d : corpus) {
    check(d);
    for (const Bytes& m : routing_mutants(d, rng)) check(m);
  }
  // Every case the gate is meant to cover was reached.
  EXPECT_GT(decoded, corpus.size());
  EXPECT_GT(routed_only, 0u);
  EXPECT_GT(unrouted, 0u);
}

TEST(Pcap, WriteReadRoundTrip) {
  std::vector<Packet> packets;
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(40000 + i);
    tcp.dst_port = 443;
    tcp.flags.syn = true;
    Ipv4Header ip;
    ip.src = IpAddr::v4(10, 0, 0, static_cast<std::uint8_t>(i));
    ip.dst = IpAddr::v4(8, 8, 8, 8);
    Packet p;
    p.timestamp_us = 1000000ULL * static_cast<std::uint64_t>(i) + rng.uniform(0, 999999);
    p.data = ip.serialize(tcp.serialize({}));
    packets.push_back(std::move(p));
  }

  const Bytes blob =
      capture::export_pcap(packets, {.link_type = capture::LinkType::Raw});
  std::vector<Packet> readback;
  const auto stats = capture::ReplayDriver().replay(
      blob, [&](Packet&& p) { readback.push_back(std::move(p)); });
  ASSERT_TRUE(stats.ok) << stats.error;
  ASSERT_EQ(readback.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(readback[i].timestamp_us, packets[i].timestamp_us);
    EXPECT_EQ(readback[i].data, packets[i].data);
  }
}

TEST(Pcap, RejectsBadMagic) {
  const std::string text = "not a pcap file at all, sorry";
  const Bytes blob(text.begin(), text.end());
  EXPECT_FALSE(capture::PcapReader::open(blob).has_value());
}

TEST(Pcap, RejectsTruncatedRecord) {
  std::vector<Packet> packets(1);
  packets[0].data = Bytes(40, 0x45);
  Bytes blob =
      capture::export_pcap(packets, {.link_type = capture::LinkType::Raw});
  blob.resize(blob.size() - 5);
  const auto stats = capture::ReplayDriver().replay(blob, [](Packet&&) {});
  EXPECT_FALSE(stats.ok);
}

}  // namespace
}  // namespace vpscope::net
