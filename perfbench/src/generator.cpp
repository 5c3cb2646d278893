#include "generator.hpp"

#include <algorithm>
#include <array>
#include <unordered_set>

#include "campus/campus.hpp"
#include "capture/frame.hpp"
#include "capture/pcap.hpp"
#include "fingerprint/profiles.hpp"
#include "net/ip.hpp"
#include "net/packet.hpp"
#include "net/tcp.hpp"
#include "net/udp.hpp"
#include "quic/initial.hpp"
#include "quic/varint.hpp"
#include "synth/flow_synthesizer.hpp"

namespace perfbench {

using namespace vpscope;
using fingerprint::Provider;
using fingerprint::Transport;

namespace {

constexpr std::array<std::pair<Provider, Transport>, 5> kScenarios = {{
    {Provider::YouTube, Transport::Tcp},
    {Provider::YouTube, Transport::Quic},
    {Provider::Netflix, Transport::Tcp},
    {Provider::Disney, Transport::Tcp},
    {Provider::Amazon, Transport::Tcp},
}};

constexpr std::uint64_t kPayloadSegment = 1400;  // downstream bytes per packet

/// One packet of the image before the time merge.
struct Entry {
  net::Packet packet;
  std::uint32_t wire_ip_len = 0;  // IP total length on the wire
  FrameKind kind = FrameKind::Handshake;
  std::uint32_t flow = kNoFlow;
};

net::FlowKey key_of(const synth::LabeledFlow& flow) {
  return net::FlowKey::canonical(
      flow.client_ip, flow.client_port, flow.server_ip, flow.server_port,
      flow.transport == Transport::Quic ? net::kProtoUdp : net::kProtoTcp);
}

/// Downstream payload after the handshake: full-size segments on the wire,
/// captured as headers only (snap-length truncation, as a telemetry tap
/// records them).
void append_payload(const synth::LabeledFlow& flow, std::uint64_t after_us,
                    const ReplayShape& shape, std::uint32_t flow_index,
                    std::vector<Entry>& out) {
  const std::uint64_t n =
      std::max<std::uint64_t>(1, shape.payload_bytes / kPayloadSegment);
  const std::uint64_t dt = std::max<std::uint64_t>(1, shape.payload_duration_us / n);
  const bool quic = flow.transport == Transport::Quic;
  for (std::uint64_t k = 0; k < n; ++k) {
    Bytes l4;
    if (quic) {
      net::UdpHeader udp;
      udp.src_port = flow.server_port;
      udp.dst_port = flow.client_port;
      l4 = udp.serialize({});
    } else {
      net::TcpHeader tcp;
      tcp.src_port = flow.server_port;
      tcp.dst_port = flow.client_port;
      tcp.seq = static_cast<std::uint32_t>(k * kPayloadSegment);
      tcp.flags.ack = true;
      tcp.window = 65535;
      l4 = tcp.serialize({});
    }
    net::Ipv4Header ip;
    ip.ttl = 57;
    ip.protocol = quic ? net::kProtoUdp : net::kProtoTcp;
    ip.src = flow.server_ip;
    ip.dst = flow.client_ip;
    ip.identification = static_cast<std::uint16_t>(k);
    const auto wire = static_cast<std::uint16_t>(
        net::Ipv4Header::kMinSize + l4.size() + kPayloadSegment);
    ip.total_length = wire;
    Entry e;
    e.packet = {after_us + (k + 1) * dt, ip.serialize(l4)};
    e.wire_ip_len = wire;
    e.kind = FrameKind::Payload;
    e.flow = flow_index;
    out.push_back(std::move(e));
  }
}

Entry forged_entry(Rng& rng, std::uint64_t ts_us) {
  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
  udp.dst_port = 443;
  net::Ipv4Header ip;
  ip.ttl = 64;
  ip.protocol = net::kProtoUdp;
  ip.src = net::IpAddr::v4(100, static_cast<std::uint8_t>(rng.uniform(64, 127)),
                           static_cast<std::uint8_t>(rng.uniform(0, 255)),
                           static_cast<std::uint8_t>(rng.uniform(1, 254)));
  ip.dst = net::IpAddr::v4(142, 250, static_cast<std::uint8_t>(rng.uniform(0, 255)),
                           static_cast<std::uint8_t>(rng.uniform(1, 254)));
  Entry e;
  e.packet = {ts_us, ip.serialize(udp.serialize(forged_initial_payload(rng)))};
  e.wire_ip_len = static_cast<std::uint32_t>(e.packet.data.size());
  e.kind = FrameKind::Forged;
  return e;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::CampusReplay, Workload::HandshakeChurn,
                     Workload::InitialFlood, Workload::TelemetryScan})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::CampusReplay: return "campus_replay";
    case Workload::HandshakeChurn: return "handshake_churn";
    case Workload::InitialFlood: return "initial_flood";
    case Workload::TelemetryScan: return "telemetry_scan";
  }
  return "?";
}

ReplayShape replay_shape(Workload w) {
  switch (w) {
    case Workload::CampusReplay:
      // ~200 KB over ~1 s per flow, ~300 flows active at once.
      return {.flows = 1500, .start_window_us = 5'000'000,
              .payload_bytes = 200'000, .payload_duration_us = 1'000'000,
              .forged_per_handshake = 0};
    case Workload::HandshakeChurn:
      return {.flows = 3000, .start_window_us = 3'000'000,
              .payload_bytes = 0, .payload_duration_us = 0,
              .forged_per_handshake = 0};
    case Workload::InitialFlood:
      return {.flows = 1000, .start_window_us = 5'000'000,
              .payload_bytes = 20'000, .payload_duration_us = 200'000,
              .forged_per_handshake = 10};
    case Workload::TelemetryScan:
      // The live feed in front of the store: campus_replay's shape.
      return {.flows = 1500, .start_window_us = 5'000'000,
              .payload_bytes = 200'000, .payload_duration_us = 1'000'000,
              .forged_per_handshake = 0};
  }
  return {};
}

Bytes forged_initial_payload(Rng& rng) {
  const std::size_t total = 1200 + rng.uniform(0, 150);
  Writer w;
  w.u8(static_cast<std::uint8_t>(0xc0 | rng.uniform(0, 3)));  // Initial
  w.u32(quic::kQuicVersion1);
  const auto dcid_len = static_cast<std::uint8_t>(rng.uniform(8, 20));
  w.u8(dcid_len);
  for (int i = 0; i < dcid_len; ++i) w.u8(static_cast<std::uint8_t>(rng.next_u32()));
  const auto scid_len = static_cast<std::uint8_t>(rng.uniform(0, 8));
  w.u8(scid_len);
  for (int i = 0; i < scid_len; ++i) w.u8(static_cast<std::uint8_t>(rng.next_u32()));
  quic::put_varint(w, 0);  // no token
  const std::size_t length = total - w.size() - 2;
  quic::put_varint_forced(w, length, 2);
  for (std::size_t i = 0; i < length; ++i)
    w.u8(static_cast<std::uint8_t>(rng.next_u32()));
  return std::move(w).take();
}

ReplayImage make_replay_image(Workload w, std::uint64_t seed,
                              bool with_forged) {
  const ReplayShape shape = replay_shape(w);
  Rng plan_rng(seed * 0x9E3779B97F4A7C15ULL + 0x51);
  synth::FlowSynthesizer synth(Rng(seed * 0xBF58476D1CE4E5B9ULL + 0x17));
  Rng forged_rng(seed * 0x94D049BB133111EBULL + 0x2b);

  ReplayImage image;
  std::vector<Entry> entries;
  std::unordered_set<net::FlowKey, net::FlowKeyHash> keys;
  const std::uint64_t gap =
      std::max<std::uint64_t>(2, shape.start_window_us /
                                     static_cast<std::uint64_t>(shape.flows));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> handshake_spans;

  // Every (scenario, platform) profile in equal measure: each cycle of the
  // mix takes every profile once, in a seeded order. The seed varies order,
  // timing and every synthesized field, never the mix itself.
  struct Profile {
    Provider provider;
    Transport transport;
    fingerprint::PlatformId platform;
  };
  std::vector<Profile> mix;
  for (const auto& [provider, transport] : kScenarios)
    for (const auto& platform : fingerprint::platforms_for(provider, transport))
      mix.push_back({provider, transport, platform});

  for (int i = 0; i < shape.flows; ++i) {
    const auto slot = static_cast<std::size_t>(i) % mix.size();
    if (slot == 0) plan_rng.shuffle(mix);
    const auto [provider, transport, platform] = mix[slot];
    const auto profile = fingerprint::make_profile(platform, provider, transport);
    synth::FlowOptions options;
    // Strictly increasing, hence unique, first-packet timestamps.
    options.start_time_us = 1'000'000 + static_cast<std::uint64_t>(i) * gap +
                            plan_rng.uniform(0, gap - 1);
    synth::LabeledFlow flow = synth.synthesize(profile, options);
    while (!keys.insert(key_of(flow)).second)
      flow = synth.synthesize(profile, options);  // 5-tuple collision: redraw

    const auto index = static_cast<std::uint32_t>(image.flows.size());
    image.flows.push_back({platform, provider, transport, options.start_time_us});
    // The verdict can come no later than the client's last handshake
    // packet (the ClientHello segment or the last Initial).
    std::size_t last_client = 0;
    for (std::size_t k = 0; k < flow.packets.size(); ++k) {
      const auto decoded = net::decode(flow.packets[k]);
      if (decoded && decoded->src == flow.client_ip) last_client = k;
    }
    std::uint64_t last_us = options.start_time_us;
    for (std::size_t k = 0; k < flow.packets.size(); ++k) {
      auto& packet = flow.packets[k];
      last_us = std::max(last_us, packet.timestamp_us);
      Entry e;
      e.wire_ip_len = static_cast<std::uint32_t>(packet.data.size());
      e.packet = std::move(packet);
      e.kind = k <= last_client ? FrameKind::Handshake : FrameKind::Trailing;
      e.flow = index;
      entries.push_back(std::move(e));
    }
    handshake_spans.emplace_back(options.start_time_us, last_us);
    if (shape.payload_bytes > 0)
      append_payload(flow, last_us, shape, index, entries);
  }

  // Forged Initials interleave with each legitimate handshake. They are
  // drawn from their own stream and appended after every legitimate packet,
  // so the stable time merge keeps the legitimate order of the flood-free
  // image.
  if (with_forged) {
    for (const auto& [start, end] : handshake_spans)
      for (int k = 0; k < shape.forged_per_handshake; ++k)
        entries.push_back(forged_entry(forged_rng, start + forged_rng.uniform(0, end - start)));
  }

  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.packet.timestamp_us < b.packet.timestamp_us;
                   });
  capture::PcapWriter writer(capture::LinkType::Ethernet);
  image.frame_kind.reserve(entries.size());
  image.frame_flow.reserve(entries.size());
  for (const auto& e : entries) {
    const Bytes frame = capture::ethernet_frame_of(e.packet.data);
    const std::uint32_t orig =
        std::max<std::uint32_t>(static_cast<std::uint32_t>(frame.size()),
                                e.wire_ip_len + 14);
    writer.add(e.packet.timestamp_us, frame, orig);
    image.frame_kind.push_back(e.kind);
    image.frame_flow.push_back(e.flow);
    switch (e.kind) {
      case FrameKind::Handshake:
      case FrameKind::Trailing: ++image.handshake_frames; break;
      case FrameKind::Payload: ++image.payload_frames; break;
      case FrameKind::Forged: ++image.forged_frames; break;
    }
  }
  image.pcap = std::move(writer).take();
  return image;
}

std::vector<telemetry::SessionRecord> make_session_records(std::uint64_t seed,
                                                           std::size_t rows,
                                                           int days) {
  static const std::array<std::array<const char*, 2>, fingerprint::kNumProviders>
      // Short enough for the small-string buffer: copying a record to
      // re-ingest it allocates nothing.
      kSni = {{{"googlevideo.com", "youtube.com"},
               {"nflxvideo.net", "netflix.com"},
               {"dssott.com", "disneyplus.com"},
               {"amazon.com", "primevideo.com"}}};
  campus::CampusConfig config;
  config.days = days;
  config.seed = seed;
  campus::CampusSimulator simulator(config);
  Rng rng(seed * 0xD6E8FEB86659FD93ULL + 0x3d);

  std::vector<telemetry::SessionRecord> records;
  records.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const campus::SessionPlan plan = simulator.plan_session();
    telemetry::SessionRecord r;
    r.provider = plan.provider;
    r.transport = plan.transport;
    if (plan.unknown_platform) {
      r.outcome = telemetry::Outcome::Unknown;
      r.confidence = rng.uniform_real(0.2, 0.6);
    } else if (rng.bernoulli(0.1)) {
      r.outcome = telemetry::Outcome::Partial;
      r.device = plan.platform.os;
      r.confidence = rng.uniform_real(0.5, 0.8);
    } else {
      r.outcome = telemetry::Outcome::Composite;
      r.platform = plan.platform;
      r.device = plan.platform.os;
      r.agent = plan.platform.agent;
      r.confidence = rng.uniform_real(0.8, 1.0);
    }
    r.sni = kSni[static_cast<std::size_t>(plan.provider)][rng.uniform(0, 1)];
    const auto duration_us = static_cast<std::uint64_t>(plan.duration_s * 1e6);
    r.counters.first_us = plan.start_us;
    r.counters.last_us = plan.start_us + duration_us;
    r.counters.bytes_down =
        static_cast<std::uint64_t>(plan.bandwidth_mbps * 1e6 / 8 * plan.duration_s);
    r.counters.bytes_up = r.counters.bytes_down / 50;
    r.counters.packets_down = r.counters.bytes_down / kPayloadSegment + 1;
    r.counters.packets_up = r.counters.packets_down / 2 + 1;
    records.push_back(std::move(r));
  }
  // A store receives each record when its session ends, so the stream is in
  // end-time order; start-time zone maps then prune windowed queries.
  std::stable_sort(records.begin(), records.end(),
                   [](const telemetry::SessionRecord& a, const telemetry::SessionRecord& b) {
                     return a.counters.last_us < b.counters.last_us;
                   });
  return records;
}

std::vector<telemetry::SessionRecord> tile_records(
    const std::vector<telemetry::SessionRecord>& records, std::size_t min_rows) {
  if (records.empty()) return {};
  std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
  for (const auto& r : records) {
    lo = std::min(lo, r.counters.first_us);
    hi = std::max(hi, r.counters.last_us);
  }
  const std::uint64_t period = hi - lo + 1;
  const std::size_t copies = (min_rows + records.size() - 1) / records.size();
  std::vector<telemetry::SessionRecord> out;
  out.reserve(copies * records.size());
  for (std::size_t k = 0; k < copies; ++k) {
    for (const auto& r : records) {
      out.push_back(r);
      out.back().counters.first_us += k * period;
      out.back().counters.last_us += k * period;
    }
  }
  return out;
}

std::uint64_t fnv1a(ByteView data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    h ^= fnv1a({static_cast<const std::uint8_t*>(p), n}) + 0x9e3779b97f4a7c15ULL +
         (h << 6) + (h >> 2);
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof(v));
  }
};

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t record_hash(const telemetry::SessionRecord& r) {
  Hasher h;
  h.pod(static_cast<int>(r.provider));
  h.pod(static_cast<int>(r.transport));
  h.pod(static_cast<int>(r.outcome));
  h.pod(r.platform ? fingerprint::platform_label(*r.platform) : -1);
  h.pod(r.device ? static_cast<int>(*r.device) : -1);
  h.pod(r.agent ? static_cast<int>(*r.agent) : -1);
  h.pod(r.confidence);
  h.bytes(r.sni.data(), r.sni.size());
  h.pod(r.counters.first_us);
  h.pod(r.counters.last_us);
  h.pod(r.counters.bytes_down);
  h.pod(r.counters.bytes_up);
  h.pod(r.counters.packets_down);
  h.pod(r.counters.packets_up);
  return h.h;
}

std::uint64_t records_digest(const std::vector<telemetry::SessionRecord>& records) {
  std::uint64_t sum = 0;
  for (const auto& r : records) sum += mix64(record_hash(r));
  return sum ^ mix64(records.size());
}

}  // namespace perfbench
