#include "replay_phase.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_map>

#include "alloc_count.hpp"
#include "capture/frame.hpp"
#include "capture/pcap.hpp"
#include "core/handshake.hpp"
#include "net/ip.hpp"
#include "net/udp.hpp"
#include "pipeline/pipeline.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "quic/initial.hpp"
#include "telemetry/columnar.hpp"
#include "tls/client_hello.hpp"

namespace perfbench {

using namespace vpscope;
using pipeline::ClassifierBank;
using pipeline::PipelineStats;
using pipeline::PlatformPrediction;
using telemetry::SessionRecord;

capture::ReplayOptions replay_options() {
  capture::ReplayOptions options;
  options.flush_interval_us = 1'000'000;
  options.idle_timeout_us = 2'000'000;
  return options;
}

namespace {

pipeline::ShardedPipelineOptions sharded_options() {
  pipeline::ShardedPipelineOptions options;  // default batch, Overload::Block
  options.n_shards = kShards;
  return options;
}

bool is_handshake(FrameKind kind) {
  return kind == FrameKind::Handshake || kind == FrameKind::Trailing;
}

/// Checks one pass's accounting: every frame delivered, the packet identity,
/// and nothing lost to drops, stranding, sink or worker errors.
void check_pass(Gate& gate, const char* label, const ReplayImage& image,
                const capture::ReplayStats& replay, const PipelineStats& s) {
  const std::string l = label;
  gate.check(replay.ok, l + ": pcap image did not replay to a clean EOF");
  gate.check(replay.frames == image.frames(),
             l + ": replay delivered " + std::to_string(replay.frames) +
                 " of " + std::to_string(image.frames()) + " frames");
  gate.check(s.packets_total == replay.frames,
             l + ": packets_total differs from frames delivered");
  gate.check(s.packets_total == s.packets_processed + s.packets_dropped_payload +
                                    s.packets_dropped_handshake +
                                    s.packets_stranded,
             l + ": packet identity does not hold");
  gate.check(s.packets_dropped_payload + s.packets_dropped_handshake +
                     s.packets_stranded ==
                 0,
             l + ": lossless replay dropped or stranded packets");
  gate.check(s.sink_errors == 0 && s.worker_errors == 0,
             l + ": sink or worker errors");
  gate.check(s.flows_evicted_capacity == 0, l + ": flows evicted");
}

struct Matched {
  std::size_t matched = 0;     // legitimate flows with exactly one record
  std::size_t accurate = 0;    // ... whose composite platform is the truth
  std::size_t unexpected = 0;  // records that map to no legitimate flow
};

/// Maps records back to the generator's flows through their unique
/// first-packet timestamp.
Matched match_records(const ReplayImage& image,
                      const std::vector<SessionRecord>& records) {
  std::unordered_map<std::uint64_t, std::uint32_t> by_first;
  by_first.reserve(image.flows.size());
  for (std::uint32_t i = 0; i < image.flows.size(); ++i)
    by_first.emplace(image.flows[i].first_us, i);
  std::vector<bool> seen(image.flows.size(), false);
  Matched m;
  for (const auto& r : records) {
    const auto it = by_first.find(r.counters.first_us);
    if (it == by_first.end() || seen[it->second]) {
      ++m.unexpected;
      continue;
    }
    const FlowTruth& truth = image.flows[it->second];
    if (r.provider != truth.provider || r.transport != truth.transport) {
      ++m.unexpected;
      continue;
    }
    seen[it->second] = true;
    ++m.matched;
    if (r.outcome == telemetry::Outcome::Composite && r.platform &&
        *r.platform == truth.platform)
      ++m.accurate;
  }
  return m;
}

std::size_t check_records(Gate& gate, const char* label,
                          const ReplayImage& image,
                          const std::vector<SessionRecord>& records,
                          Matched* out = nullptr) {
  const Matched m = match_records(image, records);
  gate.check(m.unexpected == 0, std::string(label) + ": " +
                                    std::to_string(m.unexpected) +
                                    " records match no legitimate flow");
  gate.check(m.matched == image.flows.size(),
             std::string(label) + ": " + std::to_string(m.matched) +
                 " records for " + std::to_string(image.flows.size()) +
                 " legitimate video flows");
  if (out) *out = m;
  return image.flows.size() - m.matched;
}

/// Single-threaded front-end that times each on_packet call of a flow's
/// handshake packets: their sum is the flow's time to verdict.
class VerdictTimer {
 public:
  VerdictTimer(pipeline::VideoFlowPipeline& pipe, const ReplayImage& image,
               std::vector<std::uint64_t>& verdict_ns)
      : pipe_(pipe), image_(image), verdict_ns_(verdict_ns) {}

  void on_packet(net::Packet&& packet) {
    const std::size_t i = next_++;
    if (i < image_.frames() && is_handshake(image_.frame_kind[i])) {
      const std::uint64_t t0 = now_ns();
      pipe_.on_packet(std::move(packet));
      verdict_ns_[image_.frame_flow[i]] += now_ns() - t0;
    } else {
      pipe_.on_packet(std::move(packet));
    }
  }
  void flush_idle(std::uint64_t now_us, std::uint64_t idle_us) {
    pipe_.flush_idle(now_us, idle_us);
  }
  void flush_all() { pipe_.flush_all(); }

 private:
  pipeline::VideoFlowPipeline& pipe_;
  const ReplayImage& image_;
  std::vector<std::uint64_t>& verdict_ns_;
  std::size_t next_ = 0;
};

struct SinglePass {
  double seconds = 0.0;
  std::vector<double> verdict_us;
  std::vector<SessionRecord> records;
};

SinglePass single_pass(const ClassifierBank& bank, const ReplayImage& image,
                       Gate& gate) {
  SinglePass out;
  out.records.reserve(image.flows.size());
  std::vector<std::uint64_t> verdict_ns(image.flows.size(), 0);
  pipeline::VideoFlowPipeline pipe(&bank);
  pipe.set_sink([&out](SessionRecord r) { out.records.push_back(std::move(r)); });
  VerdictTimer front(pipe, image, verdict_ns);
  const std::uint64_t t0 = now_ns();
  const auto replay = capture::replay_into(image.pcap, front, replay_options());
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  check_pass(gate, "single-threaded replay", image, replay, pipe.stats());
  out.verdict_us.reserve(verdict_ns.size());
  for (const auto ns : verdict_ns) out.verdict_us.push_back(static_cast<double>(ns) / 1e3);
  return out;
}

struct ShardedPass {
  double seconds = 0.0;
  std::vector<SessionRecord> records;
};

ShardedPass sharded_pass(const ClassifierBank& bank, const ReplayImage& image,
                         Gate& gate) {
  ShardedPass out;
  out.records.reserve(image.flows.size());
  pipeline::ShardedPipeline pipe(&bank, sharded_options());
  // The sink runs on worker threads, serialized by the pipeline.
  pipe.set_sink([&out](SessionRecord r) { out.records.push_back(std::move(r)); });
  const std::uint64_t t0 = now_ns();
  const auto replay = capture::replay_into(image.pcap, pipe, replay_options());
  out.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  check_pass(gate, "sharded replay", image, replay, pipe.stats());
  return out;
}

}  // namespace

std::vector<SessionRecord> replay_records(const ClassifierBank& bank,
                                          const ReplayImage& image,
                                          Gate& gate) {
  SinglePass pass = single_pass(bank, image, gate);
  check_records(gate, "reference replay", image, pass.records);
  return std::move(pass.records);
}

void ReplayRounds::run_round() {
  const auto frames = static_cast<double>(image_.frames());
  const bool first = sum_.pps.empty();

  SinglePass single = single_pass(bank_, image_, gate_);
  sum_.pps.push_back(frames / single.seconds);
  sum_.verdict_us.resize(single.verdict_us.size());
  for (std::size_t i = 0; i < single.verdict_us.size(); ++i)
    sum_.verdict_us[i].push_back(single.verdict_us[i]);
  Matched m;
  sum_.flows_failed +=
      check_records(gate_, "single-threaded replay", image_, single.records, &m);
  sum_.flows_offered += image_.flows.size();
  const std::uint64_t digest = records_digest(single.records);
  if (first) {
    sum_.records_digest = digest;
    sum_.composite_accuracy =
        static_cast<double>(m.accurate) / static_cast<double>(image_.flows.size());
    sum_.records = std::move(single.records);
  } else {
    gate_.check(digest == sum_.records_digest,
                "single-threaded records differ between rounds");
  }

  ShardedPass sharded = sharded_pass(bank_, image_, gate_);
  sum_.pps_sharded.push_back(frames / sharded.seconds);
  sum_.flows_failed += check_records(gate_, "sharded replay", image_, sharded.records);
  sum_.flows_offered += image_.flows.size();
  gate_.check(records_digest(sharded.records) == sum_.records_digest,
              "sharded records differ from single-threaded records");
}

std::vector<double> ReplayRounds::sustained_verdict_us() const {
  std::vector<double> out;
  out.reserve(sum_.verdict_us.size());
  for (const auto& rounds : sum_.verdict_us) out.push_back(sustained_latency(rounds));
  return out;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

namespace {

/// Flow state of the composed path, mirroring what VideoFlowPipeline keeps.
struct ComposedFlow {
  core::HandshakeExtractor extractor;
  quic::CryptoReassembler reassembler;  // direct-call TLS parse input (QUIC)
  Bytes tcp_stream;                     // direct-call TLS parse input (TCP)
  telemetry::FlowCounters counters;
  net::IpAddr client;
  std::uint16_t client_port = 0;
  fingerprint::Transport transport = fingerprint::Transport::Tcp;
  std::optional<fingerprint::Provider> provider;
  std::optional<PlatformPrediction> prediction;
  std::string sni;
  std::uint64_t extract_ns = 0;
  std::uint64_t flow_id = 0;
  SpanRef last;
};

struct DirectTimes {
  std::vector<double> unprotect_ns;  // legitimate Initials
  std::vector<double> reject_ns;     // forged Initials
  std::vector<double> keys_ns;
  std::vector<double> tls_ns;
  std::vector<double> extract_tcp_ns;  // per flow
  std::vector<double> extract_quic_ns;
  std::vector<double> encode_ns;
  std::vector<double> classify_ns;     // classify minus its encode
  std::uint64_t encode_allocs = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t classified = 0;
};

struct Staged {
  core::FlowHandshake handshake;
  fingerprint::Provider provider;
  PlatformPrediction inline_prediction;
};

struct ComposedResult {
  double wall_ns = 0.0;  // loop time minus the benchmark's measurement work
  std::uint64_t frames = 0;
  std::uint64_t read_decode_allocs = 0;
  std::vector<SessionRecord> records;
  std::vector<Staged> staged;  // completed handshakes, for the batch probe
};

std::optional<ByteView> dcid_of(ByteView datagram) {
  if (datagram.size() < 6) return std::nullopt;
  const std::size_t len = datagram[5];
  if (datagram.size() < 6 + len) return std::nullopt;
  return datagram.subspan(6, len);
}

/// reader -> shim -> decode -> flow map -> extract -> encode/classify ->
/// store insert, composed from public calls. Traced (`spans` and `direct`
/// given), it records a span around each call and makes the direct calls;
/// untraced, it makes the same calls with no clock reads, spans or direct
/// calls, which is the baseline of `trace.overhead`.
ComposedResult composed_replay(const ClassifierBank& bank,
                               const ReplayImage& image, SpanLog* spans,
                               DirectTimes* direct) {
  const bool traced = spans != nullptr;
  auto clock = [traced] { return traced ? now_ns() : std::uint64_t{0}; };
  auto span = [spans](Layer layer, SpanRef parent, std::uint64_t flow,
                      std::uint64_t t0, std::uint64_t t1) {
    return spans ? spans->record(layer, parent, flow, t0, t1) : SpanRef{};
  };
  ComposedResult res;
  // The benchmark's own flow map, mirroring VideoFlowPipeline's flow table;
  // it is not vpscope code.
  std::unordered_map<net::FlowKey, ComposedFlow, net::FlowKeyHash> flows;
  telemetry::SessionStore store;
  core::RawAttrs raw;
  std::vector<double> features;
  // Time spent on the benchmark's own measurement work inside the loop
  // (direct calls, copies kept for checks); not part of any layer.
  std::uint64_t measure_ns = 0;
  const capture::ReplayOptions options = replay_options();
  std::uint64_t next_flush_us = 0;

  auto finalize = [&](ComposedFlow& f) {
    if (!f.provider) return;
    SessionRecord record;
    record.provider = *f.provider;
    record.transport = f.transport;
    record.sni = f.sni;
    record.counters = f.counters;
    if (f.prediction) {
      record.outcome = f.prediction->outcome;
      record.platform = f.prediction->platform;
      record.device = f.prediction->device;
      record.agent = f.prediction->agent;
      record.confidence = f.prediction->platform_confidence;
    }
    // Once per flow, so timed in both modes.
    const std::uint64_t k0 = now_ns();
    res.records.push_back(record);  // kept for the records check
    const std::uint64_t t0 = now_ns();
    measure_ns += t0 - k0;
    store.insert(std::move(record));
    f.last = span(Layer::Telemetry, f.last, f.flow_id, t0, clock());
  };
  auto flush_idle = [&](std::uint64_t now_us) {
    for (auto it = flows.begin(); it != flows.end();) {
      if (it->second.counters.idle_us(now_us) >= options.idle_timeout_us) {
        finalize(it->second);
        it = flows.erase(it);
      } else {
        ++it;
      }
    }
  };

  auto reader = capture::PcapReader::open(image.pcap);
  if (!reader) return res;
  const std::uint64_t loop_start = now_ns();
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t t0 = clock();
    const std::uint64_t allocs0 = traced ? alloc::count() : 0;
    const auto frame = reader->next();
    if (!frame) break;
    const auto datagram = capture::ip_datagram_of(frame->bytes, reader->info().link_type);
    if (!datagram) continue;
    const net::Packet packet{frame->timestamp_us, Bytes(datagram->begin(), datagram->end())};
    const std::uint64_t t1 = clock();
    const auto decoded = net::decode(packet);
    const std::uint64_t t2 = clock();
    if (traced) res.read_decode_allocs += alloc::count() - allocs0;
    ++res.frames;
    const std::uint64_t flow_id =
        i < image.frames() && image.frame_flow[i] != kNoFlow ? image.frame_flow[i] + 1 : 0;
    const SpanRef cap = span(Layer::Capture, {}, flow_id, t0, t1);
    const SpanRef dec = span(Layer::Net, cap, flow_id, t1, t2);
    if (!decoded) continue;

    if (next_flush_us == 0) {
      next_flush_us = decoded->timestamp_us + options.flush_interval_us;
    } else if (decoded->timestamp_us >= next_flush_us) {
      flush_idle(decoded->timestamp_us);
      next_flush_us = decoded->timestamp_us + options.flush_interval_us;
    }
    if (decoded->src_port() != 443 && decoded->dst_port() != 443) continue;

    // Flow map: lookup/insert plus the telemetry counters.
    const std::uint64_t t3 = clock();
    auto [it, inserted] = flows.try_emplace(decoded->flow_key());
    ComposedFlow& f = it->second;
    if (inserted) {
      const bool to_server = decoded->dst_port() == 443;
      f.client = to_server ? decoded->src : decoded->dst;
      f.client_port = to_server ? decoded->src_port() : decoded->dst_port();
      f.transport = decoded->udp ? fingerprint::Transport::Quic
                                 : fingerprint::Transport::Tcp;
      f.flow_id = flow_id;
    }
    const bool from_client =
        decoded->src == f.client && decoded->src_port() == f.client_port;
    if (from_client)
      f.counters.add_up(decoded->timestamp_us, decoded->ip_packet_size);
    else
      f.counters.add_down(decoded->timestamp_us, decoded->ip_packet_size);
    const std::uint64_t t4 = clock();
    f.last = span(Layer::FlowMirror, dec, flow_id, t3, t4);
    if (f.prediction || f.extractor.complete()) continue;

    // Extract runs on every packet of a flow until its handshake completes;
    // packets it rejects (e.g. Initials that fail AEAD) are extract work too.
    const std::uint64_t t5 = clock();
    f.extractor.feed(*decoded);
    const std::uint64_t t6 = clock();

    // Direct calls on the same input, outside every stage span and after
    // feed, so that the stage chain meets the caches as the untraced path
    // does: QUIC unprotect and key derivation for Initials, client bytes
    // for TLS.
    std::uint64_t keys_dur = 0, unprotect_dur = 0;
    if (traced) {
      const std::uint64_t d0 = now_ns();
      if (decoded->udp && quic::looks_like_initial(decoded->payload)) {
        if (const auto dcid = dcid_of(decoded->payload)) {
          const std::uint64_t k0 = now_ns();
          [[maybe_unused]] const auto keys = quic::derive_client_initial_keys(*dcid);
          keys_dur = now_ns() - k0;
          direct->keys_ns.push_back(static_cast<double>(keys_dur));
        }
        const std::uint64_t u0 = now_ns();
        const auto initial = quic::unprotect_client_initial(decoded->payload);
        unprotect_dur = now_ns() - u0;
        if (initial) {
          direct->unprotect_ns.push_back(static_cast<double>(unprotect_dur));
          f.reassembler.add(*initial);
        } else if (i < image.frames() && image.frame_kind[i] == FrameKind::Forged) {
          direct->reject_ns.push_back(static_cast<double>(unprotect_dur));
        }
      } else if (decoded->tcp && from_client && !decoded->payload.empty()) {
        f.tcp_stream.insert(f.tcp_stream.end(), decoded->payload.begin(),
                            decoded->payload.end());
      }
      measure_ns += now_ns() - d0;
    }
    const SpanRef ext = span(Layer::Extract, f.last, flow_id, t5, t6);
    f.last = ext;
    f.extract_ns += t6 - t5;
    if (traced && unprotect_dur > 0) {
      const SpanRef q = spans->record_contained(Layer::Quic, ext, t5, t6, flow_id, unprotect_dur);
      if (keys_dur > 0) spans->record_contained(Layer::Crypto, q, t5, t6, flow_id, keys_dur);
    }
    if (!f.extractor.complete()) continue;

    std::uint64_t encode_dur = 0;
    if (traced) {
      (f.transport == fingerprint::Transport::Quic ? direct->extract_quic_ns
                                                   : direct->extract_tcp_ns)
          .push_back(static_cast<double>(f.extract_ns));

      // Direct TLS parse of the same ClientHello bytes.
      const std::uint64_t p0 = now_ns();
      std::uint64_t tls_dur = 0;
      if (f.transport == fingerprint::Transport::Quic) {
        const Bytes stream = f.reassembler.contiguous_prefix();
        const std::uint64_t s0 = now_ns();
        [[maybe_unused]] const auto chlo = tls::ClientHello::parse_handshake(stream);
        tls_dur = now_ns() - s0;
      } else {
        const std::uint64_t s0 = now_ns();
        [[maybe_unused]] const auto chlo = tls::ClientHello::parse_record(f.tcp_stream);
        tls_dur = now_ns() - s0;
      }
      direct->tls_ns.push_back(static_cast<double>(tls_dur));
      spans->record_contained(Layer::Tls, ext, t5, t6, flow_id, tls_dur);
      measure_ns += now_ns() - p0;
    }

    f.sni = f.extractor.sni();
    f.provider = pipeline::provider_from_sni(f.sni);
    if (!f.provider) continue;
    const core::FlowHandshake& handshake = *f.extractor.handshake();

    // Direct encode of the same handshake (classify encodes internally).
    if (traced) {
      const std::uint64_t e0 = now_ns();
      if (const auto* scenario = bank.scenario(*f.provider, f.transport)) {
        features.resize(scenario->encoder.dimension());
        const alloc::Scope encode_allocs;
        const std::uint64_t s0 = now_ns();
        scenario->encoder.transform_into(handshake, raw, features);
        encode_dur = now_ns() - s0;
        direct->encode_allocs += encode_allocs.allocations();
        direct->encode_ns.push_back(static_cast<double>(encode_dur));
      }
      measure_ns += now_ns() - e0;
    }

    const std::uint64_t c0 = clock();
    f.prediction = bank.classify(handshake, *f.provider);
    const std::uint64_t c1 = clock();
    const SpanRef cls = span(Layer::Classify, f.last, flow_id, c0, c1);
    f.last = cls;
    if (!traced) continue;
    if (encode_dur > 0) spans->record_contained(Layer::Encode, cls, c0, c1, flow_id, encode_dur);
    direct->classify_ns.push_back(
        static_cast<double>(c1 - c0) - static_cast<double>(std::min(encode_dur, c1 - c0)));
    ++direct->classified;
    if (f.prediction->outcome != telemetry::Outcome::Composite) ++direct->fallbacks;
    const std::uint64_t b0 = now_ns();
    res.staged.push_back({handshake, *f.provider, *f.prediction});
    measure_ns += now_ns() - b0;
  }
  for (auto& [key, f] : flows) finalize(f);
  flows.clear();
  res.wall_ns = static_cast<double>(now_ns() - loop_start) - static_cast<double>(measure_ns);
  return res;
}

/// Single-threaded front-end timing every on_packet call by frame kind.
class LayerTimer {
 public:
  LayerTimer(pipeline::VideoFlowPipeline& pipe, const ReplayImage& image)
      : pipe_(pipe), image_(image), handshake_ns_(image.flows.size(), 0) {}

  void on_packet(net::Packet&& packet) {
    const std::size_t i = next_++;
    const FrameKind kind = i < image_.frames() ? image_.frame_kind[i] : FrameKind::Forged;
    const alloc::Scope allocs;
    const std::uint64_t t0 = now_ns();
    pipe_.on_packet(std::move(packet));
    const std::uint64_t dt = now_ns() - t0;
    switch (kind) {
      case FrameKind::Handshake:
        handshake_ns_[image_.frame_flow[i]] += dt;
        break;
      case FrameKind::Trailing:
        handshake_ns_[image_.frame_flow[i]] += dt;
        [[fallthrough]];
      case FrameKind::Payload:
        payload_ns_ += dt;
        payload_allocs_ += allocs.allocations();
        ++payload_n_;
        break;
      case FrameKind::Forged:
        junk_ns_ += dt;
        ++junk_n_;
        break;
    }
    peak_flows_ = std::max(peak_flows_, pipe_.active_flows());
  }
  void flush_idle(std::uint64_t now_us, std::uint64_t idle_us) {
    pipe_.flush_idle(now_us, idle_us);
  }
  void flush_all() { pipe_.flush_all(); }

  double handshake_ns_per_flow() const {
    double s = 0;
    for (const auto ns : handshake_ns_) s += static_cast<double>(ns);
    return handshake_ns_.empty() ? 0.0 : s / static_cast<double>(handshake_ns_.size());
  }
  double payload_ns_per_pkt() const { return ratio(payload_ns_, payload_n_); }
  double payload_allocs_per_pkt() const { return ratio(payload_allocs_, payload_n_); }
  double junk_ns_per_pkt() const { return ratio(junk_ns_, junk_n_); }
  std::size_t peak_flows() const { return peak_flows_; }

 private:
  static double ratio(std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  }
  pipeline::VideoFlowPipeline& pipe_;
  const ReplayImage& image_;
  std::vector<std::uint64_t> handshake_ns_;
  std::uint64_t payload_ns_ = 0, payload_allocs_ = 0, payload_n_ = 0;
  std::uint64_t junk_ns_ = 0, junk_n_ = 0;
  std::size_t peak_flows_ = 0;
  std::size_t next_ = 0;
};

/// Dispatcher-side timing of the sharded front-end.
class DispatchTimer {
 public:
  explicit DispatchTimer(pipeline::ShardedPipeline& pipe) : pipe_(pipe) {}
  void on_packet(net::Packet&& packet) {
    const std::uint64_t t0 = now_ns();
    pipe_.on_packet(std::move(packet));
    busy_ns_ += now_ns() - t0;
    ++calls_;
  }
  void flush_idle(std::uint64_t now_us, std::uint64_t idle_us) {
    pipe_.flush_idle(now_us, idle_us);
  }
  void flush_all() {
    const std::uint64_t t0 = now_ns();
    pipe_.flush_all();
    drain_ns_ = now_ns() - t0;
  }
  std::uint64_t busy_ns() const { return busy_ns_; }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t drain_ns() const { return drain_ns_; }

 private:
  pipeline::ShardedPipeline& pipe_;
  std::uint64_t busy_ns_ = 0, calls_ = 0, drain_ns_ = 0;
};

/// Forged Initials as UDP/443 packets from fresh 5-tuples, for the
/// rejection probes of workloads that carry none in their image.
std::vector<net::Packet> forged_probe(std::uint64_t seed, int n) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL + 0x77);
  std::vector<net::Packet> out;
  for (int i = 0; i < n; ++i) {
    net::UdpHeader udp;
    udp.src_port = static_cast<std::uint16_t>(rng.uniform(1024, 65535));
    udp.dst_port = 443;
    net::Ipv4Header ip;
    ip.protocol = net::kProtoUdp;
    ip.src = net::IpAddr::v4(100, 64, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i & 0xff));
    ip.dst = net::IpAddr::v4(142, 250, 0, 1);
    out.push_back({static_cast<std::uint64_t>(i) * 10,
                   ip.serialize(udp.serialize(forged_initial_payload(rng)))});
  }
  return out;
}

}  // namespace

void run_replay_traced(const ClassifierBank& bank, const ReplayImage& image,
                       std::uint64_t seed, double composed_budget_s,
                       SpanLog& spans, Metrics& out, FlowTally& tally,
                       Gate& gate) {
  // The composed path's records must equal the pipeline's.
  const SinglePass plain = single_pass(bank, image, gate);
  tally.failed += check_records(gate, "single-threaded replay", image, plain.records);
  tally.offered += image.flows.size();
  const std::uint64_t plain_digest = records_digest(plain.records);

  // The composed path, traced and untraced back to back (their order
  // alternating), repeated until the budget is spent. Each pair's time
  // ratio is the tracing overhead. Spans past the log's retention limit are
  // aggregated only.
  DirectTimes direct;
  std::vector<Staged> staged;  // first traced pass's completed handshakes
  std::vector<double> overhead;
  double composed_wall_ns = 0.0;
  std::uint64_t composed_frames = 0, read_decode_allocs = 0;
  auto composed_pass = [&](bool traced) {
    ComposedResult r = composed_replay(bank, image, traced ? &spans : nullptr,
                                       traced ? &direct : nullptr);
    gate.check(r.frames == image.frames(), "composed path read every frame");
    gate.check(records_digest(r.records) == plain_digest,
               std::string(traced ? "traced" : "untraced") +
                   " composed path records differ from the pipeline's");
    return r;
  };
  const std::uint64_t composed_start = now_ns();
  for (int pass = 0;; ++pass) {
    const bool traced_first = pass % 2 == 1;
    std::optional<ComposedResult> bare;
    if (!traced_first) bare = composed_pass(false);
    ComposedResult r = composed_pass(true);
    if (traced_first) bare = composed_pass(false);
    overhead.push_back(r.wall_ns / bare->wall_ns - 1.0);
    composed_wall_ns += r.wall_ns;
    composed_frames += r.frames;
    read_decode_allocs += r.read_decode_allocs;
    if (pass == 0) staged = std::move(r.staged);
    if (static_cast<double>(now_ns() - composed_start) / 1e9 >= composed_budget_s) break;
  }

  // Single-threaded front-end, every on_packet call timed.
  double bytes_per_flow = 0.0;
  pipeline::VideoFlowPipeline pipe(&bank);
  std::vector<SessionRecord> records;
  records.reserve(image.flows.size());
  pipe.set_sink([&records](SessionRecord r) { records.push_back(std::move(r)); });
  LayerTimer timer(pipe, image);
  alloc::track_live(true);
  const auto replay = capture::replay_into(image.pcap, timer, replay_options());
  const std::int64_t peak_bytes = alloc::peak_live_bytes();
  alloc::track_live(false);
  check_pass(gate, "timed single-threaded replay", image, replay, pipe.stats());
  tally.failed += check_records(gate, "timed single-threaded replay", image, records);
  tally.offered += image.flows.size();
  if (timer.peak_flows() > 0)
    bytes_per_flow = static_cast<double>(peak_bytes) / static_cast<double>(timer.peak_flows());

  // Sharded front-end, dispatcher calls timed.
  double dispatch_ns = 0, wall_share = 0, drain_ms = 0;
  {
    pipeline::ShardedPipeline sharded(&bank, sharded_options());
    std::vector<SessionRecord> sharded_records;
    sharded.set_sink([&sharded_records](SessionRecord r) {
      sharded_records.push_back(std::move(r));
    });
    DispatchTimer dispatch(sharded);
    const std::uint64_t t0 = now_ns();
    const auto r = capture::replay_into(image.pcap, dispatch, replay_options());
    const auto wall = static_cast<double>(now_ns() - t0);
    check_pass(gate, "timed sharded replay", image, r, sharded.stats());
    tally.failed += check_records(gate, "timed sharded replay", image, sharded_records);
    tally.offered += image.flows.size();
    dispatch_ns = static_cast<double>(dispatch.busy_ns()) /
                  static_cast<double>(std::max<std::uint64_t>(1, dispatch.calls()));
    wall_share = static_cast<double>(dispatch.busy_ns()) / wall;
    drain_ms = static_cast<double>(dispatch.drain_ns()) / 1e6;
  }

  // Batched classification at the sharded default batch, on the same
  // handshakes; per flow it must match the inline verdict.
  double batch_ns_per_flow = 0.0;
  if (!staged.empty()) {
    constexpr std::size_t kBatch = 32;
    ClassifierBank::ClassifyBatch batch(&bank);
    std::vector<PlatformPrediction> batched(staged.size());
    auto emit = [&batched](std::uint64_t cookie, const PlatformPrediction& p) {
      batched[cookie] = p;
    };
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < staged.size(); ++i) {
      const Staged& s = staged[i];
      if (!batch.add(s.handshake, s.provider, i))
        batched[i] = bank.classify(s.handshake, s.provider);
      if (batch.size() == kBatch) batch.classify(emit);
    }
    if (!batch.empty()) batch.classify(emit);
    batch_ns_per_flow = static_cast<double>(now_ns() - t0) /
                        static_cast<double>(staged.size());
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < batched.size(); ++i) {
      const auto& a = batched[i];
      const auto& b = staged[i].inline_prediction;
      if (a.outcome != b.outcome || a.platform != b.platform ||
          a.platform_confidence != b.platform_confidence)
        ++mismatched;
    }
    gate.check(mismatched == 0, "batched classification differs from inline");
  }

  // Rejection probes where the image carries no forged Initials.
  double junk_ns = timer.junk_ns_per_pkt();
  if (image.forged_frames == 0) {
    const auto probe = forged_probe(seed, 256);
    pipeline::VideoFlowPipeline junk_pipe(&bank);
    std::uint64_t total = 0;
    for (const auto& p : probe) {
      const auto decoded = net::decode(p);
      if (decoded) {
        const std::uint64_t u0 = now_ns();
        const auto rejected = quic::unprotect_client_initial(decoded->payload);
        direct.reject_ns.push_back(static_cast<double>(now_ns() - u0));
        gate.check(!rejected, "a forged Initial passed AEAD");
      }
      const std::uint64_t t0 = now_ns();
      junk_pipe.on_packet(p);
      total += now_ns() - t0;
    }
    junk_ns = static_cast<double>(total) / static_cast<double>(probe.size());
  }

  const double frames_n = std::max<double>(1.0, static_cast<double>(composed_frames));

  out.push_back({"capture.read_ns_per_frame",
                 static_cast<double>(spans.total_ns(Layer::Capture)) / frames_n, "ns"});
  out.push_back({"net.decode_ns_per_pkt",
                 static_cast<double>(spans.total_ns(Layer::Net)) / frames_n, "ns"});
  out.push_back({"net.allocs_per_pkt",
                 static_cast<double>(read_decode_allocs) / frames_n, "count"});
  out.push_back({"pipeline.payload_ns_per_pkt", timer.payload_ns_per_pkt(), "ns"});
  out.push_back({"pipeline.payload_allocs_per_pkt", timer.payload_allocs_per_pkt(), "count"});
  out.push_back({"pipeline.handshake_ns_per_flow", timer.handshake_ns_per_flow(), "ns"});
  out.push_back({"pipeline.junk_ns_per_pkt", junk_ns, "ns"});
  out.push_back({"pipeline.bytes_per_flow", bytes_per_flow, "B"});
  out.push_back({"dispatch.on_packet_ns", dispatch_ns, "ns"});
  out.push_back({"dispatch.wall_share", wall_share, "ratio"});
  out.push_back({"dispatch.drain_ms", drain_ms, "ms"});
  out.push_back({"core.extract_tcp_ns_per_flow", mean(direct.extract_tcp_ns), "ns"});
  out.push_back({"core.extract_quic_ns_per_flow", mean(direct.extract_quic_ns), "ns"});
  out.push_back({"quic.unprotect_ns_per_initial", mean(direct.unprotect_ns), "ns"});
  out.push_back({"quic.reject_ns_per_forged", mean(direct.reject_ns), "ns"});
  out.push_back({"crypto.initial_keys_ns", mean(direct.keys_ns), "ns"});
  out.push_back({"tls.parse_ns_per_chlo", mean(direct.tls_ns), "ns"});
  out.push_back({"core.encode_ns_per_flow", mean(direct.encode_ns), "ns"});
  out.push_back({"core.encode_allocs_per_flow",
                 direct.encode_ns.empty() ? 0.0
                                          : static_cast<double>(direct.encode_allocs) /
                                                static_cast<double>(direct.encode_ns.size()),
                 "count"});
  out.push_back({"ml.classify_ns_per_flow", mean(direct.classify_ns), "ns"});
  out.push_back({"ml.classify_batch_ns_per_flow", batch_ns_per_flow, "ns"});
  out.push_back({"ml.fallback_share",
                 direct.classified == 0 ? 0.0
                                        : static_cast<double>(direct.fallbacks) /
                                              static_cast<double>(direct.classified),
                 "ratio"});

  // Layer budget: self time per layer over the composed path's wall time.
  double attributed = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const auto layer = static_cast<Layer>(l);
    const double share = std::max(0.0, spans.self_ns(layer)) / composed_wall_ns;
    attributed += share;
    out.push_back({std::string("budget.") + layer_name(layer) + "_share", share, "ratio"});
  }
  out.push_back({"budget.unattributed_share", 1.0 - attributed, "ratio"});
  out.push_back({"trace.overhead", median(overhead), "ratio"});
}

}  // namespace perfbench
