// In-memory spans for the traced run, recorded by the benchmark around its
// own calls into each vpscope layer. A span's parent is either the previous
// stage of the same packet (causal) or, for spans measured by a direct call
// on the same input, the span that contains that work (`contained`). Self
// time subtracts contained children only.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  Capture,     // PcapReader::next + ip_datagram_of + packet copy
  Net,         // net::decode
  FlowMirror,  // the benchmark's own flow map, mirroring the pipeline's
               // flow table: lookup/insert and counter update
  Extract,     // HandshakeExtractor::feed
  Quic,        // unprotect_client_initial (contained in Extract)
  Crypto,      // derive_client_initial_keys (contained in Quic)
  Tls,         // ClientHello parse (contained in Extract)
  Classify,    // ClassifierBank::classify
  Encode,      // FeatureEncoder::transform_into (contained in Classify)
  Telemetry,   // SessionStore::insert of a finished flow's record
};
inline constexpr std::size_t kLayers = 10;
const char* layer_name(Layer layer);

struct SpanRef {
  std::uint64_t id = 0;
  Layer layer = Layer::Capture;
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t flow = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  Layer layer = Layer::Capture;
  bool contained = false;
};

class SpanLog {
 public:
  /// Spans beyond `keep` are aggregated but not retained for export.
  explicit SpanLog(std::size_t keep) : keep_(keep) {}

  /// Records a stage span; `parent` is its causal predecessor (id 0: none).
  SpanRef record(Layer layer, SpanRef parent, std::uint64_t flow,
                 std::uint64_t start_ns, std::uint64_t end_ns);
  /// Records a span measured by a direct call and contained in `container`:
  /// placed at the container's start, clipped to its duration.
  SpanRef record_contained(Layer layer, SpanRef container,
                           std::uint64_t container_start_ns,
                           std::uint64_t container_end_ns, std::uint64_t flow,
                           std::uint64_t duration_ns);

  /// Span time minus contained children, summed per layer.
  double self_ns(Layer layer) const;
  std::uint64_t total_ns(Layer layer) const { return total_[static_cast<std::size_t>(layer)]; }

  /// Chrome trace-event JSON ("X" slices), which Perfetto UI opens.
  bool write_trace_json(const std::string& path) const;
  std::size_t retained() const { return spans_.size(); }

 private:
  std::size_t keep_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::array<std::uint64_t, kLayers> total_{};
  std::array<std::uint64_t, kLayers> contained_{};
};

}  // namespace perfbench
