#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Capture: return "capture";
    case Layer::Net: return "net";
    case Layer::FlowMirror: return "flowmirror";
    case Layer::Extract: return "extract";
    case Layer::Quic: return "quic";
    case Layer::Crypto: return "crypto";
    case Layer::Tls: return "tls";
    case Layer::Classify: return "classify";
    case Layer::Encode: return "encode";
    case Layer::Telemetry: return "telemetry";
  }
  return "?";
}

SpanRef SpanLog::record(Layer layer, SpanRef parent, std::uint64_t flow,
                        std::uint64_t start_ns, std::uint64_t end_ns) {
  const std::uint64_t id = next_id_++;
  const auto l = static_cast<std::size_t>(layer);
  total_[l] += end_ns - start_ns;
  if (spans_.size() < keep_)
    spans_.push_back({id, parent.id, flow, start_ns, end_ns, layer, false});
  return {id, layer};
}

SpanRef SpanLog::record_contained(Layer layer, SpanRef container,
                                  std::uint64_t container_start_ns,
                                  std::uint64_t container_end_ns,
                                  std::uint64_t flow,
                                  std::uint64_t duration_ns) {
  const std::uint64_t id = next_id_++;
  const std::uint64_t dur =
      std::min(duration_ns, container_end_ns - container_start_ns);
  const auto l = static_cast<std::size_t>(layer);
  total_[l] += dur;
  contained_[static_cast<std::size_t>(container.layer)] += dur;
  if (spans_.size() < keep_)
    spans_.push_back({id, container.id, flow, container_start_ns,
                      container_start_ns + dur, layer, true});
  return {id, layer};
}

double SpanLog::self_ns(Layer layer) const {
  const auto l = static_cast<std::size_t>(layer);
  return static_cast<double>(total_[l]) - static_cast<double>(contained_[l]);
}

bool SpanLog::write_trace_json(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f.get(),
               "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
               "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"args\": {\"name\": \"perfbench traced replay\"}}");
  for (const Span& s : spans_) {
    std::fprintf(f.get(),
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu, \"flow\": %llu, "
                 "\"contained\": %s}}",
                 layer_name(s.layer), s.contained ? "direct-call" : "stage",
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.flow),
                 s.contained ? "true" : "false");
  }
  std::fprintf(f.get(), "\n]}\n");
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench
