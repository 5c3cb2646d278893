#include "obs/span.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "fingerprint/platform.hpp"
#include "obs/export.hpp"

namespace vpscope::obs {

namespace {

/// Microseconds with nanosecond fraction, as Chrome expects.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

std::string os_name(std::uint8_t os) {
  if (os == Span::kNoPlatform) return "?";
  return fingerprint::to_string(static_cast<fingerprint::Os>(os));
}

std::string agent_name(std::uint8_t agent) {
  if (agent == Span::kNoPlatform) return "?";
  return fingerprint::to_string(static_cast<fingerprint::Agent>(agent));
}

/// One trace event; `span` null renders the synthesized flow root.
void append_event(std::string& out, std::string_view name, std::uint64_t ts_ns,
                  std::uint64_t dur_ns, int tid, std::uint64_t flow,
                  std::uint64_t span_id, std::uint64_t parent_id,
                  const Span* span, bool first) {
  const bool instant = span && span_is_instant(span->kind);
  if (!first) out += ',';
  out += "{\"name\":\"";
  out += name;
  out += "\",\"cat\":\"vpscope\",\"ph\":\"";
  out += instant ? 'i' : 'X';
  out += "\",\"ts\":";
  append_us(out, ts_ns);
  if (!instant) {
    out += ",\"dur\":";
    append_us(out, dur_ns);
  }
  out += ",\"pid\":1,\"tid\":";
  append_u64(out, static_cast<std::uint64_t>(tid));
  out += ",\"args\":{\"flow\":";
  append_u64(out, flow);
  out += ",\"span\":";
  append_u64(out, span_id);
  out += ",\"parent\":";
  append_u64(out, parent_id);
  out += ",\"model_gen\":";
  append_u64(out, span ? span->model_gen : 0);
  if (span) append_instant_detail(out, *span);
  out += "}}";
}

}  // namespace

void append_instant_detail(std::string& out, const Span& s) {
  if (!span_is_instant(s.kind)) return;
  out += ",\"ts_us\":";
  append_u64(out, s.ts_us);
  switch (s.kind) {
    case SpanKind::Classified: {
      out += ",\"os\":";
      append_json_string(out, os_name(s.os));
      out += ",\"agent\":";
      append_json_string(out, agent_name(s.agent));
      out += ",\"composite\":";
      out += s.composite ? "true" : "false";
      out += ",\"confidence\":";
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%.4f",
                    static_cast<double>(s.confidence));
      out += buf;
      break;
    }
    case SpanKind::Shed:
      out += ",\"admission_class\":";
      append_u64(out, s.detail);
      break;
    case SpanKind::Stranded:
    case SpanKind::Recovered:
      out += ",\"shard\":";
      append_u64(out, s.detail);
      break;
    default:
      break;
  }
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  // Stable output: sort by (flow, start, id) so identical span sets render
  // identically regardless of ring drain order.
  std::vector<const Span*> ordered;
  ordered.reserve(spans.size());
  for (const Span& s : spans) ordered.push_back(&s);
  std::sort(ordered.begin(), ordered.end(),
            [](const Span* a, const Span* b) {
              if (a->flow_hash != b->flow_hash)
                return a->flow_hash < b->flow_hash;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->span_id < b->span_id;
            });

  std::string out;
  out.reserve(128 + ordered.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  std::uint64_t root_id = 0;
  std::size_t i = 0;
  while (i < ordered.size()) {
    // One flow's run of spans: synthesize the root covering min..max, then
    // emit the spans themselves. Parentless spans attach to the root.
    const std::uint64_t flow = ordered[i]->flow_hash;
    std::size_t end = i;
    std::uint64_t lo = ordered[i]->start_ns, hi = 0;
    while (end < ordered.size() && ordered[end]->flow_hash == flow) {
      lo = std::min(lo, ordered[end]->start_ns);
      hi = std::max(hi, ordered[end]->start_ns + ordered[end]->dur_ns);
      ++end;
    }
    // Root ids are 0<<40 | k, the id range no ring assigns (ring ids are
    // (slot+1)<<40 | seq), numbered in export order so output is stable.
    ++root_id;
    append_event(out, "flow", lo, hi - lo, ordered[i]->slot, flow, root_id,
                 0, nullptr, first);
    first = false;
    for (; i < end; ++i) {
      const Span& s = *ordered[i];
      append_event(out, span_kind_name(s.kind), s.start_ns, s.dur_ns, s.slot,
                   flow, s.span_id, s.parent_id ? s.parent_id : root_id, &s,
                   false);
    }
  }
  out += "]}";
  return out;
}

}  // namespace vpscope::obs
