// Causal flow tracing (DESIGN.md §5k): sampled per-flow spans with explicit
// parent links, covering a packet's whole life across threads —
//
//   capture -> dispatch -> queue -> parse/extract/encode/classify -> sink
//
// plus the flow-lifecycle events (admitted, rejected, evicted, shed,
// classified, finalized, and the shard-level stranded/recovered) as
// zero-duration instant spans in the same rings. Sampling is deterministic
// 1-in-N by flow-key hash: a flow is either fully traced or not at all, and
// two runs over the same traffic produce the same lifecycle sequence. Each
// registry slot (shard workers + the dispatcher) owns one bounded SpanRing;
// span ids embed the owning slot so they are process-unique without
// cross-thread coordination, and parent ids point at the causally
// preceding span (0 = parented to the per-flow root synthesized at export
// time).
//
// Export renders Chrome trace_event JSON (loadable in chrome://tracing and
// Perfetto): "X" complete events for stages, "i" instant events for the
// lifecycle, pid 1, tid = slot, timestamps in microseconds on the
// calibrated tick timeline, args carrying the flow hash, span/parent ids
// and the model generation that served the flow — so one flow's path
// across >= 2 shards and a mid-run model swap renders as a single parented
// timeline.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/clock.hpp"

namespace vpscope::obs {

enum class SpanKind : std::uint8_t {
  Capture,   // front-end read/pace time for the packet (when reported)
  Dispatch,  // dispatcher decode + hash + staging
  Queue,     // staging + SPSC ring residency (enqueue -> worker pop)
  Parse,     // single-threaded front-end decode
  Extract,   // HandshakeExtractor::feed
  Encode,    // FeatureEncoder::transform_into
  Classify,  // forest descent + confidence logic
  Sink,      // session-record emission
  // Flow-lifecycle instants (dur_ns 0, ts_us set):
  Admitted,    // flow inserted into the flow table
  Rejected,    // admission refused (RejectNew policy at capacity)
  Evicted,     // LRU capacity eviction
  Shed,        // dispatch-time load shed; detail = pipeline::AdmissionClass
  Classified,  // prediction produced; os/agent/composite/confidence set
  Finalized,   // session record emitted through the sink
  Stranded,    // watchdog flipped a shard to bypass; detail = shard index
  Recovered,   // shard re-admitted after drain; detail = shard index
  kCount,
};

constexpr bool span_is_instant(SpanKind kind) {
  return kind >= SpanKind::Admitted && kind < SpanKind::kCount;
}

constexpr std::string_view span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Capture: return "capture";
    case SpanKind::Dispatch: return "dispatch";
    case SpanKind::Queue: return "queue";
    case SpanKind::Parse: return "parse";
    case SpanKind::Extract: return "extract";
    case SpanKind::Encode: return "encode";
    case SpanKind::Classify: return "classify";
    case SpanKind::Sink: return "sink";
    case SpanKind::Admitted: return "admitted";
    case SpanKind::Rejected: return "rejected";
    case SpanKind::Evicted: return "evicted";
    case SpanKind::Shed: return "shed";
    case SpanKind::Classified: return "classified";
    case SpanKind::Finalized: return "finalized";
    case SpanKind::Stranded: return "stranded";
    case SpanKind::Recovered: return "recovered";
    case SpanKind::kCount: break;
  }
  return "?";
}

/// One recorded span or lifecycle instant. POD; 72 bytes. The fields after
/// `kind` are instant detail (zero on stage spans); platform fields are raw
/// fingerprint enum values, rendered to names at export.
struct Span {
  /// os/agent value of a Classified instant without that prediction.
  static constexpr std::uint8_t kNoPlatform = 0xff;

  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = parented to the flow root at export
  std::uint64_t flow_hash = 0;  // 0 on shard-level instants
  std::uint64_t start_ns = 0;   // tick_now_ns() timeline
  std::uint64_t dur_ns = 0;     // 0 on instants
  std::uint64_t model_gen = 0;  // serving model generation (0 = none)
  std::uint64_t ts_us = 0;      // instants: the triggering packet's timestamp
  std::int32_t slot = 0;        // writer slot = exported tid
  SpanKind kind = SpanKind::Dispatch;
  std::uint8_t os = 0;         // Classified: fingerprint::Os
  std::uint8_t agent = 0;      // Classified: fingerprint::Agent
  std::uint8_t composite = 0;  // Classified: confident composite prediction
  float confidence = 0.0f;     // Classified: winning probability
  std::uint32_t detail = 0;    // Shed: admission class; Stranded/Recovered:
                               // shard index
};
static_assert(sizeof(Span) == 72);

/// Bounded overwrite-oldest span ring, one per registry slot. Records are
/// per sampled flow event (plus the rare shard-level instant), far off the
/// packet hot path, so a plain mutex keeps concurrent record/drain
/// trivially clean.
class SpanRing {
 public:
  /// `slot` is baked into every id this ring assigns, making ids unique
  /// across rings without shared state: id = (slot+1) << 40 | seq.
  SpanRing(std::size_t capacity, std::uint64_t sample_n, int slot)
      : capacity_(capacity), sample_n_(sample_n), slot_(slot) {
    spans_.reserve(capacity_);
  }

  bool enabled() const { return sample_n_ != 0 && capacity_ != 0; }
  bool sampled(std::uint64_t flow_hash) const {
    return enabled() && flow_hash % sample_n_ == 0;
  }
  std::uint64_t sample_n() const { return sample_n_; }
  int slot() const { return slot_; }

  /// Records a completed span; returns its id (for use as a child's
  /// parent). Caller decides sampling via sampled().
  std::uint64_t record(SpanKind kind, std::uint64_t flow_hash,
                       std::uint64_t parent_id, std::uint64_t start_ns,
                       std::uint64_t end_ns, std::uint64_t model_gen) {
    Span span;
    span.flow_hash = flow_hash;
    span.parent_id = parent_id;
    span.start_ns = start_ns;
    span.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
    span.model_gen = model_gen;
    span.kind = kind;
    return push(span);
  }

  /// Records a lifecycle instant stamped now: the caller fills kind,
  /// flow_hash, ts_us and the kind's detail fields of `instant`.
  std::uint64_t record_instant(Span instant) {
    instant.start_ns = tick_now_ns();
    instant.dur_ns = 0;
    return push(instant);
  }

  /// Spans in arrival order (oldest first). Safe concurrently with record.
  std::vector<Span> drain_copy() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    out.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
      out.push_back(spans_[(head_ + i) % spans_.size()]);
    return out;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  SpanRing(const SpanRing&) = delete;
  SpanRing& operator=(const SpanRing&) = delete;

 private:
  std::uint64_t push(Span& span) {
    if (capacity_ == 0) return 0;
    span.slot = slot_;
    const std::lock_guard<std::mutex> lock(mutex_);
    span.span_id =
        (static_cast<std::uint64_t>(slot_ + 1) << 40) | ++last_seq_;
    if (spans_.size() < capacity_) {
      spans_.push_back(span);
    } else {
      spans_[head_] = span;
      head_ = (head_ + 1) % capacity_;
    }
    return span.span_id;
  }

  std::size_t capacity_;
  std::uint64_t sample_n_;
  int slot_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t head_ = 0;
  std::uint64_t last_seq_ = 0;
};

/// Per-flow span context threaded through one packet's processing chain.
/// `parent` advances as spans complete, so sequential SpanScopes chain
/// (extract -> encode -> classify -> ...) with explicit parent links.
struct SpanScratch {
  SpanRing* ring = nullptr;
  std::uint64_t flow_hash = 0;
  std::uint64_t parent = 0;
  std::uint64_t model_gen = 0;
  /// Most recently recorded span id (== parent after every SpanScope).
  std::uint64_t last_id = 0;
};

/// RAII span: records [ctor, dtor] into the scratch ring and chains the
/// scratch parent. Null scratch costs one branch and no clock read.
class SpanScope {
 public:
  SpanScope(SpanScratch* scratch, SpanKind kind)
      : scratch_(scratch), kind_(kind) {
    if (scratch_) start_ns_ = tick_now_ns();
  }
  ~SpanScope() {
    if (!scratch_) return;
    scratch_->last_id =
        scratch_->ring->record(kind_, scratch_->flow_hash, scratch_->parent,
                               start_ns_, tick_now_ns(), scratch_->model_gen);
    scratch_->parent = scratch_->last_id;
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanScratch* scratch_;
  SpanKind kind_;
  std::uint64_t start_ns_ = 0;
};

/// Appends an instant's detail as JSON members (`,"ts_us":...` and the
/// kind's detail fields); appends nothing for a stage span.
void append_instant_detail(std::string& out, const Span& span);

/// Renders spans as Chrome trace_event JSON: {"traceEvents":[...]} of "X"
/// complete events for stages and "i" instant events for the lifecycle
/// (name/cat/ph/ts[/dur]/pid/tid + args{flow, span, parent, model_gen} and
/// any instant detail), each flow preceded by one synthesized "flow" root
/// span that every parentless span attaches to. Root ids come from the
/// reserved slot-0 id range: the k-th flow in export order gets id k.
/// ts/dur are microseconds.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace vpscope::obs
