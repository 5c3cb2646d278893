// Multi-core front-end for the Fig. 4 pipeline: N worker threads, each
// owning one VideoFlowPipeline shard. The dispatch thread does only what
// routing needs: it reads the canonical FlowKey from fixed header offsets
// (net::flow_key_of), hashes it, copies the datagram into shard
// `hash % n_shards`'s byte arena and hands the shard a compact item
// (timestamp, hash, arena offset and length) through a bounded SPSC ring.
// The worker decodes from the arena and returns the bytes by publishing a
// released-byte cursor once per popped batch, so no packet buffer crosses
// threads through the heap. Because a flow always hashes to the same shard
// and each ring and arena is FIFO, per-flow packet ordering is preserved by
// construction — the property the paper's 8-core DPDK deployment (§5.1)
// relies on when it fans 20 Gbit/s across cores.
//
// Overload control (DESIGN.md §5e): when a shard's ring or arena is full
// the dispatcher applies the configured admission policy instead of
// buffering unboundedly. `Overload::Block` (default) waits for space —
// lossless, the pre-overload-layer behaviour. `Overload::Shed` waits only a
// bounded grace per packet class and then drops: handshake-bearing packets
// (SYN / TLS ClientHello record / QUIC Initial, classified at dispatch
// time by `admission_class`) get the longest grace because one lost
// handshake packet costs a classification, while a lost payload packet
// costs only a telemetry sample. Every shed is counted, so stats() always
// reconciles:
//
//   packets_total == packets_processed + packets_dropped_payload
//                  + packets_dropped_handshake + packets_stranded
//
// A per-shard watchdog (stuck_timeout_us > 0) watches for rings that stay
// full with no consumer progress — a worker wedged in a slow sink or a
// livelocked downstream — and flips the shard into telemetry-only bypass:
// the dispatcher stops waiting on it, sheds its traffic (counted), and
// keeps every other shard at full service instead of head-of-line-blocking
// the capture loop. `reactivate_recovered_shards` re-admits a bypassed
// shard once it has drained its backlog.
//
// Batched data plane (DESIGN.md §5g): the dispatcher stages up to
// `batch_size` routed packets per shard and hands them over through one
// bulk ring push (one release store per chunk instead of one per packet);
// workers drain in bulk and defer classification across the batch
// (PipelineOptions::classify_batch), resolving ready flows through the
// cross-flow SIMD forest descent. Staged packets are accounted by the
// vpscope_packets_staged gauge and reported as `stranded` by snapshot()
// until they reach a ring, so the identity above holds in every snapshot;
// control items, volume samples and drain() flush staging first, so
// per-flow ordering and flush semantics are unchanged. Admission classes
// are evaluated lazily — only when a shed/bypass decision actually needs
// one — so Block-mode dispatch does zero admission-class work (see
// admission_class_evaluations()).
//
// Session records from all shards funnel through one lock-protected sink;
// all counters live on one obs::PipelineObs registry (wait-free per-slot
// atomic cells — DESIGN.md §5f), assembled into PipelineStats on demand.
// Control operations (flush_idle / flush_all) travel in-band through the
// same rings, so they are ordered with the packets that preceded them.
//
// Threading contract: on_packet / on_volume_sample / flush_* / drain /
// stats / active_flows are dispatcher-thread-only — they either mutate
// dispatcher state or read shard flow tables that are only safe to touch
// once drain() has observed quiescence, which is only meaningful from the
// one producing thread. Debug builds (and the fault-injection build)
// enforce this with a thread-id check; see
// dispatcher_contract_violations(). snapshot() is the any-thread
// exception: it reads only registry atomics, never flow tables. The sink
// is invoked on worker threads, serialized by the internal mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "pipeline/pipeline.hpp"
#include "util/spsc_ring.hpp"

namespace vpscope::obs {
class FlightRecorder;
}

namespace vpscope::pipeline {

/// Packet classes for admission priority under overload.
enum class AdmissionClass : std::uint8_t {
  /// Connection-establishment packets the classifier needs: TCP SYN, a TLS
  /// handshake record at the start of a segment, or a QUIC long-header
  /// Initial. Shed last.
  Handshake,
  /// Everything else (ACKs, payload, short-header QUIC): telemetry-only
  /// value, shed first.
  Payload,
};

/// Admission classification. Deliberately a cheap heuristic over decoded
/// headers; the dispatcher decodes only when a shed decision needs it.
AdmissionClass admission_class(const net::DecodedPacket& decoded);

struct ShardedPipelineOptions {
  /// Worker count; 1 degenerates to a single-threaded pipeline behind a
  /// queue. 0 is invalid.
  int n_shards = 1;
  /// Per-shard ring capacity (rounded up to a power of two). Bounded by
  /// design: a slow shard exerts backpressure on the dispatcher instead of
  /// buffering unboundedly. It also sizes the shard's datagram arena: 2 KiB
  /// per ring slot (one Ethernet-MTU datagram, so the ring, not the arena,
  /// fills first on traffic without jumbo frames), never less than two
  /// maximal datagrams (so an empty arena takes any datagram wherever its
  /// write cursor stands), rounded up to a power of two. While the worker
  /// keeps up the dispatcher cycles through the arena's first 256 KiB, so
  /// resident memory follows the backlog, not this bound (DESIGN.md §5b).
  std::size_t queue_capacity = 4096;

  /// Batched data plane (DESIGN.md §5g): packets staged per shard before a
  /// bulk ring handover, items drained per worker bulk pop, and (unless
  /// flow_table.classify_batch overrides it) flows staged per deferred
  /// cross-flow classification. 1 restores the item-at-a-time data plane;
  /// 0 is treated as 1.
  std::size_t batch_size = 32;

  /// Per-shard flow-table bound. `flow_table.max_flows` is the TOTAL
  /// budget across the pipeline; each shard gets ceil(max_flows/n_shards).
  PipelineOptions flow_table = {};

  enum class Overload : std::uint8_t {
    Block,  // lossless backpressure: wait for ring space indefinitely
    Shed,   // bounded wait per admission class, then drop (counted)
  };
  Overload overload = Overload::Block;
  /// Shed-mode grace: how long the dispatcher waits for ring space before
  /// dropping, per admission class. Payload defaults to shedding
  /// immediately; handshakes ride out a short stall.
  std::uint64_t payload_grace_us = 0;
  std::uint64_t handshake_grace_us = 2000;

  /// Stuck-shard watchdog: if a full ring shows no consumer progress for
  /// this long, the shard is bypassed. 0 disables the watchdog (a stuck
  /// shard then blocks the dispatcher forever, even under Shed — grace
  /// timers keep expiring but the flood keeps arriving).
  std::uint64_t stuck_timeout_us = 0;

  /// Observability (DESIGN.md §5f): stage profiling and flow tracing for
  /// the shared registry all shards write to. Metrics themselves are
  /// always on — they ARE the pipeline's accounting.
  obs::ObsConfig obs = {};

  /// Model lifecycle (DESIGN.md §5j): when set, shard i attaches as reader
  /// slot i — workers adopt newly published generations at batch boundaries
  /// and while parked, and the dispatcher drives canary judgement through
  /// an amortized lifecycle poll. Must outlive the pipeline and be
  /// constructed with >= n_shards reader slots. The constructor `bank`
  /// argument is ignored once a shard adopts its first generation.
  ModelLifecycle* lifecycle = nullptr;

  /// Per-shard concept-drift monitoring: each shard gets a private
  /// DriftMonitor with this config, fed from its own worker thread with no
  /// synchronization. Read the merged view through drift_status /
  /// any_drifting / refresh_drift_gauges (dispatcher-thread-only).
  std::optional<DriftConfig> drift;
};

class ShardedPipeline {
 public:
  /// The bank must outlive the pipeline and is shared read-only by all
  /// shards (ClassifierBank::classify is const and thread-safe).
  ShardedPipeline(const ClassifierBank* bank,
                  ShardedPipelineOptions options = {});
  ~ShardedPipeline();

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Installs the session sink; called from worker threads but never
  /// concurrently (internally serialized). Set before the first packet.
  void set_sink(std::function<void(telemetry::SessionRecord)> sink);

  /// Multi-writer alternative to set_sink: one sink per shard, invoked on
  /// that shard's worker thread with NO cross-shard serialization — the
  /// mutex funnel is bypassed entirely. Pair with
  /// telemetry::ShardedSessionStore::sink(i), whose writers stage records
  /// into private segments and take the store lock only per sealed
  /// segment. `sinks.size()` must equal shard_count(). Set before the
  /// first packet; replaces any set_sink().
  void set_shard_sinks(
      std::vector<std::function<void(telemetry::SessionRecord)>> sinks);

  /// Called on the dispatcher thread when the watchdog flips a shard into
  /// bypass. Set before the first packet.
  void set_stuck_callback(std::function<void(int shard)> callback);

  /// Attaches the crash flight recorder (DESIGN.md §5k): a watchdog trip
  /// records a `stranded` instant and dumps a whole-process postmortem
  /// ("watchdog_stuck_shard") before the stuck callback runs, and a
  /// lifecycle canary rollback observed by the dispatcher's amortized poll
  /// dumps "canary_rollback". The recorder must outlive the pipeline. Set
  /// before the first packet.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Marks the moment the capture front-end picked up the NEXT packet fed
  /// to on_packet: the gap to dispatch becomes the packet's Capture span.
  /// No-op (one branch) when span tracing is off. Dispatcher-thread-only.
  void mark_capture_start();

  /// Enables the vpscope_obs_export hook: the registry is rendered and
  /// atomically rewritten to `options.path` roughly every
  /// `options.interval_us` (checked every few hundred packets on the
  /// dispatcher thread) and once more on flush_all().
  void set_exporter(obs::ExportOptions options);

  /// Routes one captured packet and copies it into its shard's arena,
  /// applying the configured admission policy when the target ring or
  /// arena is full. The packet is not retained: the caller keeps (and
  /// frees) its buffer on its own thread.
  void on_packet(const net::Packet& packet);

  /// Routes a decimated volume sample to the owning shard (payload-class
  /// admission under Shed).
  void on_volume_sample(const net::FlowKey& key, std::uint64_t ts_us,
                        std::uint64_t bytes_down, std::uint64_t bytes_up);

  /// Broadcasts an idle-flush to every live shard and waits for completion.
  void flush_idle(std::uint64_t now_us, std::uint64_t idle_timeout_us);

  /// Broadcasts a full flush to every live shard and waits for completion.
  void flush_all();

  /// Waits until every item enqueued to a live shard has been processed.
  /// Bypassed shards are not waited on (their backlog is `stranded`).
  void drain();

  /// Drains, then snapshots. With no shard bypassed this equals the stats
  /// a single-threaded VideoFlowPipeline would report for the same
  /// admitted packet sequence; a bypassed shard's backlog shows up as
  /// `packets_stranded`. Dispatcher-thread-only (the drain).
  PipelineStats stats();

  /// Lock-free stats assembly straight from the registry — callable from
  /// ANY thread, any time, without draining (the fix for the PR-4
  /// stats() dispatcher-only restriction). Because every counter is a
  /// wait-free atomic cell, the identity
  ///   packets_total == packets_processed + packets_dropped_payload
  ///                  + packets_dropped_handshake + packets_stranded
  /// holds in every snapshot taken between dispatcher packet calls
  /// (in-flight backlog of live shards is reported as stranded until the
  /// workers catch up).
  PipelineStats snapshot() const;

  /// Drains, then sums live flow-table sizes across non-stuck shards.
  /// Dispatcher-thread-only.
  std::size_t active_flows();

  /// Re-admits bypassed shards whose workers have caught up (processed ==
  /// enqueued); returns how many recovered. Dispatcher-thread-only.
  int reactivate_recovered_shards();

  /// Shards currently in telemetry-only bypass.
  int bypassed_shards() const;

  /// Arena bytes of shard `shard` not yet released by its worker: staged
  /// and in-flight datagrams plus wrap padding. 0 once the shard is
  /// quiescent with nothing staged. Dispatcher-thread-only.
  std::uint64_t arena_bytes_in_use(int shard) const;

  /// How many times the dispatcher evaluated admission_class(). Lazy by
  /// design: zero under Block mode with no bypassed shard — the class only
  /// matters when a shed/bypass decision is actually being made.
  /// Dispatcher-thread-only (like the dispatch path that increments it).
  std::uint64_t admission_class_evaluations() const {
    return admission_class_evals_;
  }

  /// Calls observed on a thread other than the pinned dispatcher thread.
  /// Always 0 in release builds (the check compiles out); in debug builds a
  /// violation also trips an assert.
  std::uint64_t dispatcher_contract_violations() const {
    return obs_->dispatcher_contract_violations.total();
  }

  /// The shared metrics bundle (registry, stage profiler, span rings).
  obs::PipelineObs& observability() { return *obs_; }
  const obs::PipelineObs& observability() const { return *obs_; }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  std::size_t shard_of(const net::FlowKey& key) const;

  /// Merged drift status of one scenario across every shard's monitor —
  /// exactly what a single monitor fed all shards' traffic would report
  /// (DriftMonitor::merge over the per-shard raw accumulators). Drains
  /// first, so worker-side monitor state is visible (happens-before via the
  /// processed counter). Dispatcher-thread-only. Zero Status when drift
  /// monitoring is not configured.
  DriftMonitor::Status drift_status(fingerprint::Provider provider,
                                    fingerprint::Transport transport);

  /// True when any scenario's merged status is drifting. Drains;
  /// dispatcher-thread-only.
  bool any_drifting();

  /// Writes the merged per-scenario drift gauges (vpscope_drift_flagged,
  /// reject/confidence deltas) at the dispatcher slot. Merged-only by
  /// design: per-shard gauge writes would sum wrongly at exposition.
  /// Drains; dispatcher-thread-only.
  void refresh_drift_gauges();

 private:
  /// Ring item: 48 bytes of plain data. Packet bytes never ride the ring —
  /// they sit in the shard arena at [offset, offset + len).
  struct Item {
    enum class Kind : std::uint8_t {
      Packet,
      Volume,
      FlushIdle,
      FlushAll,
      Stop,
    };
    Kind kind = Kind::Packet;
    /// Packet: datagram length. Volume: sizeof(VolumeSample).
    std::uint32_t len = 0;
    /// Packet: capture timestamp. FlushIdle: now_us.
    std::uint64_t ts_us = 0;
    union {
      /// Packet/Volume: arena cursor of the bytes.
      std::uint64_t offset = 0;
      /// FlushIdle: flows idle longer than this are flushed.
      std::uint64_t idle_timeout_us;
    };
    /// Packet: FlowKeyHash of the routed key.
    std::uint64_t hash = 0;
    // Packet, span-sampled flows only: the Dispatch span id the worker's
    // Queue span parents onto, and the handover time that starts it. 0 =
    // unsampled (workers skip all span work on one branch).
    std::uint64_t span_parent = 0;
    std::uint64_t enqueue_ns = 0;
  };
  static_assert(sizeof(Item) == 48);

  /// Arena payload of a Kind::Volume item.
  struct VolumeSample {
    net::FlowKey key;
    std::uint64_t ts_us = 0, bytes_down = 0, bytes_up = 0;
  };

  struct Shard {
    Shard(const ClassifierBank* bank, std::size_t queue_capacity,
          PipelineOptions flow_table);
    SpscRing<Item> queue;
    VideoFlowPipeline pipe;
    /// FIFO byte arena: the dispatcher writes datagrams at monotonic
    /// cursors (each one contiguous, skipping to the start when the tail is
    /// too short), the worker reads them and publishes `arena_released`.
    std::unique_ptr<std::uint8_t[]> arena;
    std::uint64_t arena_mask = 0;
    std::thread worker;
    int index = 0;
    /// Worker-thread-owned drift monitor (ShardedPipelineOptions::drift);
    /// the dispatcher reads it only behind drain().
    std::unique_ptr<DriftMonitor> drift;

    // ---- dispatcher-written ----
    alignas(64) std::atomic<std::uint64_t> enqueued{0};  // all item kinds
    // Packet-item identity counters (enqueued/completed per packet) live on
    // the registry: obs packets_enqueued / packets_completed at this
    // shard's slot.
    std::atomic<bool> bypassed{false};
    std::uint64_t watchdog_last_processed = 0;
    std::uint64_t watchdog_stall_started_us = 0;  // 0 = not currently stalled
    /// Next free arena cursor, and the end of the last item handed to the
    /// ring: reservations past `arena_committed` belong to staged items and
    /// are rolled back when those are shed.
    std::uint64_t arena_head = 0;
    std::uint64_t arena_committed = 0;
    /// Dispatcher's cached copy of arena_released.
    std::uint64_t arena_released_seen = 0;
    /// Routed packets awaiting the next bulk handover (DESIGN.md §5g);
    /// every staged packet is counted in the packets_staged gauge.
    std::vector<Item> staged;

    // ---- worker-written, one cache line each ----
    alignas(64) std::atomic<std::uint64_t> processed{0};  // all item kinds
    /// Arena bytes below this cursor are free again (published per batch).
    alignas(64) std::atomic<std::uint64_t> arena_released{0};
  };

  /// Result of a bounded-wait admission attempt.
  enum class Admission : std::uint8_t { Enqueued, Shed, Bypassed };

  /// `control` items (flushes) never shed: they wait for ring space with
  /// only the watchdog as an escape hatch.
  Admission enqueue(Shard& shard, Item&& item, bool control);
  /// Claims `len` contiguous arena bytes (non-blocking); false when full.
  /// Restarts at the arena start once the cursor is past the soft extent
  /// and the worker has released every handed-over item.
  bool try_reserve(Shard& shard, std::size_t len, std::uint64_t* offset);
  /// Claims arena bytes under the admission policy: flushes the shard's
  /// staging first so the worker can free space, then waits like a full
  /// ring (Block: watchdog escape only; Shed: the class grace of
  /// `datagram`, evaluated lazily — an empty view is Payload).
  Admission reserve(Shard& shard, std::size_t len, ByteView datagram,
                    std::uint64_t* offset);
  std::uint8_t* arena_at(const Shard& shard, std::uint64_t offset) const {
    return shard.arena.get() + (offset & shard.arena_mask);
  }
  /// Hands `shard`'s staging batch to its ring: bulk pushes while there is
  /// room, then the per-item bounded-wait admission policy (grace / shed /
  /// watchdog) for whatever is left. Empties `shard.staged` and rolls the
  /// arena back past any trailing shed reservations.
  void flush_shard(Shard& shard);
  /// Flushes every shard's staging (control broadcast / drain / teardown).
  void flush_staged();
  /// Drops one routed packet: lazy admission class (decoding `datagram`),
  /// drop counter, and a shed instant when the flow is traced.
  void shed(ByteView datagram, std::uint64_t ts_us, std::uint64_t hash);
  void shed_staged(const Shard& shard, const Item& item) {
    shed({arena_at(shard, item.offset), item.len}, item.ts_us, item.hash);
  }
  /// Counted admission_class() of a datagram; Payload when it does not
  /// decode (or is empty).
  AdmissionClass eval_admission_class(ByteView datagram);
  std::uint64_t grace_us(AdmissionClass cls) const {
    return cls == AdmissionClass::Handshake ? options_.handshake_grace_us
                                            : options_.payload_grace_us;
  }
  /// Flushes all staging, then hands `control` to every live shard.
  void broadcast(const Item& control);
  void worker_loop(Shard& shard);
  /// Watchdog bookkeeping while the dispatcher waits on `shard`; returns
  /// true when the shard was just declared stuck and flipped to bypass.
  bool watchdog_check(Shard& shard);
  /// Stranded/Recovered instant for `shard` in the dispatcher's span ring.
  void record_shard_instant(obs::SpanKind kind, int shard,
                            std::uint64_t now_us);
  void count_drop(AdmissionClass cls);
  bool quiescent(const Shard& shard) const;
  void check_dispatcher_thread();
  /// Amortized exporter tick + lifecycle poll, once per dispatcher packet.
  void after_packet() {
    maybe_export();
    maybe_poll_lifecycle();
  }
  /// Amortized exporter tick from the dispatcher packet path.
  void maybe_export();
  /// Amortized lifecycle poll (canary judgement + generation reclamation)
  /// from the dispatcher packet path.
  void maybe_poll_lifecycle();
  /// Union of scenario keys over all shard drift monitors, merged status
  /// per key. Requires a prior drain().
  std::vector<std::pair<std::pair<fingerprint::Provider, fingerprint::Transport>,
                        DriftMonitor::Status>>
  merged_drift_statuses() const;

  ShardedPipelineOptions options_;
  /// Shared registry bundle; slots [0, n_shards) are the workers, slot
  /// n_shards the dispatcher. Constructed before shards_ so shard
  /// pipelines can bind to it.
  std::shared_ptr<obs::PipelineObs> obs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::function<void(int)> stuck_callback_;
  obs::FlightRecorder* flight_recorder_ = nullptr;
  /// tick_now_ns() of the last mark_capture_start(); 0 = none pending.
  /// Dispatcher-thread-only.
  std::uint64_t capture_mark_ns_ = 0;
  std::unique_ptr<obs::PeriodicExporter> exporter_;
  std::uint64_t packets_since_export_check_ = 0;
  std::uint64_t packets_since_lifecycle_poll_ = 0;
  /// Dispatcher-thread-only; see admission_class_evaluations().
  std::uint64_t admission_class_evals_ = 0;
  std::mutex sink_mutex_;
  std::function<void(telemetry::SessionRecord)> sink_;
  // Dispatcher-thread pin for the debug contract check.
  std::atomic<std::size_t> dispatcher_thread_hash_{0};
  std::atomic<bool> dispatcher_thread_pinned_{false};
};

}  // namespace vpscope::pipeline
