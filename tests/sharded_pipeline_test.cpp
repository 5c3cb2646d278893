// ShardedPipeline correctness: for any shard count, the sharded front-end
// must produce exactly the stats and session-record multiset of the
// single-threaded VideoFlowPipeline on the same packet sequence — sharding
// is a pure performance transform, never a semantic one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/handshake.hpp"
#include "obs/export.hpp"
#include "obs/http_server.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"
#include "telemetry/telemetry.hpp"

// ---- counting allocator ----
// Global operator new/delete for this binary: counts heap allocations on
// every thread while `g_count_allocs` is set, so a test can assert that a
// packet's whole trip (dispatcher routing + arena copy, ring handover,
// worker decode + flow update) allocates nothing.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};
}  // namespace

// GCC flags free() inside a replaced operator delete as mismatched; the
// malloc/free pairing across replaced new/delete is the standard idiom.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace vpscope::pipeline {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;

class ShardedPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 0.35));
    bank_ = new ClassifierBank();
    bank_->train(*lab_);
  }
  static void TearDownTestSuite() {
    delete lab_;
    delete bank_;
    lab_ = nullptr;
    bank_ = nullptr;
  }

  static synth::Dataset* lab_;
  static ClassifierBank* bank_;
};

synth::Dataset* ShardedPipelineTest::lab_ = nullptr;
ClassifierBank* ShardedPipelineTest::bank_ = nullptr;

/// `flows` synthesized video flows across all five scenarios, with start
/// times compressed so packets of many flows interleave heavily, then
/// globally time-ordered — the shape of a real capture feed.
std::vector<net::Packet> interleaved_mix(int flows) {
  struct Case {
    Provider provider;
    Transport transport;
  };
  static const std::vector<Case> cases = {
      {Provider::YouTube, Transport::Tcp},
      {Provider::YouTube, Transport::Quic},
      {Provider::Netflix, Transport::Tcp},
      {Provider::Disney, Transport::Tcp},
      {Provider::Amazon, Transport::Tcp},
  };
  Rng rng(4242);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c = cases[static_cast<std::size_t>(i) % cases.size()];
    const auto platforms =
        fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()],
        c.provider, c.transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i % 40) * 1500;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return packets;
}

/// Canonical text form of a record, so multisets compare as sorted vectors.
std::string record_fingerprint(const telemetry::SessionRecord& r) {
  std::ostringstream os;
  os.precision(17);
  os << static_cast<int>(r.provider) << '|' << static_cast<int>(r.transport)
     << '|' << static_cast<int>(r.outcome) << '|';
  if (r.platform)
    os << static_cast<int>(r.platform->os) << ','
       << static_cast<int>(r.platform->agent);
  os << '|';
  if (r.device) os << static_cast<int>(*r.device);
  os << '|';
  if (r.agent) os << static_cast<int>(*r.agent);
  os << '|' << r.confidence << '|' << r.sni << '|' << r.counters.first_us
     << '|' << r.counters.last_us << '|' << r.counters.bytes_down << '|'
     << r.counters.bytes_up << '|' << r.counters.packets_down << '|'
     << r.counters.packets_up;
  return os.str();
}

TEST_F(ShardedPipelineTest, MatchesSingleThreadedFor1And2And8Shards) {
  const auto packets = interleaved_mix(400);

  VideoFlowPipeline reference(bank_);
  std::vector<std::string> expected_records;
  reference.set_sink([&](telemetry::SessionRecord r) {
    expected_records.push_back(record_fingerprint(r));
  });
  for (const auto& packet : packets) reference.on_packet(packet);
  reference.flush_all();
  std::sort(expected_records.begin(), expected_records.end());
  ASSERT_EQ(reference.stats().video_flows, 400u);

  for (const int shards : {1, 2, 8}) {
    ShardedPipeline sharded(
        bank_, {.n_shards = shards, .queue_capacity = 256});
    // The internal sink mutex serializes worker calls, so a plain vector
    // is safe here.
    std::vector<std::string> records;
    sharded.set_sink([&](telemetry::SessionRecord r) {
      records.push_back(record_fingerprint(r));
    });
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();

    EXPECT_EQ(sharded.stats(), reference.stats()) << "shards=" << shards;
    EXPECT_EQ(sharded.active_flows(), 0u) << "shards=" << shards;
    std::sort(records.begin(), records.end());
    EXPECT_EQ(records, expected_records) << "shards=" << shards;
  }
}

TEST_F(ShardedPipelineTest, BackpressureOnTinyQueuesLosesNothing) {
  // Ring capacity far below the packet count forces the spin-then-yield
  // producer path; every packet must still be processed exactly once.
  const auto packets = interleaved_mix(60);
  ShardedPipeline sharded(bank_, {.n_shards = 2, .queue_capacity = 4});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());
  for (const auto& packet : packets) sharded.on_packet(packet);
  sharded.flush_all();
  EXPECT_EQ(store.size(), 60u);
  EXPECT_EQ(sharded.stats().packets_total, packets.size());
}

TEST_F(ShardedPipelineTest, FlushIdleEvictsAcrossShards) {
  Rng rng(77);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {fingerprint::Os::Windows, fingerprint::Agent::Chrome},
      Provider::Netflix, Transport::Tcp);

  ShardedPipeline sharded(bank_, {.n_shards = 4, .queue_capacity = 64});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());

  synth::FlowOptions old_opt;
  old_opt.start_time_us = 0;
  const auto old_flow = synth.synthesize(profile, old_opt);
  synth::FlowOptions new_opt;
  new_opt.start_time_us = 100'000'000;
  const auto new_flow = synth.synthesize(profile, new_opt);

  for (const auto& p : old_flow.packets) sharded.on_packet(p);
  for (const auto& p : new_flow.packets) sharded.on_packet(p);
  EXPECT_EQ(sharded.active_flows(), 2u);

  sharded.flush_idle(/*now=*/130'000'000, /*idle=*/60'000'000);
  EXPECT_EQ(sharded.active_flows(), 1u);
  EXPECT_EQ(store.size(), 1u);
  sharded.flush_all();
  EXPECT_EQ(store.size(), 2u);
}

TEST_F(ShardedPipelineTest, VolumeSamplesRouteToOwningShard) {
  Rng rng(78);
  synth::FlowSynthesizer synth(rng);
  const auto profile = fingerprint::make_profile(
      {fingerprint::Os::Windows, fingerprint::Agent::Chrome},
      Provider::Disney, Transport::Tcp);
  const auto flow = synth.synthesize(profile);

  ShardedPipeline sharded(bank_, {.n_shards = 8, .queue_capacity = 64});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());
  for (const auto& packet : flow.packets) sharded.on_packet(packet);
  const auto key = net::FlowKey::canonical(flow.client_ip, flow.client_port,
                                           flow.server_ip, flow.server_port,
                                           net::kProtoTcp);
  for (int i = 1; i <= 10; ++i)
    sharded.on_volume_sample(key, static_cast<std::uint64_t>(i) * 1'000'000,
                             500'000, 10'000);
  sharded.flush_all();

  const auto snapshot = store.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_GE(snapshot.records().front().counters.bytes_down, 5'000'000u);
  EXPECT_GE(snapshot.records().front().counters.bytes_up, 100'000u);
}

TEST_F(ShardedPipelineTest, RejectsZeroShards) {
  EXPECT_THROW(ShardedPipeline(bank_, {.n_shards = 0, .queue_capacity = 8}),
               std::invalid_argument);
}

// Regression for the PR-4 restriction that made ALL stats reads
// dispatcher-thread-only: snapshot() must be callable from any thread,
// concurrently with dispatch, without draining, without tripping the
// dispatcher contract, and with the drop-accounting identity intact in
// every observation (in-flight backlog reads as stranded).
TEST_F(ShardedPipelineTest, SnapshotIsSafeFromAnyThreadWhileDispatching) {
  const auto packets = interleaved_mix(200);

  ShardedPipeline sharded(bank_, {.n_shards = 4, .queue_capacity = 64});
  telemetry::SynchronizedSessionStore store;
  sharded.set_sink(store.sink());

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> snapshots_taken{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t)
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const PipelineStats s = sharded.snapshot();
        // Mid-dispatch a snapshot may under-account in-flight packets
        // (snapshot() reads packets_total last, so it never OVER-accounts);
        // exact equality is guaranteed only between dispatcher calls
        // (asserted below, quiescent).
        const std::uint64_t accounted =
            s.packets_processed + s.packets_dropped_payload +
            s.packets_dropped_handshake + s.packets_stranded;
        EXPECT_LE(accounted, s.packets_total);
        snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (const auto& packet : packets) sharded.on_packet(packet);
  sharded.flush_all();
  done.store(true, std::memory_order_relaxed);
  for (auto& reader : readers) reader.join();

  EXPECT_GT(snapshots_taken.load(), 0u);
  EXPECT_EQ(sharded.dispatcher_contract_violations(), 0u)
      << "snapshot() must not count as a dispatcher-thread-only call";

  // Quiescent now: snapshot() from this thread equals the drained stats().
  const PipelineStats quiescent = sharded.snapshot();
  EXPECT_EQ(quiescent, sharded.stats());
  EXPECT_EQ(quiescent.packets_total, packets.size());
  EXPECT_EQ(quiescent.packets_stranded, 0u);
}

// A datagram can route (flow_key_of reads fixed offsets) yet fail decode on
// the worker: a bad TCP data offset, a malformed TCP option, a UDP length
// past the datagram. Such packets are counted non-IP by the worker, and the
// sharded stats — packets_non_ip and the packet identity included — equal
// the single-threaded pipeline's.
TEST_F(ShardedPipelineTest, RoutedButUndecodableDatagramsMatchSingleThreaded) {
  const auto mix = interleaved_mix(60);
  std::vector<net::Packet> packets;
  std::size_t broken = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    packets.push_back(mix[i]);
    if (i % 7 != 0) continue;
    // A mangled copy of a live flow's packet: same 5-tuple, same shard.
    net::Packet m = mix[i];
    const auto decoded = net::decode(m);
    ASSERT_TRUE(decoded.has_value());
    const std::size_t ihl =
        decoded->is_v6 ? net::Ipv6Header::kSize : (m.data[0] & 0x0f) * 4u;
    if (decoded->udp) {
      const std::size_t past = m.data.size() - ihl + 1;
      m.data[ihl + 4] = static_cast<std::uint8_t>(past >> 8);
      m.data[ihl + 5] = static_cast<std::uint8_t>(past);
    } else if (i % 14 == 0) {
      m.data[ihl + 12] = static_cast<std::uint8_t>(3 << 4);  // offset < 5
    } else {
      m.data[ihl + 12] = static_cast<std::uint8_t>(6 << 4);
      const Bytes option = {2, 0, 0, 0};  // MSS with length 0
      m.data.insert(m.data.begin() + static_cast<std::ptrdiff_t>(ihl + 20),
                    option.begin(), option.end());
    }
    ASSERT_FALSE(net::decode(m).has_value()) << i;
    ASSERT_TRUE(net::flow_key_of(m.data).has_value()) << i;
    packets.push_back(std::move(m));
    ++broken;
  }
  // Plus datagrams routing itself refuses.
  packets.push_back({mix.back().timestamp_us, from_hex("ffffffff")});
  packets.push_back({mix.back().timestamp_us, Bytes(30, 0x45)});

  VideoFlowPipeline reference(bank_);
  std::vector<std::string> expected_records;
  reference.set_sink([&](telemetry::SessionRecord r) {
    expected_records.push_back(record_fingerprint(r));
  });
  for (const auto& packet : packets) reference.on_packet(packet);
  reference.flush_all();
  std::sort(expected_records.begin(), expected_records.end());
  ASSERT_EQ(reference.stats().packets_non_ip, broken + 2);

  for (const int shards : {1, 2, 4}) {
    ShardedPipeline sharded(bank_, {.n_shards = shards, .queue_capacity = 64});
    std::vector<std::string> records;
    sharded.set_sink([&](telemetry::SessionRecord r) {
      records.push_back(record_fingerprint(r));
    });
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();

    const PipelineStats stats = sharded.stats();
    EXPECT_EQ(stats, reference.stats()) << "shards=" << shards;
    EXPECT_EQ(sharded.snapshot(), stats) << "shards=" << shards;
    std::sort(records.begin(), records.end());
    EXPECT_EQ(records, expected_records) << "shards=" << shards;
    // The registry-side identity agrees: /healthz balances, and the
    // stranded gauge does not mistake worker-side rejects for backlog.
    const auto& obs = sharded.observability();
    EXPECT_NE(obs::healthz_json(obs, "").find("\"balanced\":true"),
              std::string::npos)
        << "shards=" << shards;
    const std::string scrape = "\n" + obs::prometheus_text(obs.registry());
    EXPECT_NE(scrape.find("\nvpscope_packets_stranded 0\n"),
              std::string::npos)
        << "shards=" << shards;
  }
}

/// `flows` video flows carrying `payload_bytes` of downstream payload each,
/// start times staggered so their packets interleave; `payload` receives
/// every flow's post-handshake data packets (header-only, snap-truncated).
std::vector<net::Packet> payload_mix(int flows, std::uint64_t payload_bytes,
                                     std::vector<net::Packet>* payload) {
  Rng rng(9191);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto transport = i % 4 == 1 ? Transport::Quic : Transport::Tcp;
    const auto platforms =
        fingerprint::platforms_for(Provider::YouTube, transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()],
        Provider::YouTube, transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i) * 1000;
    opt.payload_bytes = payload_bytes;
    opt.payload_duration_us = 10'000'000;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
    if (payload) {
      // The synthesizer appends the payload packets after the handshake.
      const std::size_t n = std::min<std::size_t>(32, flow.packets.size() / 2);
      payload->insert(payload->end(), flow.packets.end() - static_cast<std::ptrdiff_t>(n),
                      flow.packets.end());
    }
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return packets;
}

// The payload fast path allocates nothing: from on_packet (routing, arena
// copy, staging) through the ring to the worker's decode and flow-table
// update, a steady-state payload packet of a classified flow costs zero
// heap allocations on any thread.
TEST_F(ShardedPipelineTest, SteadyStatePayloadPacketsAllocateNothing) {
  std::vector<net::Packet> payload;
  const auto packets = payload_mix(16, 2'000'000, &payload);
  for (const auto& p : payload) {
    const auto decoded = net::decode(p);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_TRUE(decoded->payload.empty()) << "header-only data packets";
    ASSERT_FALSE(decoded->tcp && decoded->tcp->flags.syn);
  }

  ShardedPipeline sharded(bank_, {.n_shards = 2, .queue_capacity = 256});
  std::atomic<int> records{0};
  sharded.set_sink([&](telemetry::SessionRecord) { records.fetch_add(1); });
  for (const auto& p : packets) sharded.on_packet(p);
  // An idle flush that evicts nothing resolves deferred classifications.
  sharded.flush_idle(0, ~std::uint64_t{0});
  const PipelineStats setup = sharded.stats();
  ASSERT_EQ(setup.video_flows, 16u);
  ASSERT_EQ(setup.classified_composite + setup.classified_partial +
                setup.classified_unknown,
            16u);
  for (const auto& p : payload) sharded.on_packet(p);  // warm-up round
  sharded.drain();

  constexpr int kRounds = 4;
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int round = 0; round < kRounds; ++round)
    for (const auto& p : payload) sharded.on_packet(p);
  sharded.drain();
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "heap allocations over " << kRounds * payload.size()
      << " payload packets";

  const PipelineStats s = sharded.stats();
  EXPECT_EQ(s.packets_total, packets.size() + (kRounds + 1) * payload.size());
  EXPECT_EQ(s.packets_processed, s.packets_total);
  sharded.flush_all();
  EXPECT_EQ(records.load(), 16);
}

}  // namespace
}  // namespace vpscope::pipeline
