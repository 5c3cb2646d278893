// Batched data plane equivalence (ctest -L batch; DESIGN.md §5g).
//
// Batching is a pure performance transform, so every test here is an
// equality, not a tolerance: the compiled forest's batch scoring must be
// bit-identical to RandomForest (the reference) at every row count and SIMD
// level, on the bitmask scorer and on the deep-tree scalar fallback alike;
// and the batched sharded pipeline must reproduce the single-threaded
// pipeline's records and stats exactly, including partial batches at flush
// and the drop-accounting identity mid-flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "core/handshake.hpp"
#include "pipeline/sharded_pipeline.hpp"
#include "synth/dataset.hpp"
#include "util/spsc_ring.hpp"

namespace vpscope {
namespace {

using fingerprint::Provider;
using fingerprint::Transport;
using ml::CompiledForest;

/// Lab dataset + trained bank shared by the whole lane (training is the
/// expensive part; the tests are pure CPU over the artifacts). Small forests
/// keep the lane fast without weakening any identity — every equality below
/// holds for any forest by construction.
class BatchEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lab_ = new synth::Dataset(synth::generate_lab_dataset(42, 0.25));
    bank_ = new pipeline::ClassifierBank();
    pipeline::BankParams params;
    params.forest = {.n_trees = 12, .max_depth = 12, .min_samples_split = 4,
                     .max_features = 20, .bootstrap = true, .seed = 1};
    bank_->train(*lab_, params);
  }
  static void TearDownTestSuite() {
    delete lab_;
    delete bank_;
    lab_ = nullptr;
    bank_ = nullptr;
  }

  /// Row-major feature matrix of every lab flow that lands in `scenario`
  /// (encoded through the scenario's own fitted encoder).
  static std::vector<double> encoded_rows(
      const pipeline::ClassifierBank::Scenario& scenario, Provider provider,
      Transport transport) {
    std::vector<double> matrix;
    core::RawAttrs raw;
    const std::size_t dim = scenario.encoder.dimension();
    for (const auto& flow : lab_->flows) {
      if (flow.provider != provider || flow.transport != transport) continue;
      const auto handshake = core::extract_handshake(flow.packets);
      if (!handshake) continue;
      const std::size_t at = matrix.size();
      matrix.resize(at + dim);
      scenario.encoder.transform_into(
          *handshake, raw, std::span<double>(matrix).subspan(at, dim));
    }
    return matrix;
  }

  static synth::Dataset* lab_;
  static pipeline::ClassifierBank* bank_;
};

synth::Dataset* BatchEquivalenceTest::lab_ = nullptr;
pipeline::ClassifierBank* BatchEquivalenceTest::bank_ = nullptr;

/// Every SIMD level the host can actually run (Scalar always; Sse2/Avx2
/// where supported). Auto is included to pin the dispatcher itself.
std::vector<CompiledForest::Simd> supported_levels() {
  std::vector<CompiledForest::Simd> levels = {CompiledForest::Simd::Auto,
                                              CompiledForest::Simd::Scalar};
  if (CompiledForest::simd_supported(CompiledForest::Simd::Sse2))
    levels.push_back(CompiledForest::Simd::Sse2);
  if (CompiledForest::simd_supported(CompiledForest::Simd::Avx2))
    levels.push_back(CompiledForest::Simd::Avx2);
  return levels;
}

/// RandomForest::predict_proba (the reference) for every row of a
/// row-major matrix, concatenated.
std::vector<double> reference_proba(const ml::RandomForest& forest,
                                    const std::vector<double>& matrix,
                                    std::size_t dim) {
  std::vector<double> out;
  for (std::size_t at = 0; at < matrix.size(); at += dim) {
    const std::vector<double> row(matrix.begin() + static_cast<long>(at),
                                  matrix.begin() + static_cast<long>(at + dim));
    const auto proba = forest.predict_proba(row);
    out.insert(out.end(), proba.begin(), proba.end());
  }
  return out;
}

TEST_F(BatchEquivalenceTest, PredictProbaBatchBitIdenticalForSizes1To257) {
  const auto* s = bank_->scenario(Provider::YouTube, Transport::Tcp);
  ASSERT_NE(s, nullptr);
  const std::size_t dim = s->encoder.dimension();
  const std::vector<double> pool =
      encoded_rows(*s, Provider::YouTube, Transport::Tcp);
  const std::size_t pool_rows = pool.size() / dim;
  ASSERT_GT(pool_rows, 8u);
  const auto n_classes = static_cast<std::size_t>(
      s->platform_compiled.num_classes());

  // Vector-width remainders (the SIMD kernels score 2 or 4 rows at a time)
  // and powers of two, plus the extremes 1 and 257.
  const std::size_t sizes[] = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32,
                               33, 63, 64, 65, 127, 128, 129, 255, 256, 257};
  for (const std::size_t rows : sizes) {
    // Cycle the pool to reach `rows` rows, so every size is exercised even
    // though the lab corpus is finite.
    std::vector<double> matrix(rows * dim);
    for (std::size_t r = 0; r < rows; ++r)
      std::memcpy(&matrix[r * dim], &pool[(r % pool_rows) * dim],
                  dim * sizeof(double));

    const std::vector<double> expected =
        reference_proba(s->platform_model, matrix, dim);

    for (const auto level : supported_levels()) {
      std::vector<double> got(rows * n_classes, -1.0);
      s->platform_compiled.predict_proba_batch(matrix, dim, got, level);
      // Bit identity, not closeness: memcmp over the raw doubles.
      EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                            got.size() * sizeof(double)),
                0)
          << "rows=" << rows << " level=" << static_cast<int>(level);
    }
  }
  // The bank's forests must take the bitmask-scorer path (trees <= 64
  // leaves) — if this ever flips, this test covers only the scalar
  // fallback.
  EXPECT_TRUE(s->platform_compiled.uses_bitmask_scorer());
}

// A forest trained on random labels grows inseparable, deep trees (far more
// than 64 leaves each), which the bitmask scorer cannot represent — scoring
// must fall back to the scalar traversal and stay bit-identical to
// RandomForest per flow and in batches, at every SIMD level.
TEST_F(BatchEquivalenceTest, DeepForestFallbackBitIdenticalAcrossLevels) {
  constexpr std::size_t kSamples = 600;
  constexpr std::size_t kDim = 16;
  ml::Dataset data;
  Rng rng(0xdeef);
  data.x.resize(kSamples);
  data.y.resize(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    data.x[i].resize(kDim);
    for (std::size_t f = 0; f < kDim; ++f)
      data.x[i][f] = rng.uniform01();
    data.y[i] = rng.uniform_int(0, 7);
  }
  ml::RandomForest forest;
  ml::ForestParams params;
  params.n_trees = 8;
  params.max_depth = 32;
  params.min_samples_split = 2;
  forest.fit(data, params);
  const CompiledForest compiled = CompiledForest::compile(forest);
  ASSERT_FALSE(compiled.uses_bitmask_scorer());

  const std::size_t rows = 67;  // off every vector-width boundary
  const auto n_classes = static_cast<std::size_t>(compiled.num_classes());
  std::vector<double> matrix(rows * kDim);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t f = 0; f < kDim; ++f)
      matrix[r * kDim + f] = rng.uniform01();
  // Non-finite features take the same branch as in DecisionTree (NaN goes
  // right).
  matrix[0] = std::numeric_limits<double>::quiet_NaN();
  matrix[kDim + 1] = std::numeric_limits<double>::infinity();
  matrix[2 * kDim + 2] = -std::numeric_limits<double>::infinity();
  matrix[3 * kDim + 3] = -0.0;

  const std::vector<double> expected = reference_proba(forest, matrix, kDim);
  std::vector<double> per_flow(n_classes);
  for (std::size_t r = 0; r < rows; ++r) {
    compiled.predict_proba_into(
        std::span<const double>(matrix).subspan(r * kDim, kDim), per_flow);
    EXPECT_EQ(std::memcmp(per_flow.data(), &expected[r * n_classes],
                          n_classes * sizeof(double)),
              0)
        << "row=" << r;
  }
  for (const auto level : supported_levels()) {
    std::vector<double> got(rows * n_classes, -1.0);
    compiled.predict_proba_batch(matrix, kDim, got, level);
    EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                          got.size() * sizeof(double)),
              0)
        << "level=" << static_cast<int>(level);
  }
}

TEST_F(BatchEquivalenceTest, PredictWithConfidenceBatchMatchesPerRow) {
  const auto* s = bank_->scenario(Provider::YouTube, Transport::Quic);
  ASSERT_NE(s, nullptr);
  const std::size_t dim = s->encoder.dimension();
  const std::vector<double> matrix =
      encoded_rows(*s, Provider::YouTube, Transport::Quic);
  const std::size_t rows = matrix.size() / dim;
  ASSERT_GT(rows, 0u);

  CompiledForest::Scratch scratch;
  const struct {
    const CompiledForest* compiled;
    const ml::RandomForest* model;
  } objectives[] = {{&s->platform_compiled, &s->platform_model},
                    {&s->device_compiled, &s->device_model},
                    {&s->agent_compiled, &s->agent_model}};
  for (const auto& objective : objectives) {
    std::vector<int> expected_labels(rows);
    std::vector<double> expected_conf(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      const std::vector<double> row(
          matrix.begin() + static_cast<long>(r * dim),
          matrix.begin() + static_cast<long>((r + 1) * dim));
      const auto [label, conf] = objective.model->predict_with_confidence(row);
      expected_labels[r] = label;
      expected_conf[r] = conf;
      // The per-flow path is the same kernel at rows = 1.
      ASSERT_EQ(objective.compiled->predict_with_confidence(row, scratch),
                std::make_pair(label, conf))
          << "row=" << r;
    }
    for (const auto level : supported_levels()) {
      std::vector<int> labels(rows, -1);
      std::vector<double> conf(rows, -1.0);
      objective.compiled->predict_with_confidence_batch(
          matrix, dim, labels, conf, scratch, level);
      EXPECT_EQ(labels, expected_labels);
      EXPECT_EQ(std::memcmp(conf.data(), expected_conf.data(),
                            rows * sizeof(double)),
                0);
    }
  }
}

// ---- pipeline-level equivalence ----

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
  os << '|' << r.confidence << '|' << r.sni << '|' << r.counters.bytes_down
     << '|' << r.counters.bytes_up;
  return os.str();
}

/// Interleaved multi-scenario capture feed (same shape as the sharded
/// equivalence suite uses).
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
  Rng rng(777);
  synth::FlowSynthesizer synth(rng);
  std::vector<net::Packet> packets;
  for (int i = 0; i < flows; ++i) {
    const auto& c = cases[static_cast<std::size_t>(i) % cases.size()];
    const auto platforms = fingerprint::platforms_for(c.provider, c.transport);
    const auto profile = fingerprint::make_profile(
        platforms[static_cast<std::size_t>(i) % platforms.size()], c.provider,
        c.transport);
    synth::FlowOptions opt;
    opt.start_time_us = static_cast<std::uint64_t>(i % 25) * 1700;
    const auto flow = synth.synthesize(profile, opt);
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  std::stable_sort(packets.begin(), packets.end(),
                   [](const net::Packet& a, const net::Packet& b) {
                     return a.timestamp_us < b.timestamp_us;
                   });
  return packets;
}

TEST_F(BatchEquivalenceTest, BatchedShardedMatchesSingleThreadedInline) {
  const auto packets = interleaved_mix(150);

  pipeline::VideoFlowPipeline reference(bank_);  // classify_batch = 1: inline
  std::vector<std::string> expected;
  reference.set_sink([&](telemetry::SessionRecord r) {
    expected.push_back(record_fingerprint(r));
  });
  for (const auto& packet : packets) reference.on_packet(packet);
  reference.flush_all();
  std::sort(expected.begin(), expected.end());
  const auto expected_stats = reference.stats();
  ASSERT_EQ(expected_stats.video_flows, 150u);

  for (const std::size_t batch : {std::size_t{1}, std::size_t{8},
                                  std::size_t{32}}) {
    pipeline::ShardedPipeline sharded(
        bank_,
        {.n_shards = 2, .queue_capacity = 128, .batch_size = batch});
    std::vector<std::string> got;
    sharded.set_sink([&](telemetry::SessionRecord r) {
      got.push_back(record_fingerprint(r));
    });
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "batch_size=" << batch;

    const auto stats = sharded.stats();
    EXPECT_EQ(stats.video_flows, expected_stats.video_flows);
    EXPECT_EQ(stats.classified_composite, expected_stats.classified_composite);
    EXPECT_EQ(stats.classified_partial, expected_stats.classified_partial);
    EXPECT_EQ(stats.classified_unknown, expected_stats.classified_unknown);
    EXPECT_EQ(stats.packets_total, expected_stats.packets_total);
    EXPECT_EQ(stats.packets_processed, stats.packets_total);
    EXPECT_EQ(stats.packets_stranded, 0u);
    EXPECT_EQ(stats.packets_dropped_payload, 0u);
    EXPECT_EQ(stats.packets_dropped_handshake, 0u);
  }
}

TEST_F(BatchEquivalenceTest, PartialBatchAtFlushDrainsInsteadOfStranding) {
  // Fewer flows than one classify batch and fewer packets than one dispatch
  // batch boundary would ever need: everything rides on the flush path.
  const auto packets = interleaved_mix(5);
  pipeline::ShardedPipeline sharded(
      bank_, {.n_shards = 2, .queue_capacity = 128, .batch_size = 64});
  std::size_t records = 0;
  sharded.set_sink([&](telemetry::SessionRecord) { ++records; });
  for (const auto& packet : packets) sharded.on_packet(packet);

  // Mid-flight (packets may still be staged in the dispatcher batch): the
  // snapshot identity must hold with the staged backlog reported as
  // stranded, never over-accounted.
  const auto mid = sharded.snapshot();
  EXPECT_LE(mid.packets_processed + mid.packets_dropped_payload +
                mid.packets_dropped_handshake + mid.packets_stranded,
            mid.packets_total);

  // flush_idle is in-band: it must drain the staged partial batch first.
  sharded.flush_idle(/*now_us=*/1u << 30, /*idle_timeout_us=*/1);
  EXPECT_EQ(records, 5u);

  const auto stats = sharded.stats();
  EXPECT_EQ(stats.video_flows, 5u);
  EXPECT_EQ(stats.classified_composite + stats.classified_partial +
                stats.classified_unknown,
            5u);
  EXPECT_EQ(stats.packets_processed, stats.packets_total);
  EXPECT_EQ(stats.packets_stranded, 0u);
  EXPECT_EQ(sharded.observability().packets_staged.total(), 0);
}

TEST_F(BatchEquivalenceTest, BlockModeDispatchDoesZeroAdmissionClassWork) {
  const auto packets = interleaved_mix(40);
  {
    // Block mode, no watchdog, no bypass: no shed decision is ever made, so
    // the dispatcher must never evaluate a packet's admission class.
    pipeline::ShardedPipeline sharded(
        bank_, {.n_shards = 2, .queue_capacity = 16, .batch_size = 32});
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();
    EXPECT_EQ(sharded.admission_class_evaluations(), 0u);
    EXPECT_EQ(sharded.stats().packets_dropped_payload +
                  sharded.stats().packets_dropped_handshake,
              0u);
  }
  {
    // Shed mode with a tiny ring and zero grace: every drop must have
    // evaluated a class to attribute itself — the counter moves with drops
    // and only with drops.
    pipeline::ShardedPipeline sharded(
        bank_,
        {.n_shards = 1,
         .queue_capacity = 4,
         .batch_size = 32,
         .overload = pipeline::ShardedPipelineOptions::Overload::Shed,
         .payload_grace_us = 0,
         .handshake_grace_us = 0});
    for (const auto& packet : packets) sharded.on_packet(packet);
    sharded.flush_all();
    const auto stats = sharded.stats();
    const std::uint64_t drops =
        stats.packets_dropped_payload + stats.packets_dropped_handshake;
    if (drops > 0)
      EXPECT_GT(sharded.admission_class_evaluations(), 0u);
    else
      EXPECT_EQ(sharded.admission_class_evaluations(), 0u);
    // Identity holds with shedding too.
    EXPECT_EQ(stats.packets_processed + drops + stats.packets_stranded,
              stats.packets_total);
  }
}

// ---- ring stress (the TSan-lane pair for the direct tests in util_test) ----

TEST(SpscRingBulkStress, MixedBulkAndSingleOpsKeepFifoUnderThreads) {
  // Move-only payload so a double-move or lost slot shows up as a null or
  // a sequence gap; TSan (ctest -L concurrency under VPSCOPE_SANITIZE=
  // thread) checks the one-release-store-per-batch publication protocol.
  constexpr std::uint64_t kItems = 200'000;
  SpscRing<std::unique_ptr<std::uint64_t>> ring(64);

  std::thread producer([&] {
    std::uint64_t next = 0;
    std::unique_ptr<std::uint64_t> batch[13];
    int phase = 0;
    while (next < kItems) {
      const std::size_t want = std::min<std::uint64_t>(
          (phase % 4 == 0) ? 1 : (phase % 4 == 1) ? 3 : (phase % 4 == 2) ? 7
                                                                         : 13,
          kItems - next);
      ++phase;
      if (want == 1) {
        auto one = std::make_unique<std::uint64_t>(next);
        while (!ring.try_push(one)) std::this_thread::yield();
        ++next;
        continue;
      }
      for (std::size_t i = 0; i < want; ++i)
        batch[i] = std::make_unique<std::uint64_t>(next + i);
      std::size_t done = 0;
      while (done < want) {
        const std::size_t pushed =
            ring.try_push_bulk(batch + done, want - done);
        if (pushed == 0)
          std::this_thread::yield();
        else
          done += pushed;
      }
      next += want;
    }
  });

  std::uint64_t expect = 0;
  std::unique_ptr<std::uint64_t> out[32];
  int phase = 0;
  while (expect < kItems) {
    ++phase;
    if (phase % 3 == 0) {
      std::unique_ptr<std::uint64_t> one;
      if (!ring.try_pop(one)) {
        std::this_thread::yield();
        continue;
      }
      ASSERT_NE(one, nullptr);
      ASSERT_EQ(*one, expect);
      ++expect;
      continue;
    }
    const std::size_t got =
        ring.try_pop_bulk(out, (phase % 3 == 1) ? 5 : 32);
    if (got == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_NE(out[i], nullptr);
      ASSERT_EQ(*out[i], expect);  // strict FIFO across mixed op sizes
      out[i].reset();
      ++expect;
    }
  }
  producer.join();
  std::unique_ptr<std::uint64_t> leftover;
  EXPECT_FALSE(ring.try_pop(leftover));
}

}  // namespace
}  // namespace vpscope
