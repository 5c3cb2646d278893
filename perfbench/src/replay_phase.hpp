// The replay phase: a workload's pcap image driven through vpscope's
// public front-ends with capture::replay_into, closed loop (the replay
// driver hands over the next packet only when on_packet returns; the
// sharded front-end runs in lossless Overload::Block mode).
#pragma once

#include <cstdint>
#include <vector>

#include "capture/replay.hpp"
#include "common.hpp"
#include "generator.hpp"
#include "pipeline/classifier_bank.hpp"
#include "spans.hpp"
#include "telemetry/record.hpp"

namespace perfbench {

/// Shards of the sharded front-end: with its dispatcher, one thread per
/// core of a 4-core machine.
inline constexpr int kShards = 3;

/// Idle aging of every replay: the flush hook runs once per second of
/// packet time and ages out flows idle for two seconds, so the flow table
/// holds a steady population instead of growing with the capture.
vpscope::capture::ReplayOptions replay_options();

struct ReplaySummary {
  // One entry per round.
  std::vector<double> pps;
  std::vector<double> pps_sharded;
  /// Per legitimate flow, its time to verdict in each round.
  std::vector<std::vector<double>> verdict_us;
  double composite_accuracy = 0.0;
  std::uint64_t flows_offered = 0;  // legitimate flows, summed over passes
  std::uint64_t flows_failed = 0;
  std::uint64_t records_digest = 0;
  /// Records of the first single-threaded pass.
  std::vector<vpscope::telemetry::SessionRecord> records;
};

/// Untraced replay rounds, run one at a time so that a run can interleave
/// them with the telemetry phase.
class ReplayRounds {
 public:
  /// `bank` and `image` must outlive the object.
  ReplayRounds(const vpscope::pipeline::ClassifierBank& bank,
               const ReplayImage& image, Gate& gate)
      : bank_(bank), image_(image), gate_(gate) {}

  /// One single-threaded and one sharded replay, each checked.
  void run_round();
  const ReplaySummary& summary() const { return sum_; }
  /// Each flow's sustained time to verdict over the rounds so far.
  std::vector<double> sustained_verdict_us() const;

 private:
  const vpscope::pipeline::ClassifierBank& bank_;
  const ReplayImage& image_;
  Gate& gate_;
  ReplaySummary sum_;
};

/// One single-threaded replay, checked like a round; returns its records.
std::vector<vpscope::telemetry::SessionRecord> replay_records(
    const vpscope::pipeline::ClassifierBank& bank, const ReplayImage& image,
    Gate& gate);

/// Legitimate flows offered and lost, summed over checked passes.
struct FlowTally {
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;
};

/// The traced run's replay part: the layers composed from the benchmark's
/// own code with a span around each call, each pass paired with the same
/// path without spans (repeated until `composed_budget_s` has elapsed), then
/// the single-threaded and sharded front-ends with every call timed from
/// outside. Appends the per-layer
/// metrics and the layer budget.
void run_replay_traced(const vpscope::pipeline::ClassifierBank& bank,
                       const ReplayImage& image, std::uint64_t seed,
                       double composed_budget_s, SpanLog& spans, Metrics& out,
                       FlowTally& tally, Gate& gate);

}  // namespace perfbench
