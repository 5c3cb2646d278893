// Seeded workload generation. Every input the benchmark feeds vpscope is
// built here from the workload seed alone: the same seed gives a
// byte-identical pcap image (and record stream), which the run prints as a
// digest next to the seed.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "fingerprint/platform.hpp"
#include "telemetry/record.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Workload : std::uint8_t {
  CampusReplay,
  HandshakeChurn,
  InitialFlood,
  TelemetryScan,
};

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// What a frame of a replay image is, from the generator's ground truth.
/// Handshake and Trailing frames together are a flow's handshake packets:
/// every packet before its first payload packet.
enum class FrameKind : std::uint8_t {
  Handshake,  // up to and including the client's last handshake packet
  Trailing,   // handshake packets after that one (server hello stubs)
  Payload,    // a legitimate flow's post-handshake payload packet
  Forged,     // a forged QUIC Initial from a fresh 5-tuple
};

/// Ground truth of one legitimate video flow.
struct FlowTruth {
  vpscope::fingerprint::PlatformId platform;
  vpscope::fingerprint::Provider provider = vpscope::fingerprint::Provider::YouTube;
  vpscope::fingerprint::Transport transport = vpscope::fingerprint::Transport::Tcp;
  /// Timestamp of the flow's first packet; unique per image, so a session
  /// record maps back to its flow through counters.first_us.
  std::uint64_t first_us = 0;
};

inline constexpr std::uint32_t kNoFlow = 0xffffffffu;

/// A replay workload: an Ethernet pcap image plus per-frame ground truth.
struct ReplayImage {
  vpscope::Bytes pcap;
  std::vector<FrameKind> frame_kind;     // per frame, in image order
  std::vector<std::uint32_t> frame_flow; // legit flow index, or kNoFlow
  std::vector<FlowTruth> flows;
  std::size_t handshake_frames = 0;  // Handshake + Trailing
  std::size_t payload_frames = 0;
  std::size_t forged_frames = 0;

  std::size_t frames() const { return frame_kind.size(); }
};

/// Size and traffic shape of a replay image.
struct ReplayShape {
  int flows = 0;
  std::uint64_t start_window_us = 0;   // flow starts spread over this span
  std::uint64_t payload_bytes = 0;     // downstream payload per flow
  std::uint64_t payload_duration_us = 0;
  int forged_per_handshake = 0;
};

/// The replay shape of a workload (telemetry_scan: its sampled live feed).
ReplayShape replay_shape(Workload w);

/// Builds the workload's replay image. `with_forged = false` drops the
/// forged Initials but keeps every legitimate packet identical and in the
/// same relative order: the flood-free reference of initial_flood.
ReplayImage make_replay_image(Workload w, std::uint64_t seed,
                              bool with_forged = true);

/// One forged client Initial UDP payload: a valid QUIC v1 long header with
/// a random DCID, >= 1200 bytes, and a random payload that fails AEAD.
vpscope::Bytes forged_initial_payload(vpscope::Rng& rng);

/// Session records drawn from the campus simulator's behavioural model
/// (CampusSimulator::plan_session) with no packet pipeline, in session-end
/// order, the order a store receives them in.
std::vector<vpscope::telemetry::SessionRecord> make_session_records(
    std::uint64_t seed, std::size_t rows, int days);

/// Repeats `records` until there are at least `min_rows`, each copy shifted
/// in time past the previous one: the records of that many consecutive
/// captures.
std::vector<vpscope::telemetry::SessionRecord> tile_records(
    const std::vector<vpscope::telemetry::SessionRecord>& records,
    std::size_t min_rows);

/// FNV-1a over bytes, and a per-record hash over every SessionRecord field.
std::uint64_t fnv1a(vpscope::ByteView data);
std::uint64_t record_hash(const vpscope::telemetry::SessionRecord& r);
/// Order-independent digest of a record set (sum of mixed record hashes,
/// plus the count).
std::uint64_t records_digest(
    const std::vector<vpscope::telemetry::SessionRecord>& records);

}  // namespace perfbench
