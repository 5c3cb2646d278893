// Tests of the benchmark's own inputs: the generator is reproducible (same
// seed, byte-identical image and record stream), the flood-free reference
// holds exactly the flooded image's legitimate frames, forged Initials fail
// authentication, and tiled record copies follow each other in time.
//
//   ctest --test-dir .bench_build/perfbench   (or run the binary directly)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "capture/pcap.hpp"
#include "generator.hpp"
#include "quic/initial.hpp"

namespace {

using namespace perfbench;
using namespace vpscope;

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<Bytes> frames_of(const Bytes& pcap) {
  std::vector<Bytes> out;
  auto reader = capture::PcapReader::open(pcap);
  if (!reader) return out;
  while (const auto f = reader->next()) out.emplace_back(f->bytes.begin(), f->bytes.end());
  return out;
}

void test_images_are_reproducible() {
  for (Workload w : {Workload::CampusReplay, Workload::HandshakeChurn,
                     Workload::InitialFlood, Workload::TelemetryScan}) {
    const ReplayImage a = make_replay_image(w, 7);
    const ReplayImage b = make_replay_image(w, 7);
    const ReplayImage c = make_replay_image(w, 8);
    CHECK(a.pcap == b.pcap);
    CHECK(a.frame_kind == b.frame_kind);
    CHECK(a.frame_flow == b.frame_flow);
    CHECK(fnv1a(a.pcap) != fnv1a(c.pcap));
    CHECK(a.frames() == frames_of(a.pcap).size());
    CHECK(static_cast<int>(a.flows.size()) == replay_shape(w).flows);
  }
}

void test_workload_shapes() {
  const ReplayImage campus = make_replay_image(Workload::CampusReplay, 3);
  CHECK(campus.payload_frames * 100 >= campus.frames() * 95);
  const ReplayImage churn = make_replay_image(Workload::HandshakeChurn, 3);
  CHECK(churn.payload_frames == 0 && churn.forged_frames == 0);
  const ReplayImage flood = make_replay_image(Workload::InitialFlood, 3);
  CHECK(flood.forged_frames == flood.flows.size() * 10);
}

void test_flood_reference_keeps_legitimate_frames() {
  const ReplayImage flood = make_replay_image(Workload::InitialFlood, 5);
  const ReplayImage ref = make_replay_image(Workload::InitialFlood, 5, false);
  CHECK(ref.forged_frames == 0);
  const auto flooded = frames_of(flood.pcap);
  std::vector<Bytes> legit;
  for (std::size_t i = 0; i < flooded.size(); ++i)
    if (flood.frame_kind[i] != FrameKind::Forged) legit.push_back(flooded[i]);
  CHECK(legit == frames_of(ref.pcap));
}

void test_forged_initials_fail_authentication() {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const Bytes dg = forged_initial_payload(rng);
    CHECK(dg.size() >= quic::kMinInitialDatagram);
    CHECK(quic::looks_like_initial(dg));
    CHECK(!quic::unprotect_client_initial(dg));
  }
}

void test_record_stream_is_reproducible() {
  const auto a = make_session_records(9, 5000, 7);
  const auto b = make_session_records(9, 5000, 7);
  CHECK(a.size() == 5000);
  CHECK(a == b);
  CHECK(records_digest(a) != records_digest(make_session_records(10, 5000, 7)));
}

void test_tiled_records_follow_each_other() {
  const auto base = make_session_records(4, 1000, 1);
  const auto tiled = tile_records(base, 2500);
  CHECK(tiled.size() == 3000);
  std::uint64_t last_end = 0;
  for (const auto& r : base) last_end = std::max(last_end, r.counters.last_us);
  for (std::size_t i = 0; i < base.size(); ++i) {
    const auto& copy = tiled[base.size() + i];
    CHECK(copy.counters.first_us > last_end);
    CHECK(copy.counters.duration_s() == base[i].counters.duration_s());
    CHECK(copy.counters.bytes_down == base[i].counters.bytes_down);
  }
}

}  // namespace

int main() {
  test_images_are_reproducible();
  test_workload_shapes();
  test_flood_reference_keeps_legitimate_frames();
  test_forged_initials_fail_authentication();
  test_record_stream_is_reproducible();
  test_tiled_records_follow_each_other();
  if (g_failures == 0) std::printf("perfbench_generator_test: all checks passed\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
