// pcap_classifier: offline mode — classify every video flow in a PCAP file
// (Ethernet or LINKTYPE_RAW, e.g. produced by dataset_tool or any capture
// tap) and print per-session records plus summary statistics. The same
// pipeline the live deployment runs, pointed at a file.
//
// Usage: pcap_classifier <capture.pcap> [model_scale]
#include <cstdio>
#include <cstdlib>
#include <map>

#include "capture/replay.hpp"
#include "pipeline/pipeline.hpp"
#include "synth/dataset.hpp"

using namespace vpscope;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <capture.pcap> [model_scale]\n", argv[0]);
    return 1;
  }
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.5;

  const auto image = capture::read_file_bytes(argv[1]);
  if (!image || !capture::PcapReader::open(*image)) {
    std::fprintf(stderr,
                 "cannot read %s (classic pcap, Ethernet or raw IP)\n",
                 argv[1]);
    return 1;
  }
  std::printf("%zu bytes loaded from %s\n", image->size(), argv[1]);

  std::puts("training classifier bank...");
  pipeline::ClassifierBank bank;
  bank.train(synth::generate_lab_dataset(42, scale));

  pipeline::VideoFlowPipeline pipe(&bank);
  std::map<std::string, int> by_platform;
  int sessions = 0;
  pipe.set_sink([&](telemetry::SessionRecord record) {
    ++sessions;
    std::string label = "(unknown)";
    if (record.platform)
      label = to_string(*record.platform);
    else if (record.device)
      label = to_string(*record.device) + "/?";
    by_platform[label]++;
    std::printf("  %-8s %-4s %-24s conf=%5.1f%% dur=%.1fs down=%.2fMB\n",
                to_string(record.provider).c_str(),
                to_string(record.transport).c_str(), label.c_str(),
                record.confidence * 100, record.counters.duration_s(),
                static_cast<double>(record.counters.bytes_down) / 1e6);
  });

  const capture::ReplayStats replay = capture::replay_into(*image, pipe);
  std::printf("%llu packets replayed\n",
              static_cast<unsigned long long>(replay.frames));

  std::printf("\n%d video sessions; platform mix:\n", sessions);
  for (const auto& [label, count] : by_platform)
    std::printf("  %-24s %d\n", label.c_str(), count);
  if (!replay.ok) {
    std::fprintf(stderr, "%s: replay stopped early: %s\n", argv[1],
                 replay.error.c_str());
    return 1;
  }
  return 0;
}
