// dataset_tool: generates the labeled datasets as artifacts a researcher
// can take elsewhere — PCAP files (LINKTYPE_RAW, openable in Wireshark,
// exactly like the paper's lab collection) and a CSV of the 62 encoded
// attributes with ground-truth labels.
//
// Usage: dataset_tool <out_dir> [lab|home] [scale]
//   dataset_tool /tmp/vpscope-data lab 0.1
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "capture/export.hpp"
#include "core/encoder.hpp"
#include "core/handshake.hpp"
#include "synth/dataset.hpp"
#include "util/table.hpp"

using namespace vpscope;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <out_dir> [lab|home] [scale]\n", argv[0]);
    return 1;
  }
  const std::filesystem::path out_dir = argv[1];
  const std::string which = argc > 2 ? argv[2] : "lab";
  const double scale = argc > 3 ? std::atof(argv[3]) : 0.1;
  std::filesystem::create_directories(out_dir);

  std::printf("generating %s dataset (scale %.2f)...\n", which.c_str(), scale);
  const synth::Dataset dataset =
      which == "home"
          ? synth::generate_home_dataset(777,
                                         static_cast<int>(2000 * scale * 10))
          : synth::generate_lab_dataset(42, scale);
  std::printf("%zu flows\n", dataset.flows.size());

  // One PCAP per (provider, transport) scenario, all flows interleaved.
  std::map<std::string, std::vector<net::Packet>> pcaps;
  for (const auto& flow : dataset.flows) {
    const std::string key = to_string(flow.provider) + "_" +
                            to_string(flow.transport);
    auto& packets = pcaps[key];
    packets.insert(packets.end(), flow.packets.begin(), flow.packets.end());
  }
  for (const auto& [key, packets] : pcaps) {
    const auto path = out_dir / (which + "_" + key + ".pcap");
    if (!capture::export_pcap_file(path.string(), packets,
                                   {.link_type = capture::LinkType::Raw})) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu packets)\n", path.c_str(), packets.size());
  }

  // Attribute CSVs per transport (schemas differ: 42 vs 50 attributes).
  for (const auto transport :
       {fingerprint::Transport::Tcp, fingerprint::Transport::Quic}) {
    std::vector<core::FlowHandshake> handshakes;
    std::vector<const synth::LabeledFlow*> flows;
    for (const auto& flow : dataset.flows) {
      if (flow.transport != transport) continue;
      auto handshake = core::extract_handshake(flow.packets);
      if (!handshake) continue;
      handshakes.push_back(std::move(*handshake));
      flows.push_back(&flow);
    }
    if (handshakes.empty()) continue;

    core::FeatureEncoder encoder(transport);
    encoder.fit(handshakes);

    std::vector<std::string> header = {"os", "agent", "provider"};
    const auto& catalog = core::attribute_catalog();
    for (const auto& col : encoder.columns()) {
      std::string name =
          catalog[static_cast<std::size_t>(col.attribute)].label;
      if (catalog[static_cast<std::size_t>(col.attribute)].type ==
          core::AttrType::List)
        name += "_" + std::to_string(col.slot);
      header.push_back(std::move(name));
    }
    TextTable csv(header);
    for (std::size_t i = 0; i < handshakes.size(); ++i) {
      std::vector<std::string> row = {to_string(flows[i]->platform.os),
                                      to_string(flows[i]->platform.agent),
                                      to_string(flows[i]->provider)};
      for (double v : encoder.transform(handshakes[i]))
        row.push_back(TextTable::num(v, 0));
      csv.add_row(std::move(row));
    }
    const auto path =
        out_dir / (which + "_attributes_" +
                   to_string(transport) + ".csv");
    std::ofstream file(path);
    csv.print_csv(file);
    std::printf("wrote %s (%zu rows x %zu attributes expanded to %zu "
                "columns)\n",
                path.c_str(), handshakes.size(),
                encoder.attributes().size(), encoder.dimension());
  }
  return 0;
}
