#include "fuzz/oracles.hpp"

#include <exception>

#include "capture/afpacket.hpp"
#include "capture/export.hpp"
#include "capture/replay.hpp"
#include "core/handshake.hpp"
#include "core/interner.hpp"
#include "quic/initial.hpp"
#include "quic/transport_params.hpp"

namespace vpscope::fuzz {

namespace {

std::string describe(const char* what, ByteView mutant) {
  std::string s(what);
  s += " [mutant ";
  s += to_hex(mutant);
  s += "]";
  return s;
}

/// Builds the handshake observation the attribute extractor consumes. When
/// the ClientHello embeds parseable transport parameters the flow counts as
/// QUIC so the q* attributes are exercised too.
core::FlowHandshake to_flow_handshake(tls::ClientHello chlo) {
  core::FlowHandshake hs;
  if (const auto tp_body = chlo.quic_transport_parameters()) {
    if (auto tp = quic::TransportParameters::parse(*tp_body)) {
      hs.transport = fingerprint::Transport::Quic;
      hs.quic_tp = std::move(tp);
    }
  }
  hs.chlo = std::move(chlo);
  return hs;
}

/// Oracles (a) + (b) on an already-parsed ClientHello; `reparse` re-ingests
/// the serialized form through the same entry point the mutant came in on.
template <typename Reparse>
OracleResult check_parsed(const tls::ClientHello& chlo, ByteView mutant,
                          const Bytes& serialized, Reparse reparse) {
  OracleResult result;
  result.accepted = true;

  const auto again = reparse(serialized);
  if (!again) {
    result.failure = describe("fixpoint: serialize of accepted parse rejected",
                              mutant);
    return result;
  }
  if (!(*again == chlo)) {
    result.failure = describe("fixpoint: re-parse differs from first parse",
                              mutant);
    return result;
  }

  // One shared interner: two independent interners could assign the same id
  // to different strings and mask a divergence.
  core::TokenInterner interner;
  core::RawAttrs first{}, second{};
  core::extract_raw_attributes(to_flow_handshake(chlo), interner, first);
  core::extract_raw_attributes(to_flow_handshake(*again), interner, second);
  if (!raw_attrs_equal(first, second))
    result.failure = describe("attrs: RawAttrs differ across re-parse", mutant);
  return result;
}

/// Every IP datagram of a pcap image, or nullopt when the reader rejects
/// the image (bad global header or a malformed record).
std::optional<std::vector<net::Packet>> read_packets(ByteView blob) {
  std::vector<net::Packet> packets;
  const capture::ReplayStats stats = capture::ReplayDriver().replay(
      blob, [&packets](net::Packet&& p) { packets.push_back(std::move(p)); });
  if (!stats.ok) return std::nullopt;
  return packets;
}

}  // namespace

bool raw_attrs_equal(const core::RawAttrs& a, const core::RawAttrs& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.present != y.present || x.count != y.count || x.number != y.number)
      return false;
    for (std::uint8_t t = 0; t < x.count; ++t)
      if (x.tokens[t] != y.tokens[t]) return false;
  }
  return true;
}

OracleResult check_tls_record(ByteView data) {
  try {
    const auto chlo = tls::ClientHello::parse_record(data);
    if (!chlo) return {};
    return check_parsed(*chlo, data, chlo->serialize_record(),
                        [](const Bytes& b) {
                          return tls::ClientHello::parse_record(b);
                        });
  } catch (const std::exception& e) {
    return {.accepted = false,
            .failure = describe(e.what(), data)};
  }
}

OracleResult check_tls_handshake(ByteView data) {
  try {
    const auto chlo = tls::ClientHello::parse_handshake(data);
    if (!chlo) return {};
    return check_parsed(*chlo, data, chlo->serialize_handshake(),
                        [](const Bytes& b) {
                          return tls::ClientHello::parse_handshake(b);
                        });
  } catch (const std::exception& e) {
    return {.accepted = false,
            .failure = describe(e.what(), data)};
  }
}

OracleResult check_transport_params(ByteView body) {
  try {
    const auto tp = quic::TransportParameters::parse(body);
    if (!tp) return {};
    OracleResult result;
    result.accepted = true;

    const Bytes s1 = tp->serialize();
    const auto tp2 = quic::TransportParameters::parse(s1);
    if (!tp2) {
      result.failure =
          describe("fixpoint: serialize of accepted parse rejected", body);
      return result;
    }
    if (tp2->serialize() != s1)
      result.failure =
          describe("fixpoint: second normalization round not stable", body);
    return result;
  } catch (const std::exception& e) {
    return {.accepted = false, .failure = describe(e.what(), body)};
  }
}

OracleResult check_initial_flight(const std::vector<Bytes>& datagrams) {
  try {
    quic::CryptoReassembler reassembler;
    bool any = false;
    for (const auto& dg : datagrams) {
      if (!quic::looks_like_initial(dg)) continue;
      if (const auto packet = quic::unprotect_client_initial(dg)) {
        reassembler.add(*packet);
        any = true;
      }
    }
    if (!any) return {};
    const Bytes stream = reassembler.contiguous_prefix();
    return check_tls_handshake(stream);
  } catch (const std::exception& e) {
    std::string all;
    for (const auto& dg : datagrams) {
      if (!all.empty()) all += "|";
      all += to_hex(dg);
    }
    return {.accepted = false,
            .failure = std::string(e.what()) + " [flight " + all + "]"};
  }
}

OracleResult check_pcap_blob(const Bytes& blob) {
  try {
    // The PcapReader walk itself must neither throw nor OOB (the latter is
    // the sanitizer lane's job), whatever the bytes.
    const auto packets = read_packets(blob);
    if (!packets) return {};
    OracleResult result;
    result.accepted = true;
    // Every packet a pcap reader accepts must survive decode + handshake
    // extraction without escaping exceptions.
    for (const auto& p : *packets) (void)net::decode(p);
    (void)core::extract_handshake(*packets);
    // Fixpoint: an accepted capture re-serialized through the canonical
    // writer must re-read to the identical packet sequence.
    const Bytes round =
        capture::export_pcap(*packets, {.link_type = capture::LinkType::Raw});
    const auto packets2 = read_packets(round);
    if (!packets2)
      return {.accepted = true,
              .failure = describe("pcap round-trip no longer parses", blob)};
    if (packets2->size() != packets->size())
      return {.accepted = true,
              .failure = describe("pcap round-trip changed packet count",
                                  blob)};
    for (std::size_t i = 0; i < packets->size(); ++i)
      if ((*packets2)[i].timestamp_us != (*packets)[i].timestamp_us ||
          (*packets2)[i].data != (*packets)[i].data)
        return {.accepted = true,
                .failure = describe("pcap round-trip changed a packet", blob)};
    return result;
  } catch (const std::exception& e) {
    return {.accepted = false, .failure = describe(e.what(), blob)};
  }
}

OracleResult check_block_image(const Bytes& image) {
  try {
    capture::TpacketBlockWalker walker(image);
    std::size_t walked = 0;
    while (const auto frame = walker.next()) {
      // The surfaced view must lie inside the image (ASan would catch the
      // read; this catches the arithmetic before it).
      if (frame->bytes.size() > 0 &&
          (frame->bytes.data() < image.data() ||
           frame->bytes.data() + frame->bytes.size() >
               image.data() + image.size()))
        return {.accepted = true,
                .failure = describe("walker surfaced an escaping view", image)};
      ++walked;
      if (walked > walker.num_packets())
        return {.accepted = true,
                .failure =
                    describe("walker yielded more frames than num_pkts",
                             image)};
    }
    OracleResult result;
    result.accepted = !walker.error() && walked > 0;
    return result;
  } catch (const std::exception& e) {
    return {.accepted = false, .failure = describe(e.what(), image)};
  }
}

}  // namespace vpscope::fuzz
