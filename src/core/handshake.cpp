#include "core/handshake.hpp"

#include "quic/initial.hpp"

namespace vpscope::core {

using fingerprint::Transport;

bool HandshakeExtractor::feed(const net::DecodedPacket& packet) {
  if (!wants(packet)) return false;
  return packet.tcp ? feed_tcp(packet) : feed_quic(packet);
}

bool HandshakeExtractor::wants(const net::DecodedPacket& packet) const {
  if (complete_ || failed_) return false;
  if (packet.tcp) {
    const net::TcpHeader& tcp = *packet.tcp;
    // The client SYN opens the observation; a retransmission does not.
    if (tcp.flags.syn && !tcp.flags.ack) return !seen_syn_;
    // Only client-to-server payload can carry the ClientHello.
    return seen_syn_ && packet.src == *client_addr_ &&
           tcp.src_port == client_port_ && !packet.payload.empty();
  }
  if (packet.udp) return quic::looks_like_initial(packet.payload);
  return false;
}

bool HandshakeExtractor::feed_tcp(const net::DecodedPacket& packet) {
  const net::TcpHeader& tcp = *packet.tcp;

  if (tcp.flags.syn && !tcp.flags.ack) {
    seen_syn_ = true;
    client_addr_ = packet.src;
    client_port_ = tcp.src_port;

    FlowHandshake h;
    h.transport = Transport::Tcp;
    h.init_packet_size = packet.ip_packet_size;
    h.ttl = packet.ttl;
    h.syn_flags = tcp.flags;
    h.tcp_window = tcp.window;
    h.tcp_mss = tcp.options.mss;
    h.tcp_window_scale = tcp.options.window_scale;
    h.tcp_sack_permitted = tcp.options.sack_permitted;
    result_ = std::move(h);
    return true;
  }

  // Client payload after the SYN (wants() checked the direction).
  tcp_stream_.insert(tcp_stream_.end(), packet.payload.begin(),
                     packet.payload.end());
  // A ClientHello comfortably fits the first few segments; bail out if the
  // client sent lots of data without a parseable hello (not a TLS flow).
  if (auto chlo = tls::ClientHello::parse_record(tcp_stream_)) {
    finish_with_chlo(std::move(*chlo));
    return true;
  }
  if (tcp_stream_.size() > 16384) failed_ = true;
  return true;
}

bool HandshakeExtractor::feed_quic(const net::DecodedPacket& packet) {
  // Only the client's Initials decrypt with the DCID-derived client keys;
  // server packets fail authentication and are skipped, so no explicit
  // direction tracking is needed.
  const auto initial = quic::unprotect_client_initial(packet.payload);
  if (!initial) return false;

  if (!seen_initial_) {
    seen_initial_ = true;
    FlowHandshake h;
    h.transport = Transport::Quic;
    h.init_packet_size = packet.ip_packet_size;
    h.ttl = packet.ttl;
    result_ = std::move(h);
  }
  reassembler_.add(*initial);
  const Bytes& stream = reassembler_.contiguous_prefix();
  if (stream.size() < 4) return true;
  if (auto chlo = tls::ClientHello::parse_handshake(stream)) {
    finish_with_chlo(std::move(*chlo));
    // The parsed hello owns its bytes; drop the reassembly buffers.
    reassembler_ = quic::CryptoReassembler{};
  }
  return true;
}

void HandshakeExtractor::finish_with_chlo(tls::ClientHello chlo) {
  if (!result_) return;
  if (result_->transport == Transport::Quic) {
    if (const auto tp_body = chlo.quic_transport_parameters())
      result_->quic_tp = quic::TransportParameters::parse(*tp_body);
  }
  result_->chlo = std::move(chlo);
  complete_ = true;
}

std::string_view HandshakeExtractor::sni() const {
  if (!complete_ || !result_) return {};
  return result_->chlo.server_name_view().value_or(std::string_view{});
}

std::optional<FlowHandshake> extract_handshake(
    std::span<const net::Packet> packets) {
  HandshakeExtractor extractor;
  for (const auto& packet : packets) {
    const auto decoded = net::decode(packet);
    if (!decoded) continue;
    extractor.feed(*decoded);
    if (extractor.complete()) break;
  }
  return extractor.complete() ? extractor.handshake() : std::nullopt;
}

}  // namespace vpscope::core
