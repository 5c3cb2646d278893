// Differential oracles for the torture harness. Each check ingests one
// mutant through the same code path the on-path pipeline uses and verifies
// the three properties of the harness:
//
//   (a) fixpoint        parse -> serialize -> re-parse reproduces the same
//                       structure on every *accepted* input
//   (b) attr stability  the 62 RawAttrs extracted from the original parse
//                       and from the re-parse are identical
//   (c) no escape       rejection is a clean nullopt/false — a parser that
//                       throws, crashes, or reads out of bounds (caught by
//                       the ASan/UBSan lane) fails the oracle
//
// Checks never throw: any exception escaping a parser is converted into an
// oracle failure naming the mutant.
#pragma once

#include <string>
#include <vector>

#include "core/attributes.hpp"
#include "fuzz/corpus.hpp"

namespace vpscope::fuzz {

struct OracleResult {
  bool accepted = false;  // the mutant parsed as valid input
  std::string failure;    // empty when every oracle held

  bool ok() const { return failure.empty(); }
};

/// TLS record bytes through ClientHello::parse_record (the TCP surface).
OracleResult check_tls_record(ByteView data);

/// Handshake message bytes through ClientHello::parse_handshake (the QUIC
/// CRYPTO surface).
OracleResult check_tls_handshake(ByteView data);

/// quic_transport_parameters body. Serialization normalizes (unknown ids
/// drop, GREASE re-encodes), so the fixpoint is required after one
/// normalization round: serialize(parse(serialize(parse(x)))) ==
/// serialize(parse(x)).
OracleResult check_transport_params(ByteView body);

/// A full flight of UDP datagrams through the observer path: Initial
/// detection, AEAD unprotection, CRYPTO reassembly, ClientHello parse, then
/// the TLS oracles on whatever reassembled.
OracleResult check_initial_flight(const std::vector<Bytes>& datagrams);

/// A serialized pcap blob through the capture engine: the PcapReader walk
/// (must not throw/OOB on any input) yields the IP datagrams, and accepted
/// captures additionally decode, extract, and survive a canonical
/// export_pcap round trip bit-identically.
OracleResult check_pcap_blob(const Bytes& blob);

/// A TPACKETv3 block image through capture::TpacketBlockWalker: the walk
/// must terminate, never yield more frames than the descriptor claims, and
/// every surfaced view must stay inside the image.
OracleResult check_block_image(const Bytes& image);

/// Field-wise RawAttrs comparison (present/count/number/valid tokens).
bool raw_attrs_equal(const core::RawAttrs& a, const core::RawAttrs& b);

}  // namespace vpscope::fuzz
