// QUIC v1 Initial packets with real RFC 9001 protection.
//
// The paper's pipeline must "identify and decrypt QUIC Initial packets and
// extract handshake attributes from TLS CHLO messages over QUIC" (§4.3.4).
// Initial packets are encrypted with keys derived *from the public DCID*, so
// any on-path observer can remove the protection; this module implements
// both directions:
//
//   synthesize:  ClientHello bytes -> CRYPTO frames -> AEAD-sealed,
//                header-protected Initial packet(s), padded to >= 1200 B
//   observe:     UDP datagram -> header checks -> header unprotection ->
//                AEAD open -> CRYPTO reassembly -> ClientHello bytes
//
// Large ClientHellos (e.g. post-quantum key shares) are split across
// multiple Initial datagrams, as real clients do.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/aes.hpp"
#include "util/bytes.hpp"

namespace vpscope::quic {

inline constexpr std::uint32_t kQuicVersion1 = 0x00000001;
inline constexpr std::size_t kMinInitialDatagram = 1200;
/// RFC 9000 §17.2: v1 connection IDs are at most 20 bytes.
inline constexpr std::size_t kMaxConnectionIdLen = 20;

/// Cleartext view of one Initial packet (after header/payload unprotection).
///
/// `dcid`, `scid` and `token` borrow from the datagram handed to
/// unprotect_client_initial, which must outlive this value. The CRYPTO
/// fragments borrow from `cleartext`, which this value owns; moving keeps
/// them valid, and copying is disabled so no copy can point into its source.
struct InitialPacket {
  InitialPacket() = default;
  InitialPacket(InitialPacket&&) = default;
  InitialPacket& operator=(InitialPacket&&) = default;
  InitialPacket(const InitialPacket&) = delete;
  InitialPacket& operator=(const InitialPacket&) = delete;

  std::uint32_t version = kQuicVersion1;
  ByteView dcid;
  ByteView scid;
  ByteView token;
  std::uint64_t packet_number = 0;
  /// The packet with both protections removed: the header with its first
  /// byte and packet number unmasked (the AEAD's associated data), then the
  /// decrypted payload (no tag).
  Bytes cleartext;
  /// CRYPTO frame fragments carried by this packet: (stream offset, data).
  std::vector<std::pair<std::uint64_t, ByteView>> crypto_fragments;
};

/// Client Initial AEAD/HP key material derived from the DCID (RFC 9001 §5.2).
struct InitialKeys {
  std::array<std::uint8_t, 16> key;  // AES-128-GCM
  std::array<std::uint8_t, 12> iv;
  std::array<std::uint8_t, 16> hp;  // header protection
};

/// Allocation-free: HMAC pad states of the v1 salt are computed once per
/// process, those of the client secret once per call.
InitialKeys derive_client_initial_keys(ByteView dcid);

/// Builds the protected client Initial flight carrying `crypto_stream`
/// (a serialized TLS handshake message). Returns one or more UDP payloads;
/// every datagram is padded to `datagram_size` bytes (client stacks pad to
/// stack-specific sizes >= the RFC 9000 floor of 1200; values below the
/// floor are clamped up to it).
std::vector<Bytes> build_client_initial_flight(
    ByteView dcid, ByteView scid, ByteView crypto_stream,
    std::uint64_t first_packet_number = 0,
    std::size_t datagram_size = kMinInitialDatagram);

/// Removes protection from one client Initial datagram. Returns nullopt if
/// the datagram is not a v1 Initial, fails a header check that needs no key
/// (RFC 9000: under 1200 bytes, a connection ID over 20 bytes, a token or
/// Length field running past the datagram, no room for the header
/// protection sample), or fails authentication. Keys are derived only for
/// datagrams that pass the header checks.
std::optional<InitialPacket> unprotect_client_initial(
    ByteView datagram, crypto::AesKernel kernel = crypto::AesKernel::Auto);

/// Convenience for observers: feeds datagrams of one flow in any order and
/// reassembles the CRYPTO stream; callers typically stop as soon as a full
/// ClientHello parses.
class CryptoReassembler {
 public:
  /// Copies the packet's CRYPTO fragments and updates the contiguous
  /// prefix. Where fragments overlap, the one with the lowest stream offset
  /// wins (of equal offsets, the first to arrive): the prefix is only
  /// rebuilt when a fragment lands below its end, otherwise new bytes are
  /// appended.
  void add(const InitialPacket& packet);
  /// Contiguous prefix of the CRYPTO stream assembled so far (from offset
  /// 0 up to the first gap).
  const Bytes& contiguous_prefix() const { return prefix_; }

 private:
  std::vector<std::pair<std::uint64_t, Bytes>> fragments_;  // by offset
  Bytes prefix_;
};

/// True if the datagram looks like a QUIC v1 long-header Initial (cheap
/// pre-filter used by the pipeline before attempting decryption).
bool looks_like_initial(ByteView datagram);

}  // namespace vpscope::quic
