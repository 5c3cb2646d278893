#include "quic/initial.hpp"

#include <algorithm>

#include "crypto/hkdf.hpp"
#include "crypto/sha256.hpp"
#include "quic/varint.hpp"

namespace vpscope::quic {

namespace {

// RFC 9001 §5.2: initial_salt for QUIC v1.
constexpr std::uint8_t kInitialSaltV1[] = {
    0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
    0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a};

constexpr std::uint8_t kFramePadding = 0x00;
constexpr std::uint8_t kFramePing = 0x01;
constexpr std::uint8_t kFrameCrypto = 0x06;

// We always encode the packet number in 4 bytes and the Length field as a
// 2-byte varint: both are choices real clients make for Initial packets and
// they keep offset arithmetic simple.
constexpr std::size_t kPnLen = 4;
constexpr std::size_t kTagLen = crypto::Aes128Gcm::kTagSize;
// RFC 9001 §5.4.2: the header protection sample starts 4 bytes past the
// start of the packet number field, whatever the packet number length.
constexpr std::size_t kSampleOffset = 4;
constexpr std::size_t kSampleLen = 16;
// A Length of at least kPnLen + kTagLen therefore covers the sample.
static_assert(kPnLen + kTagLen >= kSampleOffset + kSampleLen);

using Nonce = std::array<std::uint8_t, crypto::Aes128Gcm::kNonceSize>;

Nonce make_nonce(const std::array<std::uint8_t, 12>& iv,
                 std::uint64_t packet_number) {
  Nonce nonce = iv;
  for (std::size_t i = 0; i < 8; ++i)
    nonce[nonce.size() - 1 - i] ^= static_cast<std::uint8_t>(packet_number >> (8 * i));
  return nonce;
}

void put_varint_2byte(Writer& w, std::uint64_t v) {
  // Forced 2-byte encoding (RFC 9000 allows non-minimal varints for Length).
  w.u16(static_cast<std::uint16_t>(v | 0x4000));
}

/// A client Initial header that passed every check needing no key.
struct InitialHeader {
  std::uint8_t first_protected = 0;
  std::uint32_t version = 0;
  ByteView dcid;
  ByteView scid;
  ByteView token;
  std::size_t pn_offset = 0;
  std::size_t length = 0;  // Length field: packet number + payload + tag
};

std::optional<InitialHeader> parse_header(ByteView datagram) {
  if (!looks_like_initial(datagram)) return std::nullopt;
  // RFC 9000 §14.1: a client pads every Initial datagram to 1200 bytes.
  if (datagram.size() < kMinInitialDatagram) return std::nullopt;

  Reader r(datagram);
  InitialHeader h;
  h.first_protected = r.u8();
  h.version = r.u32();
  const std::uint8_t dcid_len = r.u8();
  if (dcid_len > kMaxConnectionIdLen) return std::nullopt;  // RFC 9000 §17.2
  h.dcid = r.view(dcid_len);
  const std::uint8_t scid_len = r.u8();
  if (scid_len > kMaxConnectionIdLen) return std::nullopt;
  h.scid = r.view(scid_len);
  const std::uint64_t token_len = get_varint(r);
  if (!r.ok() || token_len > r.remaining()) return std::nullopt;
  h.token = r.view(static_cast<std::size_t>(token_len));
  const std::uint64_t length = get_varint(r);
  if (!r.ok()) return std::nullopt;
  h.pn_offset = r.offset();
  // The Length field must fit the datagram and hold at least a 4-byte
  // packet number and the tag, so the header protection sample fits too.
  if (length > r.remaining() || length < kPnLen + kTagLen) return std::nullopt;
  h.length = static_cast<std::size_t>(length);
  return h;
}

/// Expanded AEAD and header-protection ciphers of one DCID.
struct InitialCipher {
  explicit InitialCipher(ByteView dcid,
                         crypto::AesKernel kernel = crypto::AesKernel::Auto)
      : InitialCipher(derive_client_initial_keys(dcid), kernel) {}

  /// Header unprotection, AEAD open and frame parse of one datagram whose
  /// header passed parse_header.
  std::optional<InitialPacket> open(ByteView datagram,
                                    const InitialHeader& h) const;

  crypto::Aes128Gcm aead;
  crypto::Aes128 hp;
  std::array<std::uint8_t, 12> iv;

 private:
  InitialCipher(const InitialKeys& keys, crypto::AesKernel kernel)
      : aead(keys.key, kernel), hp(keys.hp, kernel), iv(keys.iv) {}
};

std::optional<InitialPacket> InitialCipher::open(ByteView datagram,
                                                 const InitialHeader& h) const {
  std::array<std::uint8_t, kSampleLen> sample;
  std::copy_n(datagram.begin() + static_cast<std::ptrdiff_t>(h.pn_offset + kSampleOffset),
              kSampleLen, sample.begin());
  const auto mask = hp.encrypt_block(sample);

  const std::uint8_t first = h.first_protected ^ (mask[0] & 0x0f);
  const std::size_t pn_len = static_cast<std::size_t>(first & 0x03) + 1;
  const std::size_t header_len = h.pn_offset + pn_len;
  const ByteView sealed = datagram.subspan(header_len, h.length - pn_len);

  // One buffer: the unmasked header (associated data), then the payload.
  Bytes cleartext(header_len + sealed.size() - kTagLen);
  std::copy_n(datagram.begin(), header_len, cleartext.begin());
  cleartext[0] = first;
  std::uint64_t pn = 0;
  for (std::size_t i = 0; i < pn_len; ++i) {
    const std::uint8_t b = datagram[h.pn_offset + i] ^ mask[i + 1];
    cleartext[h.pn_offset + i] = b;
    pn = pn << 8 | b;
  }
  // No packet-number recovery against a larger expected window is needed:
  // Initials arrive with tiny PNs and we always observe from packet 0.

  const std::span<std::uint8_t> buffer{cleartext};
  if (!aead.open_into(make_nonce(iv, pn), buffer.first(header_len), sealed,
                      buffer.subspan(header_len)))
    return std::nullopt;

  InitialPacket out;
  out.version = h.version;
  out.dcid = h.dcid;
  out.scid = h.scid;
  out.token = h.token;
  out.packet_number = pn;
  out.cleartext = std::move(cleartext);

  const ByteView payload = ByteView{out.cleartext}.subspan(header_len);
  Reader fr(payload);
  while (!fr.empty()) {
    const std::uint8_t type = fr.u8();
    if (!fr.ok()) break;
    if (type == kFramePadding) {
      // Padding fills most of an Initial: skip the whole run in one scan.
      const auto rest = payload.subspan(fr.offset());
      fr.skip(static_cast<std::size_t>(
          std::find_if(rest.begin(), rest.end(), [](std::uint8_t b) { return b != 0; }) -
          rest.begin()));
      continue;
    }
    if (type == kFramePing) continue;
    if (type == kFrameCrypto) {
      const std::uint64_t off = get_varint(fr);
      const std::uint64_t len = get_varint(fr);
      if (!fr.ok()) return std::nullopt;
      const ByteView data = fr.view(static_cast<std::size_t>(len));
      if (!fr.ok()) return std::nullopt;
      out.crypto_fragments.emplace_back(off, data);
    } else {
      // Unknown frame in an Initial we synthesized ourselves: treat as
      // malformed rather than guessing its length encoding.
      return std::nullopt;
    }
  }
  return out;
}

}  // namespace

InitialKeys derive_client_initial_keys(ByteView dcid) {
  // HMAC keyed with the constant salt: its pad blocks are absorbed once.
  static const crypto::HmacSha256 salt{ByteView{kInitialSaltV1}};
  const auto initial_secret = salt.mac(dcid);  // HKDF-Extract
  std::array<std::uint8_t, 32> client_secret;
  crypto::hkdf_expand_label(crypto::HmacSha256{initial_secret}, "client in",
                            client_secret);
  const crypto::HmacSha256 client{client_secret};
  InitialKeys keys;
  crypto::hkdf_expand_label(client, "quic key", keys.key);
  crypto::hkdf_expand_label(client, "quic iv", keys.iv);
  crypto::hkdf_expand_label(client, "quic hp", keys.hp);
  return keys;
}

std::vector<Bytes> build_client_initial_flight(
    ByteView dcid, ByteView scid, ByteView crypto_stream,
    std::uint64_t first_packet_number, std::size_t datagram_size) {
  const InitialCipher cipher(dcid);

  const std::size_t target = std::max(datagram_size, kMinInitialDatagram);
  // Per-datagram budget for CRYPTO payload. Header:
  // 1 (first byte) + 4 (version) + 1 + dcid + 1 + scid + 1 (token len 0)
  // + 2 (length varint) + 4 (packet number); plus 16 B AEAD tag.
  const std::size_t header_len = 1 + 4 + 1 + dcid.size() + 1 + scid.size() +
                                 1 + 2 + kPnLen;
  const std::size_t max_plain = target - header_len - kTagLen;

  std::vector<Bytes> datagrams;
  std::size_t offset = 0;
  std::uint64_t pn = first_packet_number;
  do {
    // CRYPTO frame header: type(1) + offset varint + length varint(2-byte).
    Writer plain;
    const std::size_t frame_overhead = 1 + varint_size(offset) + 2;
    const std::size_t chunk =
        std::min(crypto_stream.size() - offset, max_plain - frame_overhead);
    plain.u8(kFrameCrypto);
    put_varint(plain, offset);
    put_varint_2byte(plain, chunk);
    plain.raw(crypto_stream.subspan(offset, chunk));
    offset += chunk;
    // Pad the plaintext so the datagram reaches the 1200-byte floor.
    while (plain.size() < max_plain) plain.u8(kFramePadding);

    // Header (AAD) with the *unprotected* first byte and packet number.
    Writer hdr;
    hdr.u8(0xc0 | (kPnLen - 1));  // long header, fixed bit, Initial, pn len
    hdr.u32(kQuicVersion1);
    hdr.u8(static_cast<std::uint8_t>(dcid.size()));
    hdr.raw(dcid);
    hdr.u8(static_cast<std::uint8_t>(scid.size()));
    hdr.raw(scid);
    put_varint(hdr, 0);  // token length (client Initials carry none here)
    put_varint_2byte(hdr, kPnLen + plain.size() + kTagLen);  // Length field
    const std::size_t pn_offset = hdr.size();
    hdr.u32(static_cast<std::uint32_t>(pn));

    // Seal the payload straight behind the header.
    Bytes packet = std::move(hdr).take();
    const std::size_t aad_len = packet.size();
    packet.resize(aad_len + plain.size() + kTagLen);
    const std::span<std::uint8_t> buffer{packet};
    cipher.aead.seal_into(make_nonce(cipher.iv, pn), buffer.first(aad_len),
                          plain.data(), buffer.subspan(aad_len));

    // Header protection (RFC 9001 §5.4): sample 16 bytes starting 4 bytes
    // past the packet number start, mask the first byte's low nibble and
    // the packet number bytes.
    std::array<std::uint8_t, kSampleLen> sample;
    std::copy_n(packet.begin() + static_cast<std::ptrdiff_t>(pn_offset + kSampleOffset),
                kSampleLen, sample.begin());
    const auto mask = cipher.hp.encrypt_block(sample);
    packet[0] ^= mask[0] & 0x0f;
    for (std::size_t i = 0; i < kPnLen; ++i) packet[pn_offset + i] ^= mask[i + 1];

    datagrams.push_back(std::move(packet));
    ++pn;
  } while (offset < crypto_stream.size());
  return datagrams;
}

bool looks_like_initial(ByteView datagram) {
  if (datagram.size() < 7) return false;
  const std::uint8_t first = datagram[0];
  if ((first & 0x80) == 0) return false;  // not long header
  if ((first & 0x30) != 0x00) return false;  // not Initial
  const std::uint32_t version = static_cast<std::uint32_t>(datagram[1]) << 24 |
                                static_cast<std::uint32_t>(datagram[2]) << 16 |
                                static_cast<std::uint32_t>(datagram[3]) << 8 |
                                datagram[4];
  return version == kQuicVersion1;
}

std::optional<InitialPacket> unprotect_client_initial(ByteView datagram,
                                                      crypto::AesKernel kernel) {
  const auto header = parse_header(datagram);
  if (!header) return std::nullopt;
  return InitialCipher(header->dcid, kernel).open(datagram, *header);
}

void CryptoReassembler::add(const InitialPacket& packet) {
  bool rebuild = false;
  for (const auto& [off, data] : packet.crypto_fragments) {
    rebuild |= off < prefix_.size();
    const auto at = std::upper_bound(
        fragments_.begin(), fragments_.end(), off,
        [](std::uint64_t o, const auto& f) { return o < f.first; });
    fragments_.emplace(at, off, Bytes(data.begin(), data.end()));
  }
  // Fold the fragments in offset order. Without a rebuild every fragment
  // already folded ends at or before the prefix's end and is skipped.
  if (rebuild) prefix_.clear();
  for (const auto& [off, data] : fragments_) {
    if (off > prefix_.size()) break;                    // gap
    if (off + data.size() <= prefix_.size()) continue;  // fully held
    const std::size_t skip = prefix_.size() - static_cast<std::size_t>(off);
    prefix_.insert(prefix_.end(), data.begin() + static_cast<std::ptrdiff_t>(skip),
                   data.end());
  }
}

}  // namespace vpscope::quic
