#include "crypto/hkdf.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

namespace vpscope::crypto {

namespace {

constexpr std::string_view kLabelPrefix = "tls13 ";

// struct HkdfLabel { uint16 length; opaque label<7..255>; opaque context<0..255>; }
// written into `out`; returns its size.
std::size_t write_hkdf_label(std::size_t length, std::string_view label,
                             ByteView context, std::uint8_t* out) {
  std::size_t n = 0;
  out[n++] = static_cast<std::uint8_t>(length >> 8);
  out[n++] = static_cast<std::uint8_t>(length);
  out[n++] = static_cast<std::uint8_t>(kLabelPrefix.size() + label.size());
  std::memcpy(out + n, kLabelPrefix.data(), kLabelPrefix.size());
  n += kLabelPrefix.size();
  std::copy(label.begin(), label.end(), out + n);
  n += label.size();
  out[n++] = static_cast<std::uint8_t>(context.size());
  std::copy(context.begin(), context.end(), out + n);
  return n + context.size();
}

constexpr std::size_t kMaxLabel = 255 - kLabelPrefix.size();
// HkdfLabel with the longest label and context, plus the HKDF counter byte.
constexpr std::size_t kMaxInfo = 2 + 1 + 255 + 1 + 255 + 1;

}  // namespace

Bytes hkdf_extract(ByteView salt, ByteView ikm) {
  const auto prk = hmac_sha256(salt, ikm);
  return Bytes(prk.begin(), prk.end());
}

Bytes hkdf_expand(ByteView prk, ByteView info, std::size_t length) {
  if (length > 255 * Sha256::kDigestSize)
    throw std::invalid_argument("hkdf_expand: length too large");
  const HmacSha256 mac(prk);
  Bytes okm;
  okm.reserve(length);
  Bytes block;  // T(i-1) || info || counter
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    const auto t = mac.mac(block);
    const std::size_t take = std::min(t.size(), length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
    block.assign(t.begin(), t.end());
  }
  return okm;
}

Bytes hkdf_expand_label(ByteView secret, std::string_view label,
                        ByteView context, std::size_t length) {
  if (label.size() > kMaxLabel || context.size() > 255)
    throw std::invalid_argument("hkdf_expand_label: label or context too long");
  std::array<std::uint8_t, kMaxInfo> info;
  const std::size_t n = write_hkdf_label(length, label, context, info.data());
  return hkdf_expand(secret, ByteView{info.data(), n}, length);
}

void hkdf_expand_label(const HmacSha256& secret, std::string_view label,
                       std::span<std::uint8_t> out) {
  if (out.size() > Sha256::kDigestSize || label.size() > kMaxLabel)
    throw std::invalid_argument("hkdf_expand_label: output or label too long");
  // One block: T(1) = HMAC(secret, HkdfLabel || 0x01).
  std::array<std::uint8_t, kMaxInfo> info;
  std::size_t n = write_hkdf_label(out.size(), label, {}, info.data());
  info[n++] = 1;
  const auto t = secret.mac(ByteView{info.data(), n});
  std::memcpy(out.data(), t.data(), out.size());
}

}  // namespace vpscope::crypto
