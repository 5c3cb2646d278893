#include "support/crypto_oracle.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace vpscope::crypto::oracle {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

inline std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

using Block = std::array<std::uint8_t, 16>;

std::array<std::uint8_t, 176> expand_key(ByteView key) {
  std::array<std::uint8_t, 176> rk{};
  std::memcpy(rk.data(), key.data(), 16);
  for (std::size_t i = 4; i < 44; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, rk.data() + (i - 1) * 4, 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4 - 1]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (std::size_t j = 0; j < 4; ++j) rk[i * 4 + j] = rk[(i - 4) * 4 + j] ^ temp[j];
  }
  return rk;
}

void encrypt(const std::array<std::uint8_t, 176>& rk, std::uint8_t* block) {
  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i)
      block[i] ^= rk[static_cast<std::size_t>(round * 16 + i)];
  };
  auto sub_bytes = [&] {
    for (int i = 0; i < 16; ++i) block[i] = kSbox[block[i]];
  };
  auto shift_rows = [&] {
    std::uint8_t t;
    // row 1: rotate left by 1
    t = block[1];
    block[1] = block[5];
    block[5] = block[9];
    block[9] = block[13];
    block[13] = t;
    // row 2: rotate left by 2
    std::swap(block[2], block[10]);
    std::swap(block[6], block[14]);
    // row 3: rotate left by 3
    t = block[15];
    block[15] = block[11];
    block[11] = block[7];
    block[7] = block[3];
    block[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = block + c * 4;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
      col[0] = static_cast<std::uint8_t>(a0 ^ all ^ xtime(static_cast<std::uint8_t>(a0 ^ a1)));
      col[1] = static_cast<std::uint8_t>(a1 ^ all ^ xtime(static_cast<std::uint8_t>(a1 ^ a2)));
      col[2] = static_cast<std::uint8_t>(a2 ^ all ^ xtime(static_cast<std::uint8_t>(a2 ^ a3)));
      col[3] = static_cast<std::uint8_t>(a3 ^ all ^ xtime(static_cast<std::uint8_t>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (int round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
}

// GF(2^128) multiplication for GHASH, one bit of x per step.
Block gf128_mul(const Block& x, const Block& y) {
  Block z{};
  Block v = y;
  for (int i = 0; i < 128; ++i) {
    const auto byte = static_cast<std::size_t>(i / 8);
    const int bit = 7 - (i % 8);
    if ((x[byte] >> bit) & 1) {
      for (std::size_t j = 0; j < 16; ++j) z[j] ^= v[j];
    }
    // v = v >> 1 (in GHASH bit order), with reduction by R = 0xe1...
    const bool lsb = v[15] & 1;
    for (std::size_t j = 15; j > 0; --j)
      v[j] = static_cast<std::uint8_t>((v[j] >> 1) | (v[j - 1] << 7));
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  return z;
}

void ghash_update(Block& y, const Block& h, ByteView data) {
  for (std::size_t pos = 0; pos < data.size(); pos += 16) {
    const std::size_t take = std::min<std::size_t>(16, data.size() - pos);
    for (std::size_t i = 0; i < take; ++i) y[i] ^= data[pos + i];
    y = gf128_mul(y, h);
  }
}

Block ghash(const Block& h, ByteView aad, ByteView ciphertext) {
  Block y{};
  ghash_update(y, h, aad);
  ghash_update(y, h, ciphertext);
  Block lengths{};
  const std::uint64_t aad_bits = aad.size() * 8;
  const std::uint64_t ct_bits = ciphertext.size() * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    lengths[i] = static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i));
    lengths[8 + i] = static_cast<std::uint8_t>(ct_bits >> (56 - 8 * i));
  }
  ghash_update(y, h, lengths);
  return y;
}

// J0 = nonce || 1; the payload uses counters 2, 3, ...
void ctr_xor(const std::array<std::uint8_t, 176>& rk, ByteView nonce, Bytes& data) {
  std::uint32_t ctr = 2;
  for (std::size_t pos = 0; pos < data.size(); pos += 16, ++ctr) {
    Block block{};
    std::memcpy(block.data(), nonce.data(), 12);
    for (std::size_t i = 0; i < 4; ++i)
      block[12 + i] = static_cast<std::uint8_t>(ctr >> (24 - 8 * i));
    encrypt(rk, block.data());
    const std::size_t take = std::min<std::size_t>(16, data.size() - pos);
    for (std::size_t i = 0; i < take; ++i) data[pos + i] ^= block[i];
  }
}

Block tag_of(const std::array<std::uint8_t, 176>& rk, ByteView nonce, ByteView aad,
             ByteView ciphertext) {
  Block h{};
  encrypt(rk, h.data());
  Block j0{};
  std::memcpy(j0.data(), nonce.data(), 12);
  j0[15] = 1;
  encrypt(rk, j0.data());
  Block s = ghash(h, aad, ciphertext);
  for (std::size_t i = 0; i < 16; ++i) s[i] ^= j0[i];
  return s;
}

}  // namespace

std::array<std::uint8_t, 16> aes128_encrypt(ByteView key, const Block& block) {
  Block out = block;
  encrypt(expand_key(key), out.data());
  return out;
}

Bytes gcm_seal(ByteView key, ByteView nonce, ByteView aad, ByteView plaintext) {
  const auto rk = expand_key(key);
  Bytes out(plaintext.begin(), plaintext.end());
  ctr_xor(rk, nonce, out);
  const Block tag = tag_of(rk, nonce, aad, out);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<Bytes> gcm_open(ByteView key, ByteView nonce, ByteView aad,
                              ByteView ciphertext_and_tag) {
  if (ciphertext_and_tag.size() < 16) return std::nullopt;
  const ByteView ciphertext = ciphertext_and_tag.first(ciphertext_and_tag.size() - 16);
  const auto rk = expand_key(key);
  const Block tag = tag_of(rk, nonce, aad, ciphertext);
  if (!std::equal(tag.begin(), tag.end(), ciphertext_and_tag.last(16).begin()))
    return std::nullopt;
  Bytes out(ciphertext.begin(), ciphertext.end());
  ctr_xor(rk, nonce, out);
  return out;
}

}  // namespace vpscope::crypto::oracle
