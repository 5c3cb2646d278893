#include "crypto/sha256.hpp"

#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VPSCOPE_X86 1
#else
#define VPSCOPE_X86 0
#endif

namespace vpscope::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

void compress_portable(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
           static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
           static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
           block[i * 4 + 3];
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if VPSCOPE_X86

// SHA-NI keeps the state as two vectors, ABEF and CDGH; each
// sha256rnds2 runs two rounds, and msg1/msg2 extend the message schedule
// four words at a time.
__attribute__((target("sha,ssse3,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* block) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xb1);
  __m128i state1 = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1b);
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);       // CDGH
  const __m128i abef = state0, cdgh = state1;

  // w[g % 4] holds schedule words 4g..4g+3 of group g.
  __m128i w[4];
#pragma GCC unroll 16
  for (int g = 0; g < 16; ++g) {
    if (g < 4) {
      w[g] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
          byte_swap);
    } else {
      __m128i x = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
      x = _mm_add_epi32(x, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
      w[g % 4] = _mm_sha256msg2_epu32(x, w[(g + 3) % 4]);
    }
    const __m128i wk = _mm_add_epi32(
        w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
    state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0e));
  }

  state0 = _mm_add_epi32(state0, abef);
  state1 = _mm_add_epi32(state1, cdgh);
  // Back from ABEF/CDGH to A..H word order.
  tmp = _mm_shuffle_epi32(state0, 0x1b);
  state1 = _mm_shuffle_epi32(state1, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, state1, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(state1, tmp, 8));
}

#endif  // VPSCOPE_X86

ShaKernel resolve_kernel(ShaKernel kernel) {
  if (kernel != ShaKernel::Auto) return kernel;
  static const ShaKernel best = sha_kernel_supported(ShaKernel::ShaNi)
                                    ? ShaKernel::ShaNi
                                    : ShaKernel::Portable;
  return best;
}

}  // namespace

bool sha_kernel_supported(ShaKernel kernel) {
  switch (kernel) {
    case ShaKernel::Auto:
    case ShaKernel::Portable:
      return true;
    case ShaKernel::ShaNi:
#if VPSCOPE_X86
      return __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
             __builtin_cpu_supports("sse4.1");
#else
      return false;
#endif
  }
  return false;
}

Sha256::Sha256(ShaKernel kernel)
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{},
      kernel_(resolve_kernel(kernel)) {
  if (!sha_kernel_supported(kernel_))
    throw std::invalid_argument("SHA-256: forced kernel unsupported on this CPU");
}

void Sha256::process_block(const std::uint8_t* block) {
#if VPSCOPE_X86
  if (kernel_ == ShaKernel::ShaNi) {
    compress_shani(state_.data(), block);
    return;
  }
#endif
  compress_portable(state_.data(), block);
}

void Sha256::update(ByteView data) {
  total_len_ += data.size();
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    const std::size_t need = kBlockSize - buffer_len_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos = take;
    if (buffer_len_ == kBlockSize) {
      process_block(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (data.size() - pos >= kBlockSize) {
    process_block(data.data() + pos);
    pos += kBlockSize;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_.data(), data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Padding: 0x80, zeros up to 8 bytes short of a block boundary, then the
  // 64-bit big-endian message length (one extra block if it does not fit).
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    process_block(buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (std::size_t i = 0; i < 8; ++i)
    buffer_[kBlockSize - 8 + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  process_block(buffer_.data());
  buffer_len_ = 0;

  std::array<std::uint8_t, kDigestSize> out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::digest(ByteView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

HmacSha256::HmacSha256(ByteView key, ShaKernel kernel)
    : inner_(kernel), outer_(kernel) {
  std::array<std::uint8_t, Sha256::kBlockSize> k_block{};
  if (key.size() > Sha256::kBlockSize) {
    Sha256 h(kernel);
    h.update(key);
    const auto digest = h.finish();
    std::memcpy(k_block.data(), digest.data(), digest.size());
  } else if (!key.empty()) {
    std::memcpy(k_block.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, Sha256::kBlockSize> ipad, opad;
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad[i] = k_block[i] ^ 0x36;
    opad[i] = k_block[i] ^ 0x5c;
  }
  inner_.update(ByteView{ipad.data(), ipad.size()});
  outer_.update(ByteView{opad.data(), opad.size()});
}

std::array<std::uint8_t, Sha256::kDigestSize> HmacSha256::mac(
    ByteView data) const {
  Sha256 inner = inner_;
  inner.update(data);
  const auto inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(ByteView{inner_digest.data(), inner_digest.size()});
  return outer.finish();
}

std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(ByteView key,
                                                          ByteView data) {
  return HmacSha256(key).mac(data);
}

}  // namespace vpscope::crypto
