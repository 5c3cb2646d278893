#include "crypto/aes.hpp"

#include <algorithm>
#include <bit>
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

constexpr std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// kTe[x] is SubBytes then MixColumns of byte x entering row 0 of a column,
// as a big-endian column word (2·S[x], S[x], S[x], 3·S[x]). A byte entering
// row r contributes the same word rotated right by 8·r bits.
constexpr std::array<std::uint32_t, 256> make_te() {
  std::array<std::uint32_t, 256> t{};
  for (std::size_t i = 0; i < 256; ++i) {
    const std::uint8_t s = kSbox[i];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    t[i] = static_cast<std::uint32_t>(s2) << 24 |
           static_cast<std::uint32_t>(s) << 16 |
           static_cast<std::uint32_t>(s) << 8 | s3;
  }
  return t;
}
constexpr std::array<std::uint32_t, 256> kTe = make_te();

// GHASH reduction constants for the 4-bit table walk: the bits shifted out
// of the low end, folded back by R = 0xe1 || 0^120.
constexpr std::uint64_t kRem4[16] = {
    0x0000ULL << 48, 0x1c20ULL << 48, 0x3840ULL << 48, 0x2460ULL << 48,
    0x7080ULL << 48, 0x6ca0ULL << 48, 0x48c0ULL << 48, 0x54e0ULL << 48,
    0xe100ULL << 48, 0xfd20ULL << 48, 0xd940ULL << 48, 0xc560ULL << 48,
    0x9180ULL << 48, 0x8da0ULL << 48, 0xa9c0ULL << 48, 0xb5e0ULL << 48};

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | p[3];
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline std::uint64_t load_be64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_be32(p)) << 32 | load_be32(p + 4);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

// Bit-length block closing GHASH: len(A) || len(C) in bits, big-endian.
std::array<std::uint8_t, 16> length_block(std::size_t aad_n, std::size_t ct_n) {
  std::array<std::uint8_t, 16> b;
  store_be64(b.data(), static_cast<std::uint64_t>(aad_n) * 8);
  store_be64(b.data() + 8, static_cast<std::uint64_t>(ct_n) * 8);
  return b;
}

// ---- Portable kernel: T-table AES, Shoup 4-bit GHASH ----

void encrypt_portable(const std::uint8_t* rk, const std::uint8_t* in,
                      std::uint8_t* out) {
  std::uint32_t s0 = load_be32(in) ^ load_be32(rk);
  std::uint32_t s1 = load_be32(in + 4) ^ load_be32(rk + 4);
  std::uint32_t s2 = load_be32(in + 8) ^ load_be32(rk + 8);
  std::uint32_t s3 = load_be32(in + 12) ^ load_be32(rk + 12);
  // Column c of the next state takes row r from column c + r (ShiftRows).
  const auto column = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                         std::uint32_t d, const std::uint8_t* k) {
    return kTe[a >> 24] ^ std::rotr(kTe[(b >> 16) & 0xff], 8) ^
           std::rotr(kTe[(c >> 8) & 0xff], 16) ^ std::rotr(kTe[d & 0xff], 24) ^
           load_be32(k);
  };
  for (int round = 1; round < 10; ++round) {
    const std::uint8_t* k = rk + 16 * round;
    const std::uint32_t t0 = column(s0, s1, s2, s3, k);
    const std::uint32_t t1 = column(s1, s2, s3, s0, k + 4);
    const std::uint32_t t2 = column(s2, s3, s0, s1, k + 8);
    const std::uint32_t t3 = column(s3, s0, s1, s2, k + 12);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  // Last round: SubBytes and ShiftRows only.
  const auto last = [](std::uint32_t a, std::uint32_t b, std::uint32_t c,
                       std::uint32_t d, const std::uint8_t* k) {
    return (static_cast<std::uint32_t>(kSbox[a >> 24]) << 24 |
            static_cast<std::uint32_t>(kSbox[(b >> 16) & 0xff]) << 16 |
            static_cast<std::uint32_t>(kSbox[(c >> 8) & 0xff]) << 8 |
            kSbox[d & 0xff]) ^
           load_be32(k);
  };
  const std::uint8_t* k = rk + 160;
  store_be32(out, last(s0, s1, s2, s3, k));
  store_be32(out + 4, last(s1, s2, s3, s0, k + 4));
  store_be32(out + 8, last(s2, s3, s0, s1, k + 8));
  store_be32(out + 12, last(s3, s0, s1, s2, k + 12));
}

void ctr_xor_portable(const std::uint8_t* rk, const std::uint8_t* j0,
                      const std::uint8_t* in, std::uint8_t* out,
                      std::size_t n) {
  std::uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  std::uint32_t ctr = load_be32(j0 + 12);
  std::uint8_t keystream[16];
  for (std::size_t pos = 0; pos < n; pos += 16) {
    store_be32(counter + 12, ++ctr);
    encrypt_portable(rk, counter, keystream);
    const std::size_t take = std::min<std::size_t>(16, n - pos);
    for (std::size_t i = 0; i < take; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
  }
}

using HTable = std::array<std::array<std::uint64_t, 2>, 16>;

// y = y·H, walking y a nibble at a time from its last byte (Shoup's
// method): Z = Z·x^4 + nibble·H per step. Z starts at zero, so the first
// multiply by x^4 is a no-op.
void gmult_4bit(std::uint8_t y[16], const HTable& t) {
  std::uint64_t zh = 0, zl = 0;
  for (int i = 15; i >= 0; --i) {
    for (const unsigned nibble : {y[i] & 0x0fu, static_cast<unsigned>(y[i] >> 4)}) {
      const std::uint64_t rem = zl & 0x0f;
      zl = zh << 60 | zl >> 4;
      zh = (zh >> 4) ^ kRem4[rem];
      zh ^= t[nibble][0];
      zl ^= t[nibble][1];
    }
  }
  store_be64(y, zh);
  store_be64(y + 8, zl);
}

void ghash_blocks_portable(const HTable& t, std::uint8_t y[16],
                           const std::uint8_t* data, std::size_t n) {
  for (std::size_t pos = 0; pos < n; pos += 16) {
    const std::size_t take = std::min<std::size_t>(16, n - pos);
    for (std::size_t i = 0; i < take; ++i) y[i] ^= data[pos + i];
    gmult_4bit(y, t);
  }
}

void ghash_portable(const HTable& t, ByteView aad, ByteView ct,
                    std::uint8_t out[16]) {
  std::memset(out, 0, 16);
  ghash_blocks_portable(t, out, aad.data(), aad.size());
  ghash_blocks_portable(t, out, ct.data(), ct.size());
  const auto lengths = length_block(aad.size(), ct.size());
  ghash_blocks_portable(t, out, lengths.data(), lengths.size());
}

HTable make_htable(const std::array<std::uint8_t, 16>& h) {
  HTable t{};
  std::uint64_t vh = load_be64(h.data()), vl = load_be64(h.data() + 8);
  // Entry 8 is H itself (the top bit of a nibble is x^0 in GHASH order);
  // 4, 2, 1 are H·x, H·x^2, H·x^3; the rest are XOR combinations.
  for (std::size_t i = 8; i > 0; i >>= 1) {
    t[i] = {vh, vl};
    const std::uint64_t reduce = 0xe100000000000000ULL & (0 - (vl & 1));
    vl = vh << 63 | vl >> 1;
    vh = (vh >> 1) ^ reduce;
  }
  for (std::size_t i = 2; i < 16; i <<= 1)
    for (std::size_t j = 1; j < i; ++j)
      t[i + j] = {t[i][0] ^ t[j][0], t[i][1] ^ t[j][1]};
  return t;
}

// ---- x86 kernel: AES-NI rounds, PCLMULQDQ GHASH ----

#if VPSCOPE_X86

#define VPSCOPE_AESNI __attribute__((target("aes,pclmul,ssse3")))

VPSCOPE_AESNI inline __m128i loadu(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

VPSCOPE_AESNI inline void storeu(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

VPSCOPE_AESNI inline __m128i byte_reverse(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

VPSCOPE_AESNI void encrypt_aesni(const std::uint8_t* rk, const std::uint8_t* in,
                                 std::uint8_t* out) {
  __m128i m = _mm_xor_si128(loadu(in), loadu(rk));
  for (int round = 1; round < 10; ++round)
    m = _mm_aesenc_si128(m, loadu(rk + 16 * round));
  storeu(out, _mm_aesenclast_si128(m, loadu(rk + 160)));
}

VPSCOPE_AESNI void ctr_xor_aesni(const std::uint8_t* rk_bytes,
                                 const std::uint8_t* j0,
                                 const std::uint8_t* in, std::uint8_t* out,
                                 std::size_t n) {
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) rk[r] = loadu(rk_bytes + 16 * r);
  // Byte-reversed, the big-endian 32-bit counter of J0 sits in lane 0 as a
  // little-endian word, so inc32 is one lane-wise add (mod 2^32).
  __m128i ctr = byte_reverse(loadu(j0));
  const __m128i one = _mm_set_epi32(0, 0, 0, 1);
  const auto next = [&] {
    ctr = _mm_add_epi32(ctr, one);
    return _mm_xor_si128(byte_reverse(ctr), rk[0]);
  };
  std::size_t pos = 0;
  // Four independent blocks per round hide the aesenc latency.
  for (; pos + 64 <= n; pos += 64) {
    __m128i b0 = next(), b1 = next(), b2 = next(), b3 = next();
    for (int r = 1; r < 10; ++r) {
      b0 = _mm_aesenc_si128(b0, rk[r]);
      b1 = _mm_aesenc_si128(b1, rk[r]);
      b2 = _mm_aesenc_si128(b2, rk[r]);
      b3 = _mm_aesenc_si128(b3, rk[r]);
    }
    storeu(out + pos, _mm_xor_si128(loadu(in + pos), _mm_aesenclast_si128(b0, rk[10])));
    storeu(out + pos + 16,
           _mm_xor_si128(loadu(in + pos + 16), _mm_aesenclast_si128(b1, rk[10])));
    storeu(out + pos + 32,
           _mm_xor_si128(loadu(in + pos + 32), _mm_aesenclast_si128(b2, rk[10])));
    storeu(out + pos + 48,
           _mm_xor_si128(loadu(in + pos + 48), _mm_aesenclast_si128(b3, rk[10])));
  }
  for (; pos < n; pos += 16) {
    __m128i b = next();
    for (int r = 1; r < 10; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[10]);
    if (n - pos >= 16) {
      storeu(out + pos, _mm_xor_si128(loadu(in + pos), b));
    } else {
      std::uint8_t keystream[16];
      storeu(keystream, b);
      for (std::size_t i = 0; i < n - pos; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
    }
  }
}

// GF(2^128) products on byte-reversed operands (Gueron & Kounavis,
// Algorithms 1 and 5): a 256-bit carry-less product, shifted left one bit
// (GHASH's reflected bit order), reduced modulo x^128 + x^7 + x^2 + x + 1.
// Shift and reduction are linear, so several products can be summed first
// and reduced once.
VPSCOPE_AESNI inline void clmul_wide(__m128i a, __m128i b, __m128i& lo,
                                     __m128i& hi) {
  const __m128i mid = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x10),
                                    _mm_clmulepi64_si128(a, b, 0x01));
  lo = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x00), _mm_slli_si128(mid, 8));
  hi = _mm_xor_si128(_mm_clmulepi64_si128(a, b, 0x11), _mm_srli_si128(mid, 8));
}

VPSCOPE_AESNI inline __m128i reduce_wide(__m128i lo, __m128i hi) {
  // Shift the 256-bit product hi:lo left by one bit.
  const __m128i lo_carry = _mm_srli_epi32(lo, 31);
  const __m128i hi_carry = _mm_srli_epi32(hi, 31);
  lo = _mm_or_si128(_mm_slli_epi32(lo, 1), _mm_slli_si128(lo_carry, 4));
  hi = _mm_or_si128(_mm_slli_epi32(hi, 1), _mm_slli_si128(hi_carry, 4));
  hi = _mm_or_si128(hi, _mm_srli_si128(lo_carry, 12));

  // Reduce: fold lo into hi.
  const __m128i t = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  const __m128i t_hi = _mm_srli_si128(t, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(t, 12));
  __m128i u = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_srli_epi32(lo, 7));
  u = _mm_xor_si128(u, t_hi);
  return _mm_xor_si128(hi, _mm_xor_si128(lo, u));
}

VPSCOPE_AESNI inline __m128i gfmul(__m128i a, __m128i b) {
  __m128i lo, hi;
  clmul_wide(a, b, lo, hi);
  return reduce_wide(lo, hi);
}

/// Byte-reversed H, H^2, H^3, H^4 for the four-block GHASH loop.
VPSCOPE_AESNI void clmul_powers(const std::uint8_t* h_bytes, std::uint8_t* out) {
  const __m128i h = byte_reverse(loadu(h_bytes));
  __m128i p = h;
  for (int i = 0; i < 4; ++i) {
    storeu(out + 16 * i, p);
    p = gfmul(p, h);
  }
}

VPSCOPE_AESNI __m128i ghash_blocks_clmul(__m128i x, const __m128i* hpow,
                                         const std::uint8_t* data,
                                         std::size_t n) {
  std::size_t pos = 0;
  // Four blocks per reduction: x' = (x + b0)·H^4 + b1·H^3 + b2·H^2 + b3·H.
  for (; pos + 64 <= n; pos += 64) {
    __m128i lo, hi, lo_i, hi_i;
    clmul_wide(_mm_xor_si128(x, byte_reverse(loadu(data + pos))), hpow[3], lo, hi);
    for (int i = 1; i < 4; ++i) {
      clmul_wide(byte_reverse(loadu(data + pos + 16 * i)), hpow[3 - i], lo_i, hi_i);
      lo = _mm_xor_si128(lo, lo_i);
      hi = _mm_xor_si128(hi, hi_i);
    }
    x = reduce_wide(lo, hi);
  }
  for (; pos + 16 <= n; pos += 16)
    x = gfmul(_mm_xor_si128(x, byte_reverse(loadu(data + pos))), hpow[0]);
  if (pos < n) {
    std::uint8_t block[16] = {};
    std::memcpy(block, data + pos, n - pos);
    x = gfmul(_mm_xor_si128(x, byte_reverse(loadu(block))), hpow[0]);
  }
  return x;
}

VPSCOPE_AESNI void ghash_clmul(const std::uint8_t* hpow_bytes, ByteView aad,
                               ByteView ct, std::uint8_t out[16]) {
  __m128i hpow[4];
  for (int i = 0; i < 4; ++i) hpow[i] = loadu(hpow_bytes + 16 * i);
  __m128i x = _mm_setzero_si128();
  x = ghash_blocks_clmul(x, hpow, aad.data(), aad.size());
  x = ghash_blocks_clmul(x, hpow, ct.data(), ct.size());
  const auto lengths = length_block(aad.size(), ct.size());
  x = ghash_blocks_clmul(x, hpow, lengths.data(), lengths.size());
  storeu(out, byte_reverse(x));
}

#endif  // VPSCOPE_X86

AesKernel resolve_kernel(AesKernel kernel) {
  if (kernel != AesKernel::Auto) return kernel;
  static const AesKernel best = aes_kernel_supported(AesKernel::AesNi)
                                    ? AesKernel::AesNi
                                    : AesKernel::Portable;
  return best;
}

}  // namespace

bool aes_kernel_supported(AesKernel kernel) {
  switch (kernel) {
    case AesKernel::Auto:
    case AesKernel::Portable:
      return true;
    case AesKernel::AesNi:
#if VPSCOPE_X86
      return __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
             __builtin_cpu_supports("ssse3");
#else
      return false;
#endif
  }
  return false;
}

Aes128::Aes128(ByteView key, AesKernel kernel) : kernel_(resolve_kernel(kernel)) {
  if (key.size() != kKeySize) throw std::invalid_argument("AES-128 key size");
  if (!aes_kernel_supported(kernel_))
    throw std::invalid_argument("AES-128: forced kernel unsupported on this CPU");
  std::memcpy(round_keys_.data(), key.data(), kKeySize);
  for (std::size_t i = 4; i < 44; ++i) {
    std::uint8_t temp[4];
    std::memcpy(temp, round_keys_.data() + (i - 1) * 4, 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon
      const std::uint8_t t0 = temp[0];
      temp[0] = static_cast<std::uint8_t>(kSbox[temp[1]] ^ kRcon[i / 4 - 1]);
      temp[1] = kSbox[temp[2]];
      temp[2] = kSbox[temp[3]];
      temp[3] = kSbox[t0];
    }
    for (std::size_t j = 0; j < 4; ++j)
      round_keys_[i * 4 + j] = round_keys_[(i - 4) * 4 + j] ^ temp[j];
  }
}

void Aes128::encrypt_block(std::uint8_t block[kBlockSize]) const {
#if VPSCOPE_X86
  if (kernel_ == AesKernel::AesNi) {
    encrypt_aesni(round_keys_.data(), block, block);
    return;
  }
#endif
  encrypt_portable(round_keys_.data(), block, block);
}

std::array<std::uint8_t, Aes128::kBlockSize> Aes128::encrypt_block(
    const std::array<std::uint8_t, kBlockSize>& block) const {
  std::array<std::uint8_t, kBlockSize> out = block;
  encrypt_block(out.data());
  return out;
}

Aes128Gcm::Aes128Gcm(ByteView key, AesKernel kernel) : aes_(key, kernel) {
  const auto h = aes_.encrypt_block(std::array<std::uint8_t, 16>{});
#if VPSCOPE_X86
  if (aes_.kernel_ == AesKernel::AesNi) {
    clmul_powers(h.data(), hpow_.data());
    return;
  }
#endif
  htable_ = make_htable(h);
}

std::array<std::uint8_t, 16> Aes128Gcm::ghash(ByteView aad,
                                              ByteView ciphertext) const {
  std::array<std::uint8_t, 16> s;
#if VPSCOPE_X86
  if (aes_.kernel_ == AesKernel::AesNi) {
    ghash_clmul(hpow_.data(), aad, ciphertext, s.data());
    return s;
  }
#endif
  ghash_portable(htable_, aad, ciphertext, s.data());
  return s;
}

void Aes128Gcm::ctr_xor(const std::array<std::uint8_t, 16>& j0,
                        const std::uint8_t* in, std::uint8_t* out,
                        std::size_t n) const {
#if VPSCOPE_X86
  if (aes_.kernel_ == AesKernel::AesNi) {
    ctr_xor_aesni(aes_.round_keys_.data(), j0.data(), in, out, n);
    return;
  }
#endif
  ctr_xor_portable(aes_.round_keys_.data(), j0.data(), in, out, n);
}

namespace {

// J0 = nonce || 0x00000001 for 96-bit nonces.
std::array<std::uint8_t, 16> make_j0(ByteView nonce) {
  std::array<std::uint8_t, 16> j0{};
  std::memcpy(j0.data(), nonce.data(), Aes128Gcm::kNonceSize);
  j0[15] = 1;
  return j0;
}

}  // namespace

void Aes128Gcm::seal_into(ByteView nonce, ByteView aad, ByteView plaintext,
                          std::span<std::uint8_t> out) const {
  if (nonce.size() != kNonceSize)
    throw std::invalid_argument("GCM nonce must be 12 bytes");
  if (out.size() != plaintext.size() + kTagSize)
    throw std::invalid_argument("GCM seal output must be plaintext + 16 bytes");
  const auto j0 = make_j0(nonce);
  ctr_xor(j0, plaintext.data(), out.data(), plaintext.size());
  const auto s = ghash(aad, out.first(plaintext.size()));
  const auto tag_mask = aes_.encrypt_block(j0);
  for (std::size_t i = 0; i < kTagSize; ++i)
    out[plaintext.size() + i] = s[i] ^ tag_mask[i];
}

Bytes Aes128Gcm::seal(ByteView nonce, ByteView aad, ByteView plaintext) const {
  Bytes out(plaintext.size() + kTagSize);
  seal_into(nonce, aad, plaintext, out);
  return out;
}

bool Aes128Gcm::open_into(ByteView nonce, ByteView aad,
                          ByteView ciphertext_and_tag,
                          std::span<std::uint8_t> plaintext) const {
  if (nonce.size() != kNonceSize || ciphertext_and_tag.size() < kTagSize ||
      plaintext.size() != ciphertext_and_tag.size() - kTagSize)
    return false;
  const ByteView ciphertext = ciphertext_and_tag.first(plaintext.size());
  const ByteView tag = ciphertext_and_tag.last(kTagSize);

  const auto j0 = make_j0(nonce);
  const auto tag_mask = aes_.encrypt_block(j0);
  const auto s = ghash(aad, ciphertext);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < kTagSize; ++i)
    diff |= static_cast<std::uint8_t>(tag[i] ^ s[i] ^ tag_mask[i]);
  if (diff != 0) return false;

  ctr_xor(j0, ciphertext.data(), plaintext.data(), ciphertext.size());
  return true;
}

std::optional<Bytes> Aes128Gcm::open(ByteView nonce, ByteView aad,
                                     ByteView ciphertext_and_tag) const {
  if (ciphertext_and_tag.size() < kTagSize) return std::nullopt;
  Bytes plaintext(ciphertext_and_tag.size() - kTagSize);
  if (!open_into(nonce, aad, ciphertext_and_tag, plaintext)) return std::nullopt;
  return plaintext;
}

}  // namespace vpscope::crypto
