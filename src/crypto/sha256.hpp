// SHA-256 (FIPS 180-4) — the hash underpinning HKDF and the TLS 1.3 /
// QUIC v1 Initial key schedule. Streaming interface plus one-shot helper.
//
// Two compression kernels compute the same bytes: portable C and, on x86
// CPUs with the SHA extensions, SHA-NI (sha256rnds2/msg1/msg2), picked at
// run time by a cached CPU probe. The QUIC Initial key schedule is 14
// compressions, so the kernel sets most of its cost.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace vpscope::crypto {

/// Which compression kernel a Sha256 runs. Auto picks ShaNi when the CPU
/// has SHA, SSSE3 and SSE4.1, else Portable; tests force a level to check
/// the kernels against each other.
enum class ShaKernel : std::uint8_t { Auto, Portable, ShaNi };

/// Whether `kernel` can run on this CPU (Portable/Auto: always).
bool sha_kernel_supported(ShaKernel kernel);

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  /// Throws std::invalid_argument on a forced kernel this CPU cannot run.
  explicit Sha256(ShaKernel kernel = ShaKernel::Auto);

  void update(ByteView data);
  std::array<std::uint8_t, kDigestSize> finish();

  static std::array<std::uint8_t, kDigestSize> digest(ByteView data);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  ShaKernel kernel_;  // resolved, never Auto
};

/// HMAC-SHA256 (RFC 2104) under one key. The key's inner and outer pad
/// blocks are absorbed once at construction, so each mac() costs only the
/// compressions of the data and the two finishes.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key, ShaKernel kernel = ShaKernel::Auto);

  std::array<std::uint8_t, Sha256::kDigestSize> mac(ByteView data) const;

 private:
  Sha256 inner_;  // state after H(key ^ ipad)
  Sha256 outer_;  // state after H(key ^ opad)
};

/// One-shot HMAC-SHA256 (RFC 2104).
std::array<std::uint8_t, Sha256::kDigestSize> hmac_sha256(ByteView key,
                                                          ByteView data);

}  // namespace vpscope::crypto
