// AES-128 block cipher (FIPS 197) with the two modes QUIC v1 Initial
// protection needs: AES-128-GCM AEAD for the packet payload (RFC 9001 §5.3)
// and raw single-block ECB encryption for header protection mask generation
// (RFC 9001 §5.4.3).
//
// Two kernels compute the same bytes:
//   - Portable: T-table AES (one 1 KiB round table, rotated per column)
//     and a Shoup 4-bit GHASH table (256 B per key).
//   - AesNi: AES-NI rounds with four counter blocks in flight and
//     PCLMULQDQ GHASH reducing once per four blocks (x86 only).
// Auto picks between them by a cached CPU probe.
// The portable kernel is not constant-time (its table lookups depend on
// the key). That protects nothing secret here — QUIC Initial keys are
// derived from the public DCID and all traffic is synthesized — but both
// kernels are byte-exact AES-GCM, checked against FIPS/NIST vectors and
// against a bit-serial reference in the test suite.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "util/bytes.hpp"

namespace vpscope::crypto {

/// Which kernel an Aes128/Aes128Gcm runs. Auto picks AesNi when the CPU has
/// AES-NI, PCLMULQDQ and SSSE3, else Portable; tests force a level to check
/// the kernels against each other.
enum class AesKernel : std::uint8_t { Auto, Portable, AesNi };

/// Whether `kernel` can run on this CPU (Portable/Auto: always).
bool aes_kernel_supported(AesKernel kernel);

class Aes128 {
 public:
  static constexpr std::size_t kBlockSize = 16;
  static constexpr std::size_t kKeySize = 16;

  /// Throws std::invalid_argument on a key that is not 16 bytes or a
  /// forced kernel this CPU cannot run.
  explicit Aes128(ByteView key, AesKernel kernel = AesKernel::Auto);

  /// Encrypts exactly one 16-byte block in place.
  void encrypt_block(std::uint8_t block[kBlockSize]) const;

  /// Convenience: encrypts a 16-byte block and returns the ciphertext.
  std::array<std::uint8_t, kBlockSize> encrypt_block(
      const std::array<std::uint8_t, kBlockSize>& block) const;

  /// The resolved kernel (never Auto).
  AesKernel kernel() const { return kernel_; }

 private:
  friend class Aes128Gcm;

  // 11 round keys of 16 bytes each, in FIPS 197 byte order.
  alignas(16) std::array<std::uint8_t, 176> round_keys_;
  AesKernel kernel_;
};

/// AES-128-GCM authenticated encryption (NIST SP 800-38D) with a 12-byte
/// nonce and 16-byte tag, the parameters TLS 1.3 / QUIC v1 use.
class Aes128Gcm {
 public:
  static constexpr std::size_t kNonceSize = 12;
  static constexpr std::size_t kTagSize = 16;

  explicit Aes128Gcm(ByteView key, AesKernel kernel = AesKernel::Auto);

  /// Returns ciphertext || tag. Throws on a nonce that is not 12 bytes.
  Bytes seal(ByteView nonce, ByteView aad, ByteView plaintext) const;

  /// Writes ciphertext || tag to `out`, which must hold exactly
  /// plaintext.size() + kTagSize bytes. Throws on a wrong nonce or output
  /// size.
  void seal_into(ByteView nonce, ByteView aad, ByteView plaintext,
                 std::span<std::uint8_t> out) const;

  /// Input is ciphertext || tag; returns plaintext, or nullopt if the tag
  /// does not verify or the nonce is not 12 bytes.
  std::optional<Bytes> open(ByteView nonce, ByteView aad,
                            ByteView ciphertext_and_tag) const;

  /// Allocation-free open: verifies the tag first and only then decrypts
  /// into `plaintext`, which must hold exactly ciphertext_and_tag.size() -
  /// kTagSize bytes. Returns false (leaving `plaintext` untouched) on a bad
  /// tag, a nonce that is not 12 bytes, or a size mismatch.
  bool open_into(ByteView nonce, ByteView aad, ByteView ciphertext_and_tag,
                 std::span<std::uint8_t> plaintext) const;

 private:
  /// GHASH_H(aad, ciphertext) including the length block.
  std::array<std::uint8_t, 16> ghash(ByteView aad, ByteView ciphertext) const;
  /// out[i] = in[i] ^ keystream, counter blocks inc32(J0), inc32^2(J0), ...
  void ctr_xor(const std::array<std::uint8_t, 16>& j0, const std::uint8_t* in,
               std::uint8_t* out, std::size_t n) const;

  Aes128 aes_;
  // GHASH subkey H = AES_K(0^128), in the form the kernel reads: the Shoup
  // table (entry i = i·H for 4-bit i, high/low 64-bit halves) for
  // Portable, byte-reversed H..H^4 for AesNi. The other one stays zero.
  std::array<std::array<std::uint64_t, 2>, 16> htable_{};
  alignas(16) std::array<std::uint8_t, 64> hpow_{};
};

}  // namespace vpscope::crypto
