// Reference AES-128 and AES-128-GCM for differential tests: S-box-only AES
// (SubBytes/ShiftRows/MixColumns spelled out) and bit-serial GHASH (a
// 128-step shift-and-add per block). Slow and obviously shaped like
// FIPS 197 / SP 800-38D; the shipped kernels in src/crypto are checked
// against it byte for byte. Not linked into any library.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "util/bytes.hpp"

namespace vpscope::crypto::oracle {

/// FIPS 197 AES-128 encryption of one block under a 16-byte key.
std::array<std::uint8_t, 16> aes128_encrypt(ByteView key,
                                            const std::array<std::uint8_t, 16>& block);

/// AES-128-GCM with a 12-byte nonce: ciphertext || 16-byte tag.
Bytes gcm_seal(ByteView key, ByteView nonce, ByteView aad, ByteView plaintext);

/// Inverse of gcm_seal; nullopt when the tag does not verify.
std::optional<Bytes> gcm_open(ByteView key, ByteView nonce, ByteView aad,
                              ByteView ciphertext_and_tag);

}  // namespace vpscope::crypto::oracle
