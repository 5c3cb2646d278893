// Crypto substrate validation against published test vectors:
// FIPS 180-4 (SHA-256), RFC 4231 (HMAC), RFC 5869 (HKDF), FIPS 197 (AES),
// NIST GCM vectors, RFC 1321 (MD5), and RFC 9001 Appendix A (the QUIC v1
// Initial key schedule, exercised here at the HKDF layer). Every AES kernel
// the CPU supports is also checked byte for byte against the bit-serial
// reference in tests/support/crypto_oracle.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "crypto/aes.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"
#include "support/crypto_oracle.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace vpscope::crypto {
namespace {

ByteView sv(const std::string& s) {
  return ByteView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

[[maybe_unused]] std::string hex_of(ByteView b) { return to_hex(b); }

template <std::size_t N>
std::string hex_of(const std::array<std::uint8_t, N>& a) {
  return to_hex(ByteView{a.data(), a.size()});
}

// ---- SHA-256 ----

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_of(Sha256::digest({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_of(Sha256::digest(sv("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      hex_of(Sha256::digest(
          sv("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(sv(chunk));
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingSplitsMatchOneShot) {
  // Property: any split of the input yields the same digest.
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly and at "
      "various block boundaries to stress buffering. 0123456789";
  const auto expected = Sha256::digest(sv(msg));
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(sv(msg.substr(0, split)));
    h.update(sv(msg.substr(split)));
    EXPECT_EQ(h.finish(), expected) << "split=" << split;
  }
}

std::vector<ShaKernel> supported_sha_kernels() {
  std::vector<ShaKernel> out;
  for (const ShaKernel k : {ShaKernel::Portable, ShaKernel::ShaNi})
    if (sha_kernel_supported(k)) out.push_back(k);
  return out;
}

TEST(Sha256Kernels, PublishedVectorsAtEveryKernel) {
  for (const ShaKernel kernel : supported_sha_kernels()) {
    SCOPED_TRACE(static_cast<int>(kernel));
    Sha256 h(kernel);
    h.update(sv("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    EXPECT_EQ(hex_of(h.finish()),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(hex_of(HmacSha256(Bytes(131, 0xaa), kernel)
                         .mac(sv("Test Using Larger Than Block-Size Key - Hash Key First"))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  }
}

TEST(Sha256Kernels, AgreeOnRandomMessagesAndSplits) {
  Rng rng(180);
  for (int i = 0; i < 300; ++i) {
    Bytes msg(rng.uniform(0, 300));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next_u32());
    const std::size_t split = rng.uniform(0, msg.size());
    std::optional<std::array<std::uint8_t, Sha256::kDigestSize>> first;
    for (const ShaKernel kernel : supported_sha_kernels()) {
      Sha256 h(kernel);
      h.update(ByteView{msg}.first(split));
      h.update(ByteView{msg}.subspan(split));
      const auto digest = h.finish();
      if (!first) first = digest;
      ASSERT_EQ(digest, *first) << "case " << i << " length " << msg.size();
    }
  }
}

// ---- HMAC-SHA256 (RFC 4231) ----

TEST(HmacSha256, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_of(hmac_sha256(key, sv("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(hex_of(hmac_sha256(sv("Jefe"), sv("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hex_of(hmac_sha256(
                key, sv("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// ---- HKDF (RFC 5869) ----

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  const Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  const Bytes ikm(22, 0x0b);
  const Bytes prk = hkdf_extract({}, ikm);
  const Bytes okm = hkdf_expand(prk, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// ---- QUIC v1 Initial secrets (RFC 9001 Appendix A.1) ----

TEST(Hkdf, QuicV1InitialSecrets) {
  const Bytes dcid = from_hex("8394c8f03e515708");
  const Bytes salt = from_hex("38762cf7f55934b34d179ae6a4c80cadccbb7f0a");
  const Bytes initial_secret = hkdf_extract(salt, dcid);
  EXPECT_EQ(to_hex(initial_secret),
            "7db5df06e7a69e432496adedb00851923595221596ae2ae9fb8115c1e9ed0a44");

  const Bytes client_secret =
      hkdf_expand_label(initial_secret, "client in", {}, 32);
  EXPECT_EQ(to_hex(client_secret),
            "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea");

  EXPECT_EQ(to_hex(hkdf_expand_label(client_secret, "quic key", {}, 16)),
            "1f369613dd76d5467730efcbe3b1a22d");
  EXPECT_EQ(to_hex(hkdf_expand_label(client_secret, "quic iv", {}, 12)),
            "fa044b2f42a3fd3b46fb255c");
  EXPECT_EQ(to_hex(hkdf_expand_label(client_secret, "quic hp", {}, 16)),
            "9f50449e04a0e810283a1e9933adedd2");
}

// ---- AES-128 (FIPS 197 Appendix C.1) ----

TEST(Aes128, Fips197Vector) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  Bytes block = from_hex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, NistSp800_38aEcbVector) {
  const Bytes key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  Bytes block = from_hex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  aes.encrypt_block(block.data());
  EXPECT_EQ(to_hex(block), "3ad77bb40d7a3660a89ecaf32466ef97");
}

// ---- AES-128-GCM (NIST GCM spec test cases) ----

TEST(Aes128Gcm, NistCase1EmptyEverything) {
  const Bytes key(16, 0);
  const Bytes nonce(12, 0);
  Aes128Gcm gcm(key);
  const Bytes out = gcm.seal(nonce, {}, {});
  EXPECT_EQ(to_hex(out), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Aes128Gcm, NistCase2SingleBlock) {
  const Bytes key(16, 0);
  const Bytes nonce(12, 0);
  const Bytes plaintext(16, 0);
  Aes128Gcm gcm(key);
  const Bytes out = gcm.seal(nonce, {}, plaintext);
  EXPECT_EQ(to_hex(out),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Aes128Gcm, NistCase4WithAad) {
  const Bytes key = from_hex("feffe9928665731c6d6a8f9467308308");
  const Bytes nonce = from_hex("cafebabefacedbaddecaf888");
  const Bytes plaintext = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  Aes128Gcm gcm(key);
  const Bytes out = gcm.seal(nonce, aad, plaintext);
  EXPECT_EQ(to_hex(out),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(Aes128Gcm, SealOpenRoundTrip) {
  const Bytes key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Bytes nonce = from_hex("101112131415161718191a1b");
  const Bytes aad = from_hex("feedface");
  Bytes plaintext;
  for (int i = 0; i < 333; ++i) plaintext.push_back(static_cast<std::uint8_t>(i));
  Aes128Gcm gcm(key);
  const Bytes sealed = gcm.seal(nonce, aad, plaintext);
  const auto opened = gcm.open(nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aes128Gcm, OpenRejectsTamperedCiphertext) {
  const Bytes key(16, 7);
  const Bytes nonce(12, 9);
  Aes128Gcm gcm(key);
  Bytes sealed = gcm.seal(nonce, {}, from_hex("00112233"));
  sealed[1] ^= 0x01;
  EXPECT_FALSE(gcm.open(nonce, {}, sealed).has_value());
}

TEST(Aes128Gcm, OpenRejectsTamperedAad) {
  const Bytes key(16, 7);
  const Bytes nonce(12, 9);
  Aes128Gcm gcm(key);
  const Bytes sealed = gcm.seal(nonce, from_hex("aa"), from_hex("00112233"));
  EXPECT_FALSE(gcm.open(nonce, from_hex("ab"), sealed).has_value());
}

TEST(Aes128Gcm, OpenRejectsShortInput) {
  const Bytes key(16, 7);
  const Bytes nonce(12, 9);
  Aes128Gcm gcm(key);
  EXPECT_FALSE(gcm.open(nonce, {}, from_hex("0011")).has_value());
}

TEST(Aes128Gcm, OpenRejectsWrongSizeNonce) {
  const Bytes key(16, 7);
  // The 8-byte nonce is a prefix of the 12-byte nonce that sealed the
  // message: reading 12 bytes from it would authenticate.
  const Bytes nonce = from_hex("0102030405060708090a0b0c");
  const ByteView short_nonce = ByteView{nonce}.first(8);
  Aes128Gcm gcm(key);
  const Bytes sealed = gcm.seal(nonce, {}, from_hex("00112233"));
  ASSERT_TRUE(gcm.open(nonce, {}, sealed).has_value());
  EXPECT_FALSE(gcm.open(short_nonce, {}, sealed).has_value());
  Bytes plain(4);
  EXPECT_FALSE(gcm.open_into(short_nonce, {}, sealed, plain));
  EXPECT_THROW(gcm.seal(short_nonce, {}, plain), std::invalid_argument);
}

// ---- Kernels against the bit-serial reference ----

std::vector<AesKernel> supported_kernels() {
  std::vector<AesKernel> out;
  for (const AesKernel k : {AesKernel::Portable, AesKernel::AesNi})
    if (aes_kernel_supported(k)) out.push_back(k);
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

TEST(AesKernels, PublishedVectorsAtEveryKernel) {
  for (const AesKernel kernel : supported_kernels()) {
    SCOPED_TRACE(static_cast<int>(kernel));
    Bytes block = from_hex("00112233445566778899aabbccddeeff");
    const Aes128 aes(from_hex("000102030405060708090a0b0c0d0e0f"), kernel);
    EXPECT_EQ(aes.kernel(), kernel);
    aes.encrypt_block(block.data());
    EXPECT_EQ(to_hex(block), "69c4e0d86a7b0430d8cdb78070b4c55a");

    const Aes128Gcm gcm(from_hex("feffe9928665731c6d6a8f9467308308"), kernel);
    const Bytes nonce = from_hex("cafebabefacedbaddecaf888");
    const Bytes aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
    const Bytes plaintext = from_hex(
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
    EXPECT_EQ(to_hex(gcm.seal(nonce, aad, plaintext)),
              "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
              "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
              "5bc94fbc3221a5db94fae95ae7121a47");
  }
}

TEST(AesKernels, BlockCipherMatchesReferenceOnRandomKeys) {
  Rng rng(197);
  for (const AesKernel kernel : supported_kernels()) {
    SCOPED_TRACE(static_cast<int>(kernel));
    for (int i = 0; i < 500; ++i) {
      const Bytes key = random_bytes(rng, 16);
      std::array<std::uint8_t, 16> block;
      for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_u32());
      const auto expected = oracle::aes128_encrypt(key, block);
      const auto got = Aes128(key, kernel).encrypt_block(block);
      ASSERT_EQ(std::memcmp(got.data(), expected.data(), 16), 0) << "case " << i;
    }
  }
}

TEST(AesKernels, GcmSealOpenMatchReferenceOnRandomInputs) {
  // Lengths that are not multiples of 16 on purpose, plus the block and
  // four-block boundaries of the CTR and GHASH loops.
  const std::size_t edge_lengths[] = {0,  1,  15, 16,  17,  31,   32,   33,  63,
                                      64, 65, 79, 127, 128, 1167, 2047, 2048};
  Rng rng(38);
  for (const AesKernel kernel : supported_kernels()) {
    SCOPED_TRACE(static_cast<int>(kernel));
    for (int i = 0; i < 300; ++i) {
      const Bytes key = random_bytes(rng, 16);
      const Bytes nonce = random_bytes(rng, 12);
      const Bytes aad = random_bytes(rng, rng.uniform(0, 64));
      const std::size_t n = i < static_cast<int>(std::size(edge_lengths))
                                ? edge_lengths[i]
                                : rng.uniform(0, 2048);
      const Bytes plaintext = random_bytes(rng, n);
      const Aes128Gcm gcm(key, kernel);

      const Bytes expected = oracle::gcm_seal(key, nonce, aad, plaintext);
      const Bytes sealed = gcm.seal(nonce, aad, plaintext);
      ASSERT_EQ(sealed.size(), expected.size()) << "case " << i;
      ASSERT_EQ(std::memcmp(sealed.data(), expected.data(), sealed.size()), 0)
          << "case " << i << " aad " << aad.size() << " n " << n;

      const auto opened = gcm.open(nonce, aad, sealed);
      ASSERT_TRUE(opened.has_value()) << "case " << i;
      ASSERT_EQ(*opened, plaintext) << "case " << i;

      // Any flipped bit of ciphertext, tag or AAD fails both.
      Bytes tampered = sealed;
      tampered[rng.uniform(0, tampered.size() - 1)] ^=
          static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
      EXPECT_FALSE(gcm.open(nonce, aad, tampered).has_value()) << "case " << i;
      EXPECT_FALSE(oracle::gcm_open(key, nonce, aad, tampered).has_value());
      if (!aad.empty()) {
        Bytes bad_aad = aad;
        bad_aad[rng.uniform(0, bad_aad.size() - 1)] ^= 0x80;
        EXPECT_FALSE(gcm.open(nonce, bad_aad, sealed).has_value()) << "case " << i;
        EXPECT_FALSE(oracle::gcm_open(key, nonce, bad_aad, sealed).has_value());
      }
    }
  }
}

// ---- MD5 (RFC 1321 Appendix A.5) ----

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(hex_of(md5({})), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(hex_of(md5(sv("abc"))), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(hex_of(md5(sv("message digest"))),
            "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(hex_of(md5(sv("abcdefghijklmnopqrstuvwxyz"))),
            "c3fcd3d76192e4007dfb496cca67e13b");
}

}  // namespace
}  // namespace vpscope::crypto
