#include <gtest/gtest.h>

#include <vector>

#include "mac/aes.hpp"
#include "mac/ccmp.hpp"
#include "mac/station.hpp"
#include "mac/wep.hpp"
#include "phy/simd.hpp"
#include "tiers.hpp"
#include "util/rng.hpp"

namespace witag::mac {
namespace {

using Tier = phy::simd::Tier;
using test::runnable_tiers;

TEST(Aes, Fips197AppendixCVector) {
  // FIPS-197 C.1: key 000102...0e0f, plaintext 00112233...eeff.
  AesKey key{};
  AesBlock plain{};
  for (int i = 0; i < 16; ++i) {
    key[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    plain[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(i * 16 + i);
  }
  const AesBlock expected{0x69, 0xC4, 0xE0, 0xD8, 0x6A, 0x7B, 0x04, 0x30,
                          0xD8, 0xCD, 0xB7, 0x80, 0x70, 0xB4, 0xC5, 0x5A};
  for (const Tier t : runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    SCOPED_TRACE(phy::simd::tier_name(t));
    EXPECT_EQ(Aes128(key).encrypt(plain), expected);
  }
}

TEST(Aes, Fips197AppendixBVector) {
  // FIPS-197 B: key 2b7e151628aed2a6abf7158809cf4f3c,
  // plaintext 3243f6a8885a308d313198a2e0370734 ->
  // 3925841d02dc09fbdc118597196a0b32.
  const AesKey key{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
                   0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  const AesBlock plain{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                       0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const AesBlock expected{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
                          0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32};
  for (const Tier t : runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    SCOPED_TRACE(phy::simd::tier_name(t));
    EXPECT_EQ(Aes128(key).encrypt(plain), expected);
  }
}

TEST(Aes, EveryTierMatchesPortable) {
  // The KATs above are the real guard (a wrong cipher used on both ends
  // of a link still round-trips); this holds the hardware kernel to the
  // portable rounds on 10,000 seeded (key, block) pairs.
  util::Rng rng(0xAE5'0000);
  for (int trial = 0; trial < 10'000; ++trial) {
    AesKey key{};
    AesBlock block{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    const Aes128 aes(key);
    AesBlock portable{};
    {
      const phy::simd::ScopedTier pin(Tier::kScalar);
      portable = aes.encrypt(block);
    }
    for (const Tier t : runnable_tiers()) {
      const phy::simd::ScopedTier pin(t);
      ASSERT_EQ(aes.encrypt(block), portable)
          << phy::simd::tier_name(t) << ", trial " << trial;
    }
  }
}

TEST(Aes, KernelDispatchedAtVectorTiersOnly) {
  // nullptr at kScalar is what sends Aes128 to its portable rounds.
  EXPECT_EQ(phy::simd::aes_encrypt_for(Tier::kScalar), nullptr);
  if (phy::simd::detect_best_tier() >= Tier::kAvx2) {
    // The AVX2 tier includes AES-NI, and AVX-512 keeps the same kernel.
    EXPECT_NE(phy::simd::aes_encrypt_for(Tier::kAvx2), nullptr);
    EXPECT_EQ(phy::simd::aes_encrypt_for(Tier::kAvx512),
              phy::simd::aes_encrypt_for(Tier::kAvx2));
  }
}

TEST(Aes, DeterministicAndKeyDependent) {
  AesKey k1{};
  AesKey k2{};
  k2[0] = 1;
  const AesBlock block{};
  EXPECT_EQ(Aes128(k1).encrypt(block), Aes128(k1).encrypt(block));
  EXPECT_NE(Aes128(k1).encrypt(block), Aes128(k2).encrypt(block));
}

MacHeader header_for_crypto() {
  MacHeader h;
  h.addr1 = make_address(2);
  h.addr2 = make_address(1);
  h.addr3 = make_address(2);
  h.sequence = 42;
  h.tid = 0;
  h.protected_frame = true;
  return h;
}

TEST(Ccmp, EncryptDecryptRoundTrip) {
  const AesKey key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  CcmpSession tx(key);
  CcmpSession rx(key);
  const util::ByteVec plain = util::Rng(1).bytes(100);
  const auto body = tx.encrypt(header_for_crypto(), plain);
  EXPECT_EQ(body.size(), kCcmpHeaderBytes + plain.size() + kCcmpMicBytes);
  const auto decrypted = rx.decrypt(header_for_crypto(), body);
  ASSERT_TRUE(decrypted.has_value());
  EXPECT_EQ(*decrypted, plain);
}

TEST(Ccmp, EmptyPayloadRoundTrip) {
  const AesKey key{};
  CcmpSession tx(key);
  const auto body = tx.encrypt(header_for_crypto(), {});
  const auto decrypted = CcmpSession(key).decrypt(header_for_crypto(), body);
  ASSERT_TRUE(decrypted.has_value());
  EXPECT_TRUE(decrypted->empty());
}

TEST(Ccmp, MicDetectsEveryCiphertextFlip) {
  const AesKey key{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  CcmpSession tx(key);
  const util::ByteVec plain = util::Rng(2).bytes(40);
  const auto body = tx.encrypt(header_for_crypto(), plain);
  CcmpSession rx(key);
  for (std::size_t i = kCcmpHeaderBytes; i < body.size(); ++i) {
    util::ByteVec tampered = body;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(rx.decrypt(header_for_crypto(), tampered).has_value())
        << "byte " << i;
  }
}

TEST(Ccmp, WrongKeyFails) {
  const AesKey key{1};
  const AesKey other{2};
  CcmpSession tx(key);
  const auto body = tx.encrypt(header_for_crypto(), util::Rng(3).bytes(20));
  EXPECT_FALSE(CcmpSession(other).decrypt(header_for_crypto(), body));
}

TEST(Ccmp, HeaderIsAuthenticated) {
  const AesKey key{7};
  CcmpSession tx(key);
  const auto body = tx.encrypt(header_for_crypto(), util::Rng(4).bytes(20));
  MacHeader other = header_for_crypto();
  other.addr2 = make_address(0x99);  // changes the nonce and AAD
  EXPECT_FALSE(CcmpSession(key).decrypt(other, body).has_value());
}

TEST(Ccmp, PacketNumberAdvances) {
  const AesKey key{5};
  CcmpSession tx(key);
  const auto pn0 = tx.packet_number();
  const auto b1 = tx.encrypt(header_for_crypto(), util::Rng(5).bytes(10));
  const auto b2 = tx.encrypt(header_for_crypto(), util::Rng(5).bytes(10));
  EXPECT_EQ(tx.packet_number(), pn0 + 2);
  EXPECT_NE(b1, b2);  // fresh nonce -> different ciphertext
}

TEST(Ccmp, BytesIdenticalAcrossTiers) {
  const AesKey key{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 100; ++n) lengths.push_back(n);
  lengths.push_back(2047);  // CcmpSession's largest plaintext
  std::vector<util::ByteVec> plains;
  for (const std::size_t n : lengths) plains.push_back(util::Rng(n).bytes(n));

  // Every tier's sealed bodies, from a fresh session (same PN sequence).
  std::vector<std::vector<util::ByteVec>> bodies;
  for (const Tier t : runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    CcmpSession tx(key);
    bodies.emplace_back();
    for (const util::ByteVec& p : plains) {
      bodies.back().push_back(tx.encrypt(header_for_crypto(), p));
    }
  }
  for (std::size_t i = 1; i < bodies.size(); ++i) {
    for (std::size_t k = 0; k < lengths.size(); ++k) {
      EXPECT_EQ(bodies[i][k], bodies[0][k])
          << phy::simd::tier_name(runnable_tiers()[i]) << ", length "
          << lengths[k];
    }
  }

  // A full 64-subframe CCMP query, and the AP decrypting every subframe.
  SecurityConfig sec;
  sec.mode = Security::kCcmp;
  sec.ccmp_key = key;
  std::vector<util::ByteVec> payloads;
  for (std::size_t i = 0; i < kMaxSubframes; ++i) {
    payloads.push_back(util::Rng(100 + i).bytes(24));
  }
  std::vector<util::ByteVec> ampdus;
  for (const Tier t : runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    SCOPED_TRACE(phy::simd::tier_name(t));
    Client client(make_address(1), make_address(2), sec);
    ampdus.push_back(client.build_ampdu(payloads));
    AccessPoint ap(make_address(2), sec);
    const AccessPoint::PsduResult rx = ap.receive_psdu(ampdus.back());
    EXPECT_EQ(rx.subframes_valid, kMaxSubframes);
    EXPECT_EQ(rx.decrypt_failures, 0U);
    EXPECT_EQ(ampdus.back(), ampdus.front());
  }
}

TEST(Ccmp, RejectsTruncatedBody) {
  const AesKey key{};
  const util::ByteVec tiny(kCcmpHeaderBytes + kCcmpMicBytes - 1, 0);
  EXPECT_FALSE(CcmpSession(key).decrypt(header_for_crypto(), tiny));
}

TEST(Ccm, Rfc3610Vector1) {
  // RFC 3610 packet vector #1: M = 8, L = 2.
  const AesKey key{0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
                   0xC8, 0xC9, 0xCA, 0xCB, 0xCC, 0xCD, 0xCE, 0xCF};
  const CcmNonce nonce{0x00, 0x00, 0x00, 0x03, 0x02, 0x01, 0x00,
                       0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5};
  util::ByteVec aad;
  for (std::uint8_t b = 0x00; b < 0x08; ++b) aad.push_back(b);
  util::ByteVec plain;
  for (std::uint8_t b = 0x08; b < 0x1F; ++b) plain.push_back(b);

  const util::ByteVec expected{
      0x58, 0x8C, 0x97, 0x9A, 0x61, 0xC6, 0x63, 0xD2, 0xF0, 0x66, 0xD0,
      0xC2, 0xC0, 0xF9, 0x89, 0x80, 0x6D, 0x5F, 0x6B, 0x61, 0xDA, 0xC3,
      0x84, 0x17, 0xE8, 0xD1, 0x2C, 0xFD, 0xF9, 0x26, 0xE0};
  const Aes128 aes(key);
  for (const Tier t : runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    SCOPED_TRACE(phy::simd::tier_name(t));
    EXPECT_EQ(ccm_encrypt(aes, nonce, aad, plain), expected);

    const auto decrypted = ccm_decrypt(aes, nonce, aad, expected);
    ASSERT_TRUE(decrypted.has_value());
    EXPECT_EQ(*decrypted, plain);
  }
}

TEST(Ccm, Rfc3610Vector2) {
  // RFC 3610 packet vector #2: 16-byte message, MIC still 8 bytes.
  const AesKey key{0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
                   0xC8, 0xC9, 0xCA, 0xCB, 0xCC, 0xCD, 0xCE, 0xCF};
  const CcmNonce nonce{0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
                       0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5};
  util::ByteVec aad;
  for (std::uint8_t b = 0x00; b < 0x08; ++b) aad.push_back(b);
  util::ByteVec plain;
  for (std::uint8_t b = 0x08; b < 0x20; ++b) plain.push_back(b);

  const util::ByteVec expected{
      0x72, 0xC9, 0x1A, 0x36, 0xE1, 0x35, 0xF8, 0xCF, 0x29, 0x1C, 0xA8,
      0x94, 0x08, 0x5C, 0x87, 0xE3, 0xCC, 0x15, 0xC4, 0x39, 0xC9, 0xE4,
      0x3A, 0x3B, 0xA0, 0x91, 0xD5, 0x6E, 0x10, 0x40, 0x09, 0x16};
  const Aes128 aes(key);
  for (const Tier t : runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    SCOPED_TRACE(phy::simd::tier_name(t));
    EXPECT_EQ(ccm_encrypt(aes, nonce, aad, plain), expected);
  }
}

TEST(Ccm, DecryptRejectsTamperedAad) {
  const AesKey key{1, 2, 3};
  const CcmNonce nonce{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9};
  const util::ByteVec aad{1, 2, 3, 4};
  const util::ByteVec plain{5, 6, 7};
  const Aes128 aes(key);
  const auto sealed = ccm_encrypt(aes, nonce, aad, plain);
  const util::ByteVec other_aad{1, 2, 3, 5};
  EXPECT_FALSE(ccm_decrypt(aes, nonce, other_aad, sealed).has_value());
}

TEST(Rc4, KnownKeystreamVector) {
  // Classic RC4 vector: key "Key" -> keystream EB 9F 77 81 B7 34 CA 72.
  const util::ByteVec key{'K', 'e', 'y'};
  Rc4 rc4(key);
  const std::uint8_t expected[8] = {0xEB, 0x9F, 0x77, 0x81,
                                    0xB7, 0x34, 0xCA, 0x72};
  for (const std::uint8_t e : expected) {
    EXPECT_EQ(rc4.next(), e);
  }
}

TEST(Wep, EncryptDecryptRoundTrip) {
  WepKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 3 + 1);
  }
  const util::ByteVec plain = util::Rng(6).bytes(60);
  const auto body = wep_encrypt(key, 0x123456, plain);
  EXPECT_EQ(body.size(), kWepHeaderBytes + plain.size() + kWepIcvBytes);
  const auto decrypted = wep_decrypt(key, body);
  ASSERT_TRUE(decrypted.has_value());
  EXPECT_EQ(*decrypted, plain);
}

TEST(Wep, IcvDetectsTampering) {
  WepKey key{};
  const util::ByteVec plain = util::Rng(7).bytes(30);
  auto body = wep_encrypt(key, 1, plain);
  body[kWepHeaderBytes + 5] ^= 0x80;
  EXPECT_FALSE(wep_decrypt(key, body).has_value());
}

TEST(Wep, WrongKeyFails) {
  WepKey key{};
  WepKey other{};
  other[0] = 0xFF;
  const auto body = wep_encrypt(key, 2, util::Rng(8).bytes(30));
  EXPECT_FALSE(wep_decrypt(other, body).has_value());
}

TEST(Wep, IvBoundsChecked) {
  WepKey key{};
  EXPECT_THROW(wep_encrypt(key, 1u << 24, {}), std::invalid_argument);
}

TEST(Wep, DifferentIvsGiveDifferentCiphertext) {
  WepKey key{};
  const util::ByteVec plain(20, 0xAA);
  const auto b1 = wep_encrypt(key, 1, plain);
  const auto b2 = wep_encrypt(key, 2, plain);
  EXPECT_NE(b1, b2);
}

}  // namespace
}  // namespace witag::mac
