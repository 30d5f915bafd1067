// Seeded byte-level fuzz of the AP's receive-path parsers, in the style
// of test_viterbi_equiv.cpp: A-MPDU deaggregation, the MPDU parse, the
// block-ack parse, CCM and CCMP decrypt (on every SIMD tier) and WEP
// decrypt. Each one sees random bytes 0..2,100 long plus every
// truncation and every single-bit flip of a valid frame, and must answer
// with its typed failure (nullopt, or only the subframes that are
// really there). An exception fails the test; an out-of-bounds read
// fails it under the sanitizer builds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "mac/ampdu.hpp"
#include "mac/block_ack.hpp"
#include "mac/ccmp.hpp"
#include "mac/mpdu.hpp"
#include "mac/station.hpp"
#include "mac/wep.hpp"
#include "phy/simd.hpp"
#include "tiers.hpp"
#include "util/rng.hpp"

namespace witag::mac {
namespace {

using Bytes = std::span<const std::uint8_t>;
using util::ByteVec;

constexpr int kGarbageTrials = 2'000;
constexpr std::size_t kMaxGarbageBytes = 2'100;

/// Random bytes 0..2,100 long: what a parser sees when noise lands on a
/// delimiter, a header or a whole frame.
ByteVec garbage(util::Rng& rng) {
  return rng.bytes(rng.uniform_int(kMaxGarbageBytes + 1));
}

/// Calls f(bytes, bit) for every proper prefix of `frame` (bit ==
/// kTruncated) and for every copy of it with bit `bit` flipped.
constexpr std::size_t kTruncated = SIZE_MAX;
template <typename F>
void for_each_mutation(const ByteVec& frame, F&& f) {
  for (std::size_t n = 0; n < frame.size(); ++n) {
    f(Bytes(frame.data(), n), kTruncated);
  }
  ByteVec flipped = frame;
  for (std::size_t bit = 0; bit < 8 * frame.size(); ++bit) {
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    flipped[bit / 8] ^= mask;
    f(Bytes(flipped), bit);
    flipped[bit / 8] ^= mask;
  }
}

MacHeader data_header() {
  MacHeader h;
  h.addr1 = make_address(2);
  h.addr2 = make_address(1);
  h.addr3 = make_address(2);
  h.sequence = 7;
  h.protected_frame = true;
  return h;
}

/// Subframes lie inside the PSDU, in order, without overlap, on 4-byte
/// boundaries, at most 64 of them.
void expect_subframes_in_bounds(Bytes psdu, const std::vector<Subframe>& sfs) {
  EXPECT_LE(sfs.size(), kMaxSubframes);
  std::size_t end = 0;
  for (const Subframe& sf : sfs) {
    EXPECT_EQ(sf.offset % 4, 0U);
    EXPECT_GE(sf.offset, end);
    end = sf.offset + kDelimiterBytes + sf.mpdu.size();
    EXPECT_LE(end, psdu.size());
  }
}

TEST(RxFuzz, DeaggregateStaysInBounds) {
  util::Rng rng(0xF022'0001);
  for (int trial = 0; trial < kGarbageTrials; ++trial) {
    const ByteVec psdu = garbage(rng);
    expect_subframes_in_bounds(psdu, deaggregate(psdu));
  }

  SecurityConfig sec;
  sec.mode = Security::kCcmp;
  std::vector<ByteVec> payloads;
  for (int i = 0; i < 16; ++i) payloads.push_back(rng.bytes(24));
  const ByteVec psdu =
      Client(make_address(1), make_address(2), sec).build_ampdu(payloads);
  const std::vector<Subframe> full = deaggregate(psdu);
  ASSERT_EQ(full.size(), payloads.size());
  for_each_mutation(psdu, [&](Bytes bytes, std::size_t bit) {
    const std::vector<Subframe> sfs = deaggregate(bytes);
    expect_subframes_in_bounds(bytes, sfs);
    if (bit != kTruncated) return;
    // A cut keeps every subframe that ends before it.
    std::size_t kept = 0;
    while (kept < full.size() && full[kept].offset + kDelimiterBytes +
                                         full[kept].mpdu.size() <=
                                     bytes.size()) {
      ++kept;
    }
    ASSERT_GE(sfs.size(), kept) << "truncated to " << bytes.size();
    for (std::size_t i = 0; i < kept; ++i) {
      EXPECT_EQ(sfs[i].offset, full[i].offset);
      EXPECT_EQ(sfs[i].mpdu, full[i].mpdu);
    }
  });
}

TEST(RxFuzz, ParseMpduRejectsGarbageTruncationsAndBitFlips) {
  util::Rng rng(0xF022'0002);
  for (int trial = 0; trial < kGarbageTrials; ++trial) {
    EXPECT_FALSE(parse_mpdu(garbage(rng)).has_value()) << "trial " << trial;
  }
  Mpdu mpdu;
  mpdu.header = data_header();
  mpdu.body = rng.bytes(100);
  const ByteVec frame = serialize_mpdu(mpdu);
  ASSERT_TRUE(parse_mpdu(frame).has_value());
  // CRC-32 catches every single-bit error; a cut frame reads its FCS
  // from body bytes.
  for_each_mutation(frame, [&](Bytes bytes, std::size_t bit) {
    EXPECT_FALSE(parse_mpdu(bytes).has_value())
        << "bit " << bit << ", length " << bytes.size();
  });
}

TEST(RxFuzz, ParseBlockAckAcceptsExactlyItsLayout) {
  util::Rng rng(0xF022'0003);
  for (int trial = 0; trial < kGarbageTrials; ++trial) {
    ByteVec bytes = garbage(rng);
    // Half the inputs carry the compressed-bitmap control byte, so the
    // accepting path is fuzzed too.
    if (trial % 2 == 1 && !bytes.empty()) bytes[0] = 0x05;
    const std::optional<BlockAck> ba = parse_block_ack(bytes);
    ASSERT_EQ(ba.has_value(), bytes.size() >= 12 && bytes[0] == 0x05)
        << "trial " << trial;
    if (ba) {
      EXPECT_EQ(serialize_block_ack(*ba)[4], bytes[4]);
    }
  }
  BlockAck valid;
  valid.start_seq = 4000;
  valid.bitmap = 0x0123'4567'89AB'CDEFULL;
  const ByteVec frame = serialize_block_ack(valid);
  for_each_mutation(frame, [&](Bytes bytes, std::size_t bit) {
    const std::optional<BlockAck> ba = parse_block_ack(bytes);
    if (bit == kTruncated || bit < 8) {  // short, or not a compressed BA
      EXPECT_FALSE(ba.has_value()) << "bit " << bit << ", length "
                                   << bytes.size();
    } else if (bit >= 32) {  // one bitmap bit
      ASSERT_TRUE(ba.has_value()) << "bit " << bit;
      EXPECT_EQ(ba->bitmap, valid.bitmap ^ (std::uint64_t{1} << (bit - 32)));
    } else {
      EXPECT_TRUE(ba.has_value()) << "bit " << bit;
    }
  });
}

TEST(RxFuzz, CcmDecryptRejectsGarbageOnEveryTier) {
  const AesKey key{0xC0, 0xFF, 0xEE, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const Aes128 aes(key);
  const CcmNonce nonce{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  const ByteVec aad{0x88, 0x41, 0, 0};
  const ByteVec plain = util::Rng(11).bytes(60);
  for (const phy::simd::Tier t : test::runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    SCOPED_TRACE(phy::simd::tier_name(t));
    util::Rng rng(0xF022'0004);
    for (int trial = 0; trial < kGarbageTrials; ++trial) {
      EXPECT_FALSE(ccm_decrypt(aes, nonce, aad, garbage(rng)).has_value())
          << "trial " << trial;
    }
    const ByteVec sealed = ccm_encrypt(aes, nonce, aad, plain);
    ASSERT_EQ(ccm_decrypt(aes, nonce, aad, sealed), plain);
    for_each_mutation(sealed, [&](Bytes bytes, std::size_t bit) {
      EXPECT_FALSE(ccm_decrypt(aes, nonce, aad, bytes).has_value())
          << "bit " << bit << ", length " << bytes.size();
    });
  }
}

TEST(RxFuzz, CcmpDecryptRejectsGarbageOnEveryTier) {
  const AesKey key{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6};
  const ByteVec plain = util::Rng(12).bytes(60);
  const ByteVec body = CcmpSession(key).encrypt(data_header(), plain);
  for (const phy::simd::Tier t : test::runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    SCOPED_TRACE(phy::simd::tier_name(t));
    const CcmpSession rx(key);
    util::Rng rng(0xF022'0005);
    for (int trial = 0; trial < kGarbageTrials; ++trial) {
      EXPECT_FALSE(rx.decrypt(data_header(), garbage(rng)).has_value())
          << "trial " << trial;
    }
    ASSERT_EQ(rx.decrypt(data_header(), body), plain);
    for_each_mutation(body, [&](Bytes bytes, std::size_t bit) {
      const std::optional<ByteVec> got = rx.decrypt(data_header(), bytes);
      // The reserved octet and the key-id bits other than ExtIV are
      // neither read nor authenticated, so those flips still decrypt.
      const bool unread = bit != kTruncated &&
                          (bit / 8 == 2 || (bit / 8 == 3 && bit % 8 != 5));
      if (unread) {
        EXPECT_EQ(got, plain) << "bit " << bit;
      } else {
        EXPECT_FALSE(got.has_value())
            << "bit " << bit << ", length " << bytes.size();
      }
    });
  }
}

TEST(RxFuzz, WepDecryptRejectsGarbage) {
  WepKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(0x30 + i);
  }
  util::Rng rng(0xF022'0006);
  for (int trial = 0; trial < kGarbageTrials; ++trial) {
    EXPECT_FALSE(wep_decrypt(key, garbage(rng)).has_value())
        << "trial " << trial;
  }
  const ByteVec plain = rng.bytes(60);
  const ByteVec body = wep_encrypt(key, 0xABCDE, plain);
  for_each_mutation(body, [&](Bytes bytes, std::size_t bit) {
    const std::optional<ByteVec> got = wep_decrypt(key, bytes);
    // The key-id octet is not read; the ICV is a CRC-32 under a linear
    // keystream, so it catches every other single-bit flip.
    if (bit != kTruncated && bit / 8 == 3) {
      EXPECT_EQ(got, plain) << "bit " << bit;
    } else {
      EXPECT_FALSE(got.has_value())
          << "bit " << bit << ", length " << bytes.size();
    }
  });
}

}  // namespace
}  // namespace witag::mac
