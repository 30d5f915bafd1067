// Seeded byte-level fuzz of the over-the-air parsers, in the style of
// test_viterbi_equiv.cpp: A-MPDU deaggregation, the MPDU parse, the
// block-ack parse, CCM and CCMP decrypt (on every SIMD tier) and WEP
// decrypt each see random bytes 0..2,100 long plus every truncation and
// every single-bit flip of a valid frame; the HT-SIG decode sees random
// bit fields and CRC-valid headers that lie about the data field; the
// droplet-frame decode sees random erased bit streams and mutated
// frames. Each must answer with its typed failure (nullopt, a dropped
// PPDU, or only the subframes that are really there). An exception
// fails the test; an out-of-bounds read fails it under the sanitizer
// builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mac/ampdu.hpp"
#include "mac/block_ack.hpp"
#include "mac/ccmp.hpp"
#include "mac/mpdu.hpp"
#include "mac/station.hpp"
#include "mac/wep.hpp"
#include "phy/mcs.hpp"
#include "phy/plcp.hpp"
#include "phy/ppdu.hpp"
#include "phy/simd.hpp"
#include "tiers.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "witag/link.hpp"
#include "witag/rateless.hpp"

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

TEST(RxFuzz, HtSigDecodeReadsOnlyCrcValidLowBits) {
  constexpr int kSigTrials = 10'000;
  util::Rng rng(0xF022'0007);
  std::size_t accepted = 0;
  for (int trial = 0; trial < kSigTrials; ++trial) {
    const ByteVec bits = rng.bytes(phy::kSigBits);  // any byte values
    ByteVec low = bits;
    for (auto& b : low) b &= 1U;
    // Only each element's low bit counts.
    const std::optional<phy::HtSig> sig = phy::decode_sig(bits);
    ASSERT_EQ(sig, phy::decode_sig(low)) << "trial " << trial;
    if (!sig) continue;
    ++accepted;
    // An accepted header carries its 7 MCS and 16 length bits as sent
    // (the CRC also covers the reserved bit, which is not carried).
    const util::BitVec again = phy::encode_sig(*sig);
    for (std::size_t i = 0; i < 23; ++i) {
      ASSERT_EQ(again[i], low[i]) << "trial " << trial << ", bit " << i;
    }
  }
  // A random header passes CRC-8 about once in 256 (39 expected), so
  // the accepting path is fuzzed too.
  EXPECT_GT(accepted, 0U);
  EXPECT_LT(accepted, 100U);
}

/// The two SIG symbols of a PPDU transmitted at `mcs_index` with a
/// `length`-byte PSDU.
std::vector<phy::FreqSymbol> sig_symbols(unsigned mcs_index,
                                         std::size_t length) {
  phy::TxConfig tx;
  tx.mcs_index = mcs_index;
  const phy::TxPpdu ppdu = phy::transmit(ByteVec(length, 0x5A), tx);
  const auto first =
      ppdu.symbols.begin() + static_cast<std::ptrdiff_t>(phy::kPreambleSlots);
  return {first, first + static_cast<std::ptrdiff_t>(phy::kSigSymbols)};
}

TEST(RxFuzz, ReceiveSurvivesHtSigThatLiesAboutTheDataField) {
  // CRC-valid headers from a transmit at another MCS and length, spliced
  // over a real PPDU's SIG symbols. The receiver must report the header
  // as sent, then decode exactly that many bytes from whatever data
  // symbols follow, or drop the PPDU when the capture is too short.
  constexpr std::size_t kTrueLength = 200;
  std::vector<std::pair<phy::HtSig, std::vector<phy::FreqSymbol>>> liars;
  for (unsigned m = 0; m < phy::kNumMcs; ++m) {
    for (const std::size_t length :
         {std::size_t{1}, kTrueLength - 1, kTrueLength + 1,
          std::size_t{65'535}}) {
      liars.emplace_back(phy::HtSig{m, length}, sig_symbols(m, length));
    }
  }
  const ByteVec psdu = util::Rng(0xF022'0008).bytes(kTrueLength);
  phy::DecodeScratch scratch;
  phy::RxResult out;
  for (unsigned true_mcs = 0; true_mcs < phy::kNumMcs; ++true_mcs) {
    phy::TxConfig tx;
    tx.mcs_index = true_mcs;
    phy::TxPpdu ppdu = phy::transmit(psdu, tx);
    for (const auto& [sig, symbols] : liars) {
      SCOPED_TRACE("true MCS " + std::to_string(true_mcs) + ", SIG MCS " +
                   std::to_string(sig.mcs_index) + " length " +
                   std::to_string(sig.length));
      std::copy(symbols.begin(), symbols.end(),
                ppdu.symbols.begin() +
                    static_cast<std::ptrdiff_t>(phy::kPreambleSlots));
      phy::receive_into(ppdu.symbols, phy::RxConfig{}, scratch, out);
      const bool fits =
          phy::kHeaderSlots +
              phy::data_symbols_for(sig.length, phy::mcs(sig.mcs_index)) <=
          ppdu.symbols.size();
      EXPECT_EQ(out.sig, sig);
      EXPECT_EQ(out.sig_ok, fits);
      EXPECT_EQ(out.psdu.size(), fits ? sig.length : 0U);
    }
  }
}

/// Calls decode_droplet_frame on `stream` from every offset, end
/// included, and checks the answer: nullopt, or a frame of all-known
/// bits that starts at or after the offset and ends inside the stream.
/// Returns how many offsets found a frame.
std::size_t decode_droplets_everywhere(const core::ErasedBits& stream,
                                       std::uint8_t salt) {
  const core::RatelessConfig cfg;
  const std::size_t frame_bits = core::droplet_frame_bits(cfg);
  std::size_t found = 0;
  for (std::size_t offset = 0; offset <= stream.size(); ++offset) {
    const std::optional<core::DecodedDroplet> d =
        core::decode_droplet_frame(stream, offset, salt, cfg);
    if (!d) continue;
    ++found;
    EXPECT_GT(d->next_offset, offset);
    EXPECT_LE(d->next_offset, stream.size());
    EXPECT_GE(d->next_offset, offset + frame_bits);
    EXPECT_TRUE(stream.all_known(d->next_offset - frame_bits, frame_bits));
    EXPECT_EQ(d->data.size(), cfg.symbol_bytes);
  }
  return found;
}

TEST(RxFuzz, DropletFrameDecodeStaysInBounds) {
  constexpr int kStreams = 100;
  constexpr std::size_t kMaxStreamBits = 2'000;
  const core::RatelessConfig cfg;
  const std::size_t frame_bits = core::droplet_frame_bits(cfg);
  const std::uint8_t salt = core::rateless_salt(core::kRatelessDefaultSeed);
  util::Rng rng(0xF022'0009);
  std::size_t found = 0;
  for (int trial = 0; trial < kStreams; ++trial) {
    // Random bits broken by erasure runs, as lost block acks leave them;
    // every other stream carries one valid frame somewhere, so the
    // accepting path is fuzzed too.
    core::ErasedBits stream;
    const std::size_t n = rng.uniform_int(kMaxStreamBits + 1);
    std::size_t plant = trial % 2 == 0 && n >= frame_bits
                            ? rng.uniform_int(n - frame_bits + 1)
                            : SIZE_MAX;
    while (stream.size() < n) {
      if (stream.size() == plant) {
        const ByteVec data = rng.bytes(cfg.symbol_bytes);
        stream.append(core::encode_droplet_frame(
            static_cast<std::uint8_t>(rng.uniform_int(256)),
            static_cast<std::uint8_t>(rng.uniform_int(256)), data, salt));
        plant = SIZE_MAX;
        continue;
      }
      const std::size_t run = std::min<std::size_t>(
          std::min(n, plant) - stream.size(), 1 + rng.uniform_int(64));
      if (rng.uniform_int(4) == 0) {
        stream.append_erasure_run(run);
      } else {
        util::BitVec bits(run);
        for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
        stream.append(bits);
      }
    }
    SCOPED_TRACE("stream " + std::to_string(trial));
    found += decode_droplets_everywhere(stream, salt);
  }
  EXPECT_GT(found, 0U);
}

TEST(RxFuzz, DropletFrameRejectsTruncationsAndBitFlips) {
  const core::RatelessConfig cfg;
  const std::uint8_t salt = core::rateless_salt(core::kRatelessDefaultSeed);
  const ByteVec data = util::Rng(0xF022'000A).bytes(cfg.symbol_bytes);
  const util::BitVec frame = core::encode_droplet_frame(40, 7, data, salt);
  ASSERT_EQ(frame.size(), core::droplet_frame_bits(cfg));

  core::ErasedBits whole;
  whole.append(frame);
  const std::optional<core::DecodedDroplet> d =
      core::decode_droplet_frame(whole, 0, salt, cfg);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload_len, 40);
  EXPECT_EQ(d->seq, 7);
  EXPECT_EQ(d->data, data);
  EXPECT_EQ(d->next_offset, frame.size());

  // A cut frame is too short to hold one; a flipped preamble bit fails
  // the sync match and any other flip fails the salted CRC-8.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    core::ErasedBits cut;
    cut.append(std::span<const std::uint8_t>(frame.data(), n));
    EXPECT_EQ(decode_droplets_everywhere(cut, salt), 0U) << "length " << n;
  }
  for (std::size_t bit = 0; bit < frame.size(); ++bit) {
    util::BitVec flipped = frame;
    flipped[bit] ^= 1U;
    core::ErasedBits mutated;
    mutated.append(flipped);
    EXPECT_EQ(decode_droplets_everywhere(mutated, salt), 0U) << "bit " << bit;
  }
}

}  // namespace
}  // namespace witag::mac
