#include "phy/ppdu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/preamble.hpp"
#include "phy/scrambler.hpp"
#include "util/rng.hpp"

namespace witag::phy {
namespace {

using util::Cx;

// One field through the reference stages: the bit-serial encoder, a
// `%`-indexed puncture, then the interleaver permutation and the
// constellation table applied by hand, one symbol at a time.
std::vector<FreqSymbol> reference_field(const util::BitVec& bits,
                                        Modulation mod, CodeRate rate,
                                        std::size_t first_symbol_index) {
  const util::BitVec mother = detail::convolutional_encode_reference(bits);
  const auto pattern = puncture_pattern(rate);
  util::BitVec coded;
  for (std::size_t i = 0; i < mother.size(); ++i) {
    if (pattern[i % pattern.size()]) coded.push_back(mother[i]);
  }
  const unsigned n_bpsc = bits_per_symbol(mod);
  const unsigned n_cbps = kDataSubcarriers * n_bpsc;
  EXPECT_EQ(coded.size() % n_cbps, 0u);
  const std::vector<std::size_t> map = interleave_map(n_cbps, n_bpsc);
  const std::span<const Cx> table = constellation_points(mod);
  std::vector<FreqSymbol> symbols;
  for (std::size_t off = 0; off + n_cbps <= coded.size(); off += n_cbps) {
    util::BitVec interleaved(n_cbps);
    for (unsigned k = 0; k < n_cbps; ++k) interleaved[map[k]] = coded[off + k];
    util::CxVec points(kDataSubcarriers);
    for (unsigned p = 0; p < kDataSubcarriers; ++p) {
      unsigned index = 0;
      for (unsigned b = 0; b < n_bpsc; ++b) {
        index |= static_cast<unsigned>(interleaved[p * n_bpsc + b]) << b;
      }
      points[p] = table[index];
    }
    symbols.push_back(
        assemble_data_symbol(points, first_symbol_index + symbols.size()));
  }
  return symbols;
}

// The whole PPDU from the reference stages, bit by bit as 802.11 lays it
// out: preamble, SIG, then service + PSDU + tail + pad scrambled with
// the tail re-zeroed.
std::vector<FreqSymbol> reference_transmit(const util::ByteVec& psdu,
                                           unsigned mcs_index,
                                           std::uint8_t seed) {
  const McsParams& m = mcs(mcs_index);
  std::vector<FreqSymbol> symbols{stf_symbol(), ltf_symbol(), ltf_symbol()};
  const auto sig = reference_field(encode_sig(HtSig{mcs_index, psdu.size()}),
                                   Modulation::kBpsk, CodeRate::kHalf, 0);
  symbols.insert(symbols.end(), sig.begin(), sig.end());

  util::BitVec data(16, 0);  // service field
  for (const std::uint8_t byte : psdu) {
    for (unsigned i = 0; i < 8; ++i) {
      data.push_back(static_cast<std::uint8_t>((byte >> i) & 1u));
    }
  }
  const std::size_t tail_at = data.size();
  data.resize(data_symbols_for(psdu.size(), m) * m.n_dbps, 0);
  util::BitVec scrambled = detail::scramble_reference(data, seed);
  std::fill_n(scrambled.begin() + static_cast<std::ptrdiff_t>(tail_at), 6,
              std::uint8_t{0});
  const auto body =
      reference_field(scrambled, m.modulation, m.rate, kSigSymbols);
  symbols.insert(symbols.end(), body.begin(), body.end());
  return symbols;
}

class PpduAllMcs : public ::testing::TestWithParam<unsigned> {};

TEST_P(PpduAllMcs, CleanRoundTrip) {
  util::Rng rng(GetParam());
  const util::ByteVec psdu = rng.bytes(300);
  TxConfig cfg;
  cfg.mcs_index = GetParam();
  const TxPpdu ppdu = transmit(psdu, cfg);
  const RxResult rx = receive(ppdu.symbols, {});
  ASSERT_TRUE(rx.sig_ok);
  EXPECT_EQ(rx.sig.mcs_index, GetParam());
  EXPECT_EQ(rx.psdu, psdu);
}

TEST_P(PpduAllMcs, RoundTripThroughRandomChannelWithNoise) {
  util::Rng rng(100 + GetParam());
  const util::ByteVec psdu = rng.bytes(200);
  TxConfig cfg;
  cfg.mcs_index = GetParam();
  const TxPpdu ppdu = transmit(psdu, cfg);

  // Mild multipath-ish channel + 40 dB SNR (spread kept small enough
  // that the worst faded bin still clears 64-QAM 3/4's threshold).
  FreqSymbol h{};
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    h[bin] = Cx{1.0, 0.0} + 0.2 * rng.complex_normal(1.0);
  }
  const double noise_var = 1e-4;  // ~40 dB below unit power
  std::vector<FreqSymbol> rx_syms(ppdu.symbols.size());
  for (std::size_t s = 0; s < ppdu.symbols.size(); ++s) {
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      if (ppdu.symbols[s][bin] == Cx{} && h[bin] == Cx{}) continue;
      rx_syms[s][bin] =
          h[bin] * ppdu.symbols[s][bin] + rng.complex_normal(noise_var);
    }
  }
  const RxResult rx = receive(rx_syms, {});
  ASSERT_TRUE(rx.sig_ok);
  EXPECT_EQ(rx.psdu, psdu) << "MCS " << GetParam();
}

TEST_P(PpduAllMcs, DataSymbolCountMatchesMcsTable) {
  util::Rng rng(GetParam());
  const util::ByteVec psdu = rng.bytes(777);
  TxConfig cfg;
  cfg.mcs_index = GetParam();
  const TxPpdu ppdu = transmit(psdu, cfg);
  EXPECT_EQ(ppdu.n_data_symbols, data_symbols_for(psdu.size(), mcs(GetParam())));
  EXPECT_EQ(ppdu.symbols.size(), kHeaderSlots + ppdu.n_data_symbols);
}

// Nothing else pins transmit()'s exact symbols: the round-trip tests
// would pass if it changed its bits consistently with the receiver.
TEST_P(PpduAllMcs, TransmitMatchesReferenceChain) {
  for (const std::size_t length :
       {1u, 2u, 3u, 51u, 52u, 104u, 1500u, 4095u, 65535u}) {
    for (const std::uint8_t seed : {1, 0x5D, 127}) {
      util::Rng rng(length * 131 + seed);
      const util::ByteVec psdu = rng.bytes(length);
      TxConfig cfg;
      cfg.mcs_index = GetParam();
      cfg.scrambler_seed = seed;
      const TxPpdu ppdu = transmit(psdu, cfg);
      const std::vector<FreqSymbol> want =
          reference_transmit(psdu, GetParam(), seed);
      ASSERT_EQ(ppdu.symbols.size(), want.size())
          << "length " << length << " seed " << int(seed);
      for (std::size_t s = 0; s < want.size(); ++s) {
        ASSERT_EQ(std::memcmp(ppdu.symbols[s].data(), want[s].data(),
                              sizeof(FreqSymbol)),
                  0)
            << "length " << length << " seed " << int(seed) << " slot "
            << s;
      }
    }
  }
}

// One symbol's span of 2 * n_dbps mother-rate positions: the table must
// pick each position the puncturer keeps exactly once and no other.
TEST_P(PpduAllMcs, GatherTableHitsEveryKeptPositionOnce) {
  const McsParams& m = mcs(GetParam());
  const std::span<const std::uint16_t> table =
      detail::tx_gather_table(GetParam());
  ASSERT_EQ(table.size(), m.n_cbps);
  const std::span<const std::uint8_t> pattern = puncture_pattern(m.rate);
  std::vector<int> hits(2 * m.n_dbps, 0);
  for (const std::uint16_t pos : table) {
    ASSERT_LT(pos, hits.size());
    ++hits[pos];
  }
  for (std::size_t pos = 0; pos < hits.size(); ++pos) {
    EXPECT_EQ(hits[pos], pattern[pos % pattern.size()] ? 1 : 0)
        << "position " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMcs, PpduAllMcs,
                         ::testing::Range(0u, kNumMcs));

TEST(Ppdu, TransmitIntoAReusedPpduEqualsAFreshOne) {
  // A long MCS0 PPDU, then a short MCS7 one, then a long one again, all
  // into one TxPpdu: each must equal transmit() of the same PSDU.
  util::Rng rng(29);
  phy::TxPpdu reused;
  for (const auto& [mcs, bytes] :
       {std::pair{0u, 900}, std::pair{7u, 40}, std::pair{3u, 600}}) {
    const util::ByteVec psdu = rng.bytes(static_cast<std::size_t>(bytes));
    phy::TxConfig cfg;
    cfg.mcs_index = mcs;
    phy::transmit_into(psdu, cfg, reused);
    const phy::TxPpdu fresh = phy::transmit(psdu, cfg);
    EXPECT_EQ(reused.sig, fresh.sig) << "MCS " << mcs;
    EXPECT_EQ(reused.n_data_symbols, fresh.n_data_symbols) << "MCS " << mcs;
    EXPECT_TRUE(reused.symbols == fresh.symbols) << "MCS " << mcs;
  }
}

TEST(Ppdu, SlotKindsFollowLayout) {
  util::Rng rng(1);
  const util::ByteVec psdu = rng.bytes(64);
  const TxPpdu ppdu = transmit(psdu, {});
  EXPECT_EQ(ppdu.kind(0), SlotKind::kStf);
  EXPECT_EQ(ppdu.kind(1), SlotKind::kLtf);
  EXPECT_EQ(ppdu.kind(2), SlotKind::kLtf);
  EXPECT_EQ(ppdu.kind(3), SlotKind::kSig);
  EXPECT_EQ(ppdu.kind(4), SlotKind::kSig);
  EXPECT_EQ(ppdu.kind(5), SlotKind::kData);
  EXPECT_THROW(ppdu.kind(ppdu.size()), std::invalid_argument);
}

TEST(Ppdu, DurationIsFourMicrosecondsPerSlot) {
  util::Rng rng(2);
  const TxPpdu ppdu = transmit(rng.bytes(100), {});
  EXPECT_DOUBLE_EQ(ppdu.duration_us(), 4.0 * static_cast<double>(ppdu.size()));
}

TEST(Ppdu, PreambleSlotsCarryTrainingSymbols) {
  util::Rng rng(3);
  const TxPpdu ppdu = transmit(rng.bytes(32), {});
  EXPECT_EQ(ppdu.symbols[0], stf_symbol());
  EXPECT_EQ(ppdu.symbols[1], ltf_symbol());
  EXPECT_EQ(ppdu.symbols[2], ltf_symbol());
}

TEST(Ppdu, CorruptedSigIsDropped) {
  util::Rng rng(4);
  const TxPpdu ppdu = transmit(rng.bytes(50), {});
  std::vector<FreqSymbol> symbols = ppdu.symbols;
  // Destroy both SIG symbols.
  for (std::size_t s = kPreambleSlots; s < kHeaderSlots; ++s) {
    for (auto& v : symbols[s]) v = rng.complex_normal(1.0);
  }
  const RxResult rx = receive(symbols, {});
  EXPECT_FALSE(rx.sig_ok);
  EXPECT_TRUE(rx.psdu.empty());
}

TEST(Ppdu, MidFrameChannelChangeCorruptsOnlyThatRegion) {
  // The WiTAG mechanism at PHY granularity: flip the channel during a
  // band of data symbols; bytes decoded from other regions stay intact.
  util::Rng rng(5);
  const util::ByteVec psdu = rng.bytes(26 * 20);  // 20 symbols at MCS5
  TxConfig cfg;
  cfg.mcs_index = 5;
  const TxPpdu ppdu = transmit(psdu, cfg);

  std::vector<FreqSymbol> symbols = ppdu.symbols;
  const std::size_t first_data = kHeaderSlots;
  // Perturb a mid band of symbols with a per-subcarrier channel change,
  // the way a tag's extra reflected path does (a change common to all
  // subcarriers would be repaired by pilot CPE tracking).
  FreqSymbol delta{};
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    delta[bin] = 0.5 * rng.complex_normal(1.0);
  }
  const std::size_t from = first_data + 8;
  const std::size_t to = first_data + 12;
  for (std::size_t s = from; s < to && s < symbols.size(); ++s) {
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      symbols[s][bin] *= Cx{1.0, 0.0} + delta[bin];
    }
  }
  const RxResult rx = receive(symbols, {});
  ASSERT_TRUE(rx.sig_ok);
  ASSERT_EQ(rx.psdu.size(), psdu.size());

  // Region well before the disturbance decodes cleanly.
  const McsParams& m = mcs(5);
  const std::size_t bytes_per_symbol = m.n_dbps / 8;
  const std::size_t clean_until = (8 - 1) * bytes_per_symbol - 4;
  std::size_t mismatches_before = 0;
  for (std::size_t i = 0; i < clean_until; ++i) {
    mismatches_before += rx.psdu[i] != psdu[i] ? 1u : 0u;
  }
  EXPECT_EQ(mismatches_before, 0u);

  // The disturbed region itself must be corrupted.
  std::size_t mismatches_within = 0;
  for (std::size_t i = 8 * bytes_per_symbol; i < 12 * bytes_per_symbol; ++i) {
    mismatches_within += rx.psdu[i] != psdu[i] ? 1u : 0u;
  }
  EXPECT_GT(mismatches_within, 10u);
}

TEST(Ppdu, TimeDomainPathMatchesFrequencyPath) {
  util::Rng rng(6);
  const util::ByteVec psdu = rng.bytes(150);
  TxConfig cfg;
  cfg.mcs_index = 4;
  const TxPpdu ppdu = transmit(psdu, cfg);
  const util::CxVec samples = to_samples(ppdu);
  EXPECT_EQ(samples.size(), ppdu.size() * kSamplesPerSymbol);
  const RxResult rx = receive_samples(samples, {});
  ASSERT_TRUE(rx.sig_ok);
  EXPECT_EQ(rx.psdu, psdu);
}

TEST(Ppdu, RejectsBadInput) {
  EXPECT_THROW(transmit({}, {}), std::invalid_argument);
  util::Rng rng(7);
  const util::ByteVec big(65536, 0);
  EXPECT_THROW(transmit(big, {}), std::invalid_argument);
  const std::vector<FreqSymbol> few(3);
  EXPECT_THROW(receive(few, {}), std::invalid_argument);
  const util::CxVec ragged(81);
  EXPECT_THROW(receive_samples(ragged, {}), std::invalid_argument);
}

TEST(Ppdu, ScramblerSeedDoesNotAffectDecode) {
  util::Rng rng(8);
  const util::ByteVec psdu = rng.bytes(80);
  for (const std::uint8_t seed : {1, 55, 93, 127}) {
    TxConfig cfg;
    cfg.scrambler_seed = seed;
    const TxPpdu ppdu = transmit(psdu, cfg);
    const RxResult rx = receive(ppdu.symbols, {});
    ASSERT_TRUE(rx.sig_ok) << "seed " << int(seed);
    EXPECT_EQ(rx.psdu, psdu) << "seed " << int(seed);
  }
}

TEST(Ppdu, AllZeroChannelEstimateDropsThePpdu) {
  // A dead estimate (every LTF bin zero) makes the quantization scale 0:
  // the decoder sees only erasures and the header fails, without a throw
  // or a non-finite value on the way.
  util::Rng rng(9);
  const TxPpdu ppdu = transmit(rng.bytes(60), {});
  std::vector<FreqSymbol> symbols = ppdu.symbols;
  for (std::size_t s = kStfSlots; s < kPreambleSlots; ++s) symbols[s] = {};
  RxResult rx;
  ASSERT_NO_THROW(rx = receive(symbols, {}));
  EXPECT_FALSE(rx.sig_ok);
  EXPECT_TRUE(rx.psdu.empty());
  EXPECT_EQ(rx.estimate.mean_gain, 0.0);
  EXPECT_EQ(detail::llr_scale(rx.estimate, Modulation::kBpsk), 0.0);

  for (auto& sym : symbols) sym = {};
  ASSERT_NO_THROW(rx = receive(symbols, {}));
  EXPECT_FALSE(rx.sig_ok);
}

TEST(Ppdu, WarmScratchHoldsTheInt8Layout) {
  // The receive scratch after warm MCS5 decodes of an 8- and a
  // 64-subframe query (104-byte subframes): one byte per field LLR and
  // per depunctured LLR, 8 per trellis step of decisions, one per
  // decoded and descrambled bit, plus one symbol's double demap output
  // and equalizer buffers. Field and mother LLRs held as doubles would
  // take 262,716 and 2,033,212 bytes here.
  for (const std::size_t subframes : {8u, 64u}) {
    util::Rng rng(10 + subframes);
    TxConfig cfg;
    cfg.mcs_index = 5;
    const TxPpdu ppdu = transmit(rng.bytes(104 * subframes), cfg);
    DecodeScratch scratch;
    RxResult rx;
    for (int round = 0; round < 3; ++round) {
      receive_into(ppdu.symbols, {}, scratch, rx);
      ASSERT_TRUE(rx.sig_ok);
    }
    const McsParams& m = mcs(5);
    const std::size_t n_cbps = kDataSubcarriers * bits_per_symbol(m.modulation);
    const std::size_t field = ppdu.n_data_symbols * n_cbps;
    const std::size_t mother = 2 * (field * 2 / 3);  // rate 2/3
    const std::size_t steps = 16 + 8 * 104 * subframes + 6;
    const std::size_t layout = field + mother + 8 * steps + 2 * steps +
                               n_cbps * sizeof(double) +
                               kDataSubcarriers * (sizeof(Cx) + sizeof(double));
    EXPECT_LE(scratch.capacity_bytes(), layout) << subframes << " subframes";
    EXPECT_GT(subframes == 8 ? 262'716u : 2'033'212u, layout);
    EXPECT_EQ(obs::gauge("phy.decode.scratch_bytes").value(),
              static_cast<double>(scratch.capacity_bytes()));
  }
}

}  // namespace
}  // namespace witag::phy
