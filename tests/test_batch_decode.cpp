// Reused-decoder tests: phy::BatchDecoder, one scratch and one result
// around phy::receive_into(), must equal a fresh receive() PPDU for
// PPDU — across MCS/length mixes, noisy channels and broken PPDUs
// (corrupted SIG, truncated captures) decoded back to back through one
// decoder — and steady-state decode must not allocate.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

#include "obs/obs.hpp"
#include "phy/batch.hpp"
#include "phy/mcs.hpp"
#include "phy/ppdu.hpp"
#include "util/rng.hpp"

namespace witag {
namespace {

/// One prepared PPDU: the (possibly corrupted) symbol timeline plus
/// how much of it the receiver gets to see.
struct Capture {
  std::vector<phy::FreqSymbol> symbols;
  std::size_t visible = 0;

  std::span<const phy::FreqSymbol> view() const {
    return {symbols.data(), visible};
  }
};

void add_noise(std::vector<phy::FreqSymbol>& symbols, util::Rng& rng,
               double variance, std::size_t first_slot = 0) {
  for (std::size_t s = first_slot; s < symbols.size(); ++s) {
    for (util::Cx& bin : symbols[s]) bin += rng.complex_normal(variance);
  }
}

/// Builds `n` PPDUs, each with its own MCS and PSDU length; the regime
/// cycle plants clean, noisy, corrupted-SIG and truncated captures so
/// the decoder handles broken PPDUs exactly like receive() does.
std::vector<Capture> make_captures(std::size_t n, std::uint64_t seed) {
  std::vector<Capture> captures(n);
  for (std::size_t l = 0; l < n; ++l) {
    util::Rng rng(seed + l);
    phy::TxConfig tx;
    tx.mcs_index = static_cast<unsigned>(rng.uniform_int(phy::kNumMcs));
    const std::size_t length = 1 + rng.uniform_int(600);
    phy::TxPpdu ppdu = phy::transmit(rng.bytes(length), tx);
    Capture& cap = captures[l];
    cap.symbols = std::move(ppdu.symbols);
    cap.visible = cap.symbols.size();
    switch (l % 4) {
      case 0:  // clean
        break;
      case 1:  // noisy channel: expect occasional payload bit errors
        add_noise(cap.symbols, rng, 0.05);
        break;
      case 2:  // SIG destroyed: header CRC must fail in both paths
        add_noise(cap.symbols, rng, 50.0, phy::kPreambleSlots);
        break;
      default:  // truncated capture (header visible, data cut short)
        add_noise(cap.symbols, rng, 0.01);
        cap.visible = phy::kHeaderSlots +
                      (cap.symbols.size() - phy::kHeaderSlots) / 2;
        break;
    }
  }
  return captures;
}

void expect_parity(const phy::RxResult& got, const phy::RxResult& ref,
                   std::size_t index, std::size_t count) {
  ASSERT_EQ(got.sig_ok, ref.sig_ok) << "ppdu " << index << "/" << count;
  ASSERT_EQ(got.sig, ref.sig) << "ppdu " << index << "/" << count;
  ASSERT_EQ(got.psdu, ref.psdu) << "ppdu " << index << "/" << count;
}

TEST(BatchDecode, MatchesPerPpduReceiveAcrossLaneCounts) {
  phy::BatchDecoder decoder;  // one decoder across all shapes: buffers
  const phy::RxConfig cfg;    // sized by one PPDU must not leak into
  for (const std::size_t n : {1u, 3u, 8u, 17u}) {  // the next
    const std::vector<Capture> captures = make_captures(n, 0xBA'7C'00 + n);
    for (std::size_t l = 0; l < n; ++l) {
      const phy::RxResult& got = decoder.decode_one(captures[l].view(), cfg);
      const phy::RxResult ref = phy::receive(captures[l].view(), cfg);
      expect_parity(got, ref, l, n);
    }
  }
}

TEST(BatchDecode, DecodeOneMatchesReceive) {
  phy::BatchDecoder decoder;
  const phy::RxConfig cfg;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::vector<Capture> captures =
        make_captures(1, 0xD0'0E + 13 * trial);
    const phy::RxResult& got = decoder.decode_one(captures[0].view(), cfg);
    const phy::RxResult ref = phy::receive(captures[0].view(), cfg);
    expect_parity(got, ref, 0, 1);
  }
}

TEST(BatchDecode, BrokenLaneDoesNotLeakStaleHeader) {
  // A PPDU that decoded fine followed by one that fails SIG must come
  // back with a default header, exactly like a fresh receive() — the
  // reused result must not echo the old SIG.
  phy::BatchDecoder decoder;
  const phy::RxConfig cfg;
  std::vector<Capture> captures = make_captures(1, 0x57'A1);  // clean
  ASSERT_TRUE(decoder.decode_one(captures[0].view(), cfg).sig_ok);

  util::Rng rng(7);
  add_noise(captures[0].symbols, rng, 50.0, phy::kPreambleSlots);
  const phy::RxResult& got = decoder.decode_one(captures[0].view(), cfg);
  const phy::RxResult ref = phy::receive(captures[0].view(), cfg);
  expect_parity(got, ref, 0, 1);
  EXPECT_FALSE(got.sig_ok);
  EXPECT_EQ(got.sig, phy::HtSig{});
}

TEST(BatchDecode, SteadyStateDecodesWithoutAllocating) {
  phy::BatchDecoder decoder;
  const phy::RxConfig cfg;
  const std::vector<Capture> captures = make_captures(8, 0xA1'10C);

  // Two warm-up passes: the first sizes the buffers, the second
  // confirms the high-water mark before we start asserting.
  for (int pass = 0; pass < 2; ++pass) {
    for (const Capture& cap : captures) decoder.decode_one(cap.view(), cfg);
  }
  const std::size_t warm_capacity = decoder.capacity_bytes();
  ASSERT_GT(warm_capacity, 0u);

  const std::uint64_t reuses_before =
      obs::counter("phy.decode.scratch_reuses").value();
  constexpr std::size_t kPasses = 50;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (const Capture& cap : captures) {
      decoder.decode_one(cap.view(), cfg);
      ASSERT_EQ(decoder.capacity_bytes(), warm_capacity) << "pass " << pass;
    }
  }
  // Every steady-state decode, bad-SIG and truncated captures included,
  // must have taken the reuse (zero-alloc) path: the counter only
  // increments when no buffer grew.
  EXPECT_EQ(obs::counter("phy.decode.scratch_reuses").value(),
            reuses_before + kPasses * captures.size());
}

}  // namespace
}  // namespace witag
