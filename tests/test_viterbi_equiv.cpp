// Fuzz-equivalence tests for the optimized decode hot path: the int16
// butterfly Viterbi (on the reference's doubles cast from its int8
// LLRs), table-driven scrambler/encoder and slicing-by-8 CRC-32 must be
// bit-identical to the bit-serial reference implementations they
// replaced (kept under detail::).
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "obs/obs.hpp"
#include "phy/convolutional.hpp"
#include "phy/scrambler.hpp"
#include "phy/viterbi.hpp"
#include "util/bits.hpp"
#include "util/crc.hpp"
#include "util/rng.hpp"

namespace witag {
namespace {

using util::BitVec;

/// Random information bits ending in the 6 zero tail bits the decoder
/// assumes terminate the trellis.
BitVec random_info_bits(util::Rng& rng, std::size_t n_info) {
  BitVec bits(n_info, 0);
  for (std::size_t i = 0; i + phy::kConstraintLength - 1 < n_info; ++i) {
    bits[i] = static_cast<std::uint8_t>(rng.uniform_int(2));
  }
  return bits;
}

/// Maps coded bits to int8 LLRs (positive = bit 0) in one of several
/// fuzz regimes, including the degenerate ones the tie-breaking rules
/// exist for. A clean bit reads 32, the receiver's full scale.
std::vector<std::int8_t> fuzz_llrs(util::Rng& rng, const BitVec& coded,
                                   int regime) {
  std::vector<std::int8_t> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const int clean = coded[i] != 0 ? -32 : 32;
    int v = 0;
    switch (regime) {
      case 0:  // clean channel
        v = clean;
        break;
      case 1:  // moderate noise
        v = clean + static_cast<int>(rng.uniform_int(97)) - 48;
        break;
      case 2:  // extreme noise: sign and size are pure chance
        v = static_cast<int>(rng.uniform_int(256)) - 128;
        break;
      case 3:  // all ties: every add-compare-select is a tie
        v = 0;
        break;
      default:  // punctured-style erasures amid noise
        v = rng.uniform_int(3) == 0
                ? 0
                : clean + static_cast<int>(rng.uniform_int(33)) - 16;
        break;
    }
    llrs[i] = static_cast<std::int8_t>(v);
  }
  return llrs;
}

/// The reference decoder on the same LLRs cast to double.
BitVec reference_decode(const std::vector<std::int8_t>& llrs) {
  const std::vector<double> wide(llrs.begin(), llrs.end());
  return phy::detail::viterbi_reference(wide);
}

TEST(ViterbiEquiv, FuzzMatchesReferenceOverAllRegimes) {
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    util::Rng rng(0xE0'11'00 + trial);
    const std::size_t n_info = 8 + rng.uniform_int(201);
    const BitVec info = random_info_bits(rng, n_info);
    const BitVec coded = phy::detail::convolutional_encode_reference(info);
    const std::vector<std::int8_t> llrs =
        fuzz_llrs(rng, coded, static_cast<int>(trial % 5));

    const BitVec expect = reference_decode(llrs);
    phy::viterbi_decode(llrs, ws, decoded);
    ASSERT_EQ(decoded, expect) << "trial " << trial << " n_info " << n_info
                               << " regime " << trial % 5;
  }
}

TEST(ViterbiEquiv, AllTiesDecodeToAllZeros) {
  // Zero LLRs tie every branch; both decoders must resolve ties the
  // same way, which lands on the all-zeros path (state 0 throughout).
  const std::vector<std::int8_t> llrs(2 * 64, 0);
  const BitVec expect(64, 0);
  EXPECT_EQ(reference_decode(llrs), expect);
  EXPECT_EQ(phy::viterbi_decode(llrs), expect);
}

TEST(ViterbiEquiv, WorkspaceReusesWithoutGrowing) {
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  util::Rng rng(77);
  const BitVec info = random_info_bits(rng, 1536);
  const BitVec coded = phy::convolutional_encode(info);
  const std::vector<std::int8_t> llrs = fuzz_llrs(rng, coded, 0);

  phy::viterbi_decode(llrs, ws, decoded);  // warm-up sizes the buffers
  EXPECT_EQ(decoded, info);
  const std::size_t warm_capacity = ws.capacity_bytes();
  ASSERT_GT(warm_capacity, 0u);

  const std::uint64_t reuses_before =
      obs::counter("phy.viterbi.workspace_reuses").value();
  constexpr int kRounds = 100;
  for (int round = 0; round < kRounds; ++round) {
    phy::viterbi_decode(llrs, ws, decoded);
    ASSERT_EQ(decoded, info) << "round " << round;
    ASSERT_EQ(ws.capacity_bytes(), warm_capacity) << "round " << round;
  }
  // Every steady-state decode must have taken the reuse (zero-alloc)
  // path: the counter only increments when existing capacity sufficed.
  EXPECT_EQ(obs::counter("phy.viterbi.workspace_reuses").value(),
            reuses_before + kRounds);
}

TEST(DecodePipelineParity, ScramblerTableMatchesBitSerial) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0x5C'4A + trial);
    const std::size_t n = 7 + rng.uniform_int(2000);
    BitVec bits(n);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    const auto seed =
        static_cast<std::uint8_t>(1 + rng.uniform_int(127));

    EXPECT_EQ(phy::scramble(bits, seed),
              phy::detail::scramble_reference(bits, seed))
        << "trial " << trial;
    const BitVec expect = phy::detail::descramble_recover_reference(bits);
    EXPECT_EQ(phy::descramble_recover(bits), expect) << "trial " << trial;
    BitVec out;
    phy::descramble_recover_into(bits, out);
    EXPECT_EQ(out, expect) << "trial " << trial;
  }
}

TEST(DecodePipelineParity, EncoderLutMatchesBitSerial) {
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xEC'0D + trial);
    BitVec bits(1 + rng.uniform_int(1200));
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2));
    EXPECT_EQ(phy::convolutional_encode(bits),
              phy::detail::convolutional_encode_reference(bits))
        << "trial " << trial;
  }
}

TEST(DecodePipelineParity, Crc32SlicingMatchesBytewise) {
  // Every length 0..4097 with random content, fed both whole and split
  // at an odd offset to exercise the incremental-state path.
  util::Rng rng(0xC3C3);
  std::vector<std::uint8_t> buf(4097);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (std::size_t len = 0; len <= buf.size(); ++len) {
    const std::span<const std::uint8_t> data(buf.data(), len);
    const std::uint32_t expect =
        util::detail::crc32_update_bytewise(util::crc32_init(), data);
    ASSERT_EQ(util::crc32_update(util::crc32_init(), data), expect)
        << "len " << len;
    const std::size_t cut = len / 3;
    std::uint32_t split = util::crc32_init();
    split = util::crc32_update(split, data.first(cut));
    split = util::crc32_update(split, data.subspan(cut));
    ASSERT_EQ(split, expect) << "len " << len;
  }
}

TEST(DecodePipelineParity, Crc32KnownVectors) {
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(util::crc32(check), 0xCBF43926u);
  EXPECT_EQ(util::crc32(std::span<const std::uint8_t>{}), 0x00000000u);
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(util::crc32(zeros), 0x2144DF1Cu);
}

}  // namespace
}  // namespace witag
