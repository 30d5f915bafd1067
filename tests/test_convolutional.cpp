#include "phy/convolutional.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "phy/viterbi.hpp"
#include "util/rng.hpp"

namespace witag::phy {
namespace {

// Appends the 6 zero tail bits that terminate the trellis.
util::BitVec with_tail(util::BitVec bits) {
  bits.insert(bits.end(), 6, 0);
  return bits;
}

// Clean int8 LLRs at the receiver's full scale (a clean bit reads 32).
std::vector<std::int8_t> to_llrs(const util::BitVec& coded) {
  std::vector<std::int8_t> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llrs[i] = coded[i] ? -32 : 32;
  }
  return llrs;
}

std::vector<std::int8_t> depuncture(std::span<const std::int8_t> llrs,
                                    CodeRate rate, std::size_t n_coded) {
  std::vector<std::int8_t> out;
  depuncture_into(llrs, rate, n_coded, out);
  return out;
}

TEST(Convolutional, ImpulseResponseMatchesGenerators) {
  // A single 1 followed by zeros emits the generator taps over time:
  // output A bits = taps of 133 (octal) MSB-first, B = 171 (octal).
  util::BitVec impulse{1, 0, 0, 0, 0, 0, 0};
  const util::BitVec coded = convolutional_encode(impulse);
  ASSERT_EQ(coded.size(), 14u);
  const int a_taps[7] = {1, 0, 1, 1, 0, 1, 1};  // 133 octal
  const int b_taps[7] = {1, 1, 1, 1, 0, 0, 1};  // 171 octal
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(coded[static_cast<std::size_t>(2 * i)], a_taps[i]) << i;
    EXPECT_EQ(coded[static_cast<std::size_t>(2 * i + 1)], b_taps[i]) << i;
  }
}

TEST(Convolutional, OutputIsTwiceInput) {
  util::Rng rng(1);
  const util::BitVec bits = rng.bits(123);
  EXPECT_EQ(convolutional_encode(bits).size(), 246u);
}

TEST(Convolutional, LinearOverXor) {
  util::Rng rng(2);
  const util::BitVec a = rng.bits(64);
  const util::BitVec b = rng.bits(64);
  util::BitVec x(64);
  for (int i = 0; i < 64; ++i) x[i] = a[i] ^ b[i];
  const auto ca = convolutional_encode(a);
  const auto cb = convolutional_encode(b);
  const auto cx = convolutional_encode(x);
  for (std::size_t i = 0; i < cx.size(); ++i) {
    EXPECT_EQ(cx[i], ca[i] ^ cb[i]);
  }
}

class PunctureRates : public ::testing::TestWithParam<CodeRate> {};

TEST_P(PunctureRates, LengthMatchesRate) {
  const auto frac = rate_fraction(GetParam());
  // Pick a mother length that is a multiple of the pattern period.
  const std::size_t mother = 2 * frac.num * 30;
  util::Rng rng(3);
  const util::BitVec coded = rng.bits(mother);
  const util::BitVec punct = puncture(coded, GetParam());
  // mother bits carry mother/2 info bits; punctured length =
  // info * den / num.
  EXPECT_EQ(punct.size(), (mother / 2) * frac.den / frac.num);
  EXPECT_EQ(punctured_length(mother, GetParam()), punct.size());
}

TEST_P(PunctureRates, DepunctureRestoresPositions) {
  const auto frac = rate_fraction(GetParam());
  const std::size_t mother = 2 * frac.num * 20;
  util::Rng rng(4);
  const util::BitVec coded = rng.bits(mother);
  const util::BitVec punct = puncture(coded, GetParam());
  std::vector<std::int8_t> llrs(punct.size());
  for (std::size_t i = 0; i < punct.size(); ++i) {
    llrs[i] = punct[i] ? -1 : 1;
  }
  const auto restored = depuncture(llrs, GetParam(), mother);
  ASSERT_EQ(restored.size(), mother);
  std::size_t erasures = 0;
  std::size_t src = 0;
  for (std::size_t i = 0; i < mother; ++i) {
    if (restored[i] == 0) {
      ++erasures;
    } else {
      EXPECT_EQ(restored[i] < 0, punct[src] == 1);
      ++src;
    }
  }
  EXPECT_EQ(erasures, mother - punct.size());
}

TEST_P(PunctureRates, EndToEndWithViterbi) {
  util::Rng rng(5);
  const auto frac = rate_fraction(GetParam());
  // Whole number of puncture periods after the tail.
  const std::size_t n_info = 2 * frac.num * 25 / 2 - 6;
  const util::BitVec info = rng.bits(n_info);
  const util::BitVec tailed = with_tail(info);
  const util::BitVec mother = convolutional_encode(tailed);
  const util::BitVec punct = puncture(mother, GetParam());
  const std::vector<std::int8_t> llrs = to_llrs(punct);
  const auto restored = depuncture(llrs, GetParam(), mother.size());
  const util::BitVec decoded = viterbi_decode(restored);
  ASSERT_EQ(decoded.size(), tailed.size());
  for (std::size_t i = 0; i < n_info; ++i) {
    EXPECT_EQ(decoded[i], info[i]) << "bit " << i;
  }
}

// `%`-indexed puncture and depuncture, the specification the
// period-walking implementations are checked against.
util::BitVec modulo_puncture(const util::BitVec& coded, CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  util::BitVec out;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (pattern[i % pattern.size()]) out.push_back(coded[i]);
  }
  return out;
}

std::vector<std::int8_t> modulo_depuncture(
    const std::vector<std::int8_t>& llrs, CodeRate rate, std::size_t n_coded) {
  const auto pattern = puncture_pattern(rate);
  std::vector<std::int8_t> out(n_coded, 0);
  std::size_t src = 0;
  for (std::size_t i = 0; i < n_coded; ++i) {
    if (pattern[i % pattern.size()]) out[i] = llrs[src++];
  }
  return out;
}

TEST_P(PunctureRates, PartialPeriodsMatchModuloReference) {
  util::Rng rng(11);
  for (std::size_t mother = 2; mother <= 64; ++mother) {
    const util::BitVec coded = rng.bits(mother);
    const util::BitVec want = modulo_puncture(coded, GetParam());
    EXPECT_EQ(puncture(coded, GetParam()), want) << "mother " << mother;
    EXPECT_EQ(punctured_length(mother, GetParam()), want.size());
    if (mother % 2 != 0) continue;  // depuncture restores whole pairs
    std::vector<std::int8_t> llrs(want.size());
    for (std::size_t i = 0; i < llrs.size(); ++i) {
      const auto magnitude = static_cast<std::int8_t>(i + 1);  // <= 64
      llrs[i] = static_cast<std::int8_t>(want[i] ? -magnitude : magnitude);
    }
    EXPECT_EQ(depuncture(llrs, GetParam(), mother),
              modulo_depuncture(llrs, GetParam(), mother))
        << "mother " << mother;
  }
}

TEST_P(PunctureRates, DepunctureIntoReusedBufferWritesZeroErasures) {
  util::Rng rng(12);
  const std::size_t mother = 210;
  std::vector<std::int8_t> out;
  depuncture_into(std::vector<std::int8_t>(
                      punctured_length(2 * mother, GetParam()), 1),
                  GetParam(), 2 * mother, out);
  for (auto& v : out) {  // longer, non-zero
    v = static_cast<std::int8_t>(1 + rng.uniform_int(100));
  }

  std::vector<std::int8_t> llrs(punctured_length(mother, GetParam()));
  for (auto& v : llrs) v = static_cast<std::int8_t>(-1 - rng.uniform_int(100));
  depuncture_into(llrs, GetParam(), mother, out);
  const std::vector<std::int8_t> want =
      modulo_depuncture(llrs, GetParam(), mother);
  ASSERT_EQ(out.size(), mother);
  const auto pattern = puncture_pattern(GetParam());
  for (std::size_t i = 0; i < mother; ++i) {
    if (pattern[i % pattern.size()] == 0) {
      EXPECT_EQ(out[i], 0) << "erasure " << i;
    } else {
      EXPECT_EQ(out[i], want[i]) << "kept " << i;
    }
  }
}

TEST_P(PunctureRates, DepunctureRejectsLengthMismatch) {
  const std::size_t mother = 60;
  const std::size_t n = punctured_length(mother, GetParam());
  std::vector<std::int8_t> out;
  EXPECT_THROW(depuncture_into(std::vector<std::int8_t>(n + 1, 1), GetParam(),
                               mother, out),
               std::invalid_argument);
  EXPECT_THROW(depuncture_into(std::vector<std::int8_t>(n - 1, 1), GetParam(),
                               mother, out),
               std::invalid_argument);
  EXPECT_THROW(depuncture_into(std::vector<std::int8_t>(n, 1), GetParam(),
                               mother + 2, out),
               std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllRates, PunctureRates,
                         ::testing::Values(CodeRate::kHalf,
                                           CodeRate::kTwoThirds,
                                           CodeRate::kThreeQuarters,
                                           CodeRate::kFiveSixths));

TEST(Viterbi, DecodesCleanStream) {
  util::Rng rng(6);
  const util::BitVec info = rng.bits(400);
  const util::BitVec tailed = with_tail(info);
  const util::BitVec coded = convolutional_encode(tailed);
  const util::BitVec decoded = viterbi_decode(to_llrs(coded));
  EXPECT_EQ(decoded, tailed);
}

TEST(Viterbi, CorrectsScatteredErrors) {
  util::Rng rng(7);
  const util::BitVec info = rng.bits(300);
  const util::BitVec tailed = with_tail(info);
  util::BitVec coded = convolutional_encode(tailed);
  // Flip isolated bits, well separated (free distance 10 at rate 1/2).
  for (std::size_t pos = 10; pos + 60 < coded.size(); pos += 60) {
    coded[pos] ^= 1;
  }
  const util::BitVec decoded = viterbi_decode(to_llrs(coded));
  EXPECT_EQ(decoded, tailed);
}

TEST(Viterbi, SoftErasuresAreHarmless) {
  util::Rng rng(8);
  const util::BitVec info = rng.bits(200);
  const util::BitVec tailed = with_tail(info);
  const util::BitVec coded = convolutional_encode(tailed);
  auto llrs = to_llrs(coded);
  // Zero out scattered positions (erasures).
  for (std::size_t pos = 5; pos < llrs.size(); pos += 40) llrs[pos] = 0;
  EXPECT_EQ(viterbi_decode(llrs), tailed);
}

TEST(Viterbi, FailsGracefullyOnGarbage) {
  util::Rng rng(9);
  std::vector<std::int8_t> llrs(512);
  for (auto& l : llrs) {
    l = static_cast<std::int8_t>(std::clamp(32.0 * rng.normal(), -127.0, 127.0));
  }
  const util::BitVec decoded = viterbi_decode(llrs);
  EXPECT_EQ(decoded.size(), 256u);  // still returns the right shape
}

TEST(Viterbi, RejectsOddLlrCount) {
  const std::vector<std::int8_t> llrs(3, 1);
  EXPECT_THROW(viterbi_decode(llrs), std::invalid_argument);
  EXPECT_THROW(viterbi_decode({}), std::invalid_argument);
}

TEST(Viterbi, RandomPayloadSweep) {
  util::Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 16 + rng.uniform_int(400);
    const util::BitVec info = rng.bits(n);
    const util::BitVec tailed = with_tail(info);
    const util::BitVec coded = convolutional_encode(tailed);
    EXPECT_EQ(viterbi_decode(to_llrs(coded)), tailed) << "trial " << trial;
  }
}

}  // namespace
}  // namespace witag::phy
