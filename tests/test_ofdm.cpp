#include "phy/ofdm.hpp"

#include <gtest/gtest.h>

#include <set>

#include "oracle/oracle.hpp"
#include "phy/scrambler.hpp"
#include "util/rng.hpp"

namespace witag::phy {
namespace {

using util::Cx;

TEST(Ofdm, BinIndexMapping) {
  EXPECT_EQ(bin_index(0), 0u);
  EXPECT_EQ(bin_index(1), 1u);
  EXPECT_EQ(bin_index(28), 28u);
  EXPECT_EQ(bin_index(-1), 63u);
  EXPECT_EQ(bin_index(-28), 36u);
  EXPECT_EQ(bin_index(-32), 32u);
  EXPECT_THROW(bin_index(32), std::invalid_argument);
  EXPECT_THROW(bin_index(-33), std::invalid_argument);
}

TEST(Ofdm, SubcarrierLayout) {
  const auto data = data_subcarriers();
  const auto pilots = pilot_subcarriers();
  EXPECT_EQ(data.size(), 52u);
  EXPECT_EQ(pilots.size(), 4u);

  std::set<int> all(data.begin(), data.end());
  for (const int p : pilots) {
    EXPECT_FALSE(all.contains(p)) << "pilot collides with data " << p;
    all.insert(p);
  }
  EXPECT_FALSE(all.contains(0)) << "DC must be unused";
  EXPECT_EQ(all.size(), 56u);
  for (const int k : all) {
    EXPECT_GE(k, -28);
    EXPECT_LE(k, 28);
  }
}

TEST(Ofdm, AssembleExtractRoundTrip) {
  util::Rng rng(1);
  util::CxVec points(52);
  for (Cx& p : points) p = rng.complex_normal(1.0);
  const FreqSymbol symbol = assemble_data_symbol(points, 3);
  const util::CxVec extracted = extract_data(symbol);
  ASSERT_EQ(extracted.size(), 52u);
  for (std::size_t i = 0; i < 52; ++i) {
    EXPECT_EQ(extracted[i], points[i]);
  }
}

TEST(Ofdm, PilotsFollowPolaritySequence) {
  const util::CxVec points(52, Cx{});
  for (const std::size_t sym : {0u, 1u, 5u, 126u, 127u}) {
    const FreqSymbol symbol = assemble_data_symbol(points, sym);
    const auto pilots = extract_pilots(symbol);
    const auto expected = pilot_values(sym);
    for (unsigned i = 0; i < kNumPilots; ++i) {
      EXPECT_EQ(pilots[i], expected[i]) << "symbol " << sym << " pilot " << i;
    }
  }
}

TEST(Ofdm, PilotBasePatternSigns) {
  // Base pattern {1,1,1,-1} times p_{n+1}; at symbol index where the
  // polarity is +1 the last pilot must be negative.
  const auto& pol = pilot_polarity_sequence();
  // Find a symbol with polarity +1 at p_{i+1}.
  std::size_t sym = 0;
  while (pol[(sym + 1) % 127] != 1) ++sym;
  const auto pilots = pilot_values(sym);
  EXPECT_DOUBLE_EQ(pilots[0].real(), 1.0);
  EXPECT_DOUBLE_EQ(pilots[3].real(), -1.0);
}

TEST(Ofdm, UnusedBinsAreZero) {
  util::Rng rng(2);
  util::CxVec points(52);
  for (Cx& p : points) p = rng.complex_normal(1.0);
  const FreqSymbol symbol = assemble_data_symbol(points, 0);
  EXPECT_EQ(symbol[bin_index(0)], Cx{});
  EXPECT_EQ(symbol[bin_index(29)], Cx{});
  EXPECT_EQ(symbol[bin_index(-29)], Cx{});
  EXPECT_EQ(symbol[32], Cx{});
}

TEST(Ofdm, TimeDomainRoundTrip) {
  util::Rng rng(3);
  util::CxVec points(52);
  for (Cx& p : points) p = rng.complex_normal(1.0);
  const FreqSymbol symbol = assemble_data_symbol(points, 7);
  const util::CxVec samples = to_time(symbol);
  ASSERT_EQ(samples.size(), kSamplesPerSymbol);
  // Strip the cyclic prefix and transform back with the reference FFT.
  util::CxVec back(samples.begin() + kCpLen, samples.end());
  oracle::fft_reference_inplace(back, /*inverse=*/false);
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    EXPECT_NEAR(std::abs(back[bin] - symbol[bin]), 0.0, 1e-10) << bin;
  }
}

TEST(Ofdm, CyclicPrefixIsCopyOfTail) {
  util::Rng rng(4);
  util::CxVec points(52);
  for (Cx& p : points) p = rng.complex_normal(1.0);
  const util::CxVec samples = to_time(assemble_data_symbol(points, 0));
  for (unsigned i = 0; i < kCpLen; ++i) {
    EXPECT_NEAR(std::abs(samples[i] - samples[kFftSize + i]), 0.0, 1e-12);
  }
}

TEST(Ofdm, RejectsWrongPointCount) {
  const util::CxVec points(51);
  EXPECT_THROW(assemble_data_symbol(points, 0), std::invalid_argument);
  const FreqSymbol symbol{};
  util::CxVec work;
  util::CxVec samples(kSamplesPerSymbol - 1);
  EXPECT_THROW(to_time_into(symbol, work, samples), std::invalid_argument);
}

}  // namespace
}  // namespace witag::phy
