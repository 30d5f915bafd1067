#include "phy/mimo.hpp"

#include <gtest/gtest.h>

#include "phy/constellation.hpp"
#include "util/rng.hpp"

namespace witag::phy::mimo {
namespace {

using util::Cx;

std::vector<Matrix2> random_channels(util::Rng& rng, std::size_t n) {
  std::vector<Matrix2> h(n);
  for (auto& m : h) {
    for (auto& row : m.m) {
      for (auto& e : row) e = Cx{1.0, 0.0} + 0.5 * rng.complex_normal(1.0);
    }
  }
  return h;
}

class MimoModulations : public ::testing::TestWithParam<Modulation> {};

TEST_P(MimoModulations, MapsStreamsAndAppliesChannelExactly) {
  // The transmit half MOXcatter runs: each stream maps like the SISO
  // constellation mapper, and every subcarrier's antennas receive
  // exactly y = H x.
  util::Rng rng(2);
  const unsigned n_bpsc = bits_per_symbol(GetParam());
  const util::BitVec s0 = rng.bits(kDataSubcarriers * n_bpsc);
  const util::BitVec s1 = rng.bits(kDataSubcarriers * n_bpsc);
  const MimoSymbol tx = map_symbol(s0, s1, GetParam());
  EXPECT_EQ(tx.points[0], map_bits(s0, GetParam()));
  EXPECT_EQ(tx.points[1], map_bits(s1, GetParam()));
  const auto h = random_channels(rng, kDataSubcarriers);
  const MimoSymbol rx = apply_channel(tx, h);
  for (unsigned antenna = 0; antenna < kStreams; ++antenna) {
    ASSERT_EQ(rx.points[antenna].size(), kDataSubcarriers);
    for (std::size_t k = 0; k < kDataSubcarriers; ++k) {
      const auto& row = h[k].m[antenna];
      EXPECT_EQ(rx.points[antenna][k],
                row[0] * tx.points[0][k] + row[1] * tx.points[1][k])
          << "antenna " << antenna << " subcarrier " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, MimoModulations,
                         ::testing::Values(Modulation::kBpsk,
                                           Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Mimo, CrossTalkActuallyMixes) {
  util::Rng rng(5);
  const util::BitVec s0 = rng.bits(kDataSubcarriers);
  const util::BitVec s1 = rng.bits(kDataSubcarriers);
  const MimoSymbol tx = map_symbol(s0, s1, Modulation::kBpsk);
  std::vector<Matrix2> h(kDataSubcarriers);
  for (auto& m : h) {
    m.m[0] = {Cx{1.0, 0.0}, Cx{0.7, 0.0}};
    m.m[1] = {Cx{0.2, 0.0}, Cx{1.0, 0.0}};
  }
  const MimoSymbol rx = apply_channel(tx, h);
  // Antenna 0 must differ from stream 0 alone wherever stream 1 is
  // non-zero (always, for BPSK).
  bool differs = false;
  for (std::size_t k = 0; k < kDataSubcarriers; ++k) {
    if (std::abs(rx.points[0][k] - tx.points[0][k]) > 0.1) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Mimo, ContractChecks) {
  util::Rng rng(6);
  const util::BitVec s0 = rng.bits(kDataSubcarriers);
  EXPECT_THROW(map_symbol(s0, rng.bits(10), Modulation::kBpsk),
               std::invalid_argument);
  const MimoSymbol tx = map_symbol(s0, s0, Modulation::kBpsk);
  EXPECT_THROW(apply_channel(tx, random_channels(rng, kDataSubcarriers - 1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace witag::phy::mimo
