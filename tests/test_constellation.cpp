#include "phy/constellation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "oracle/oracle.hpp"
#include "util/rng.hpp"

namespace witag::phy {
namespace {

using util::Cx;

// The reference soft demap with one noise variance for every point.
std::vector<double> reference_llrs(std::span<const Cx> points,
                                   Modulation mod, double noise_var) {
  const std::vector<double> vars(points.size(), noise_var);
  return oracle::demap_soft_reference(points, mod, vars);
}

class ConstellationParam : public ::testing::TestWithParam<Modulation> {};

TEST_P(ConstellationParam, UnitAveragePower) {
  const auto points = constellation_points(GetParam());
  double power = 0.0;
  for (const Cx& p : points) power += std::norm(p);
  EXPECT_NEAR(power / static_cast<double>(points.size()), 1.0, 1e-12);
}

TEST_P(ConstellationParam, MapDemapRoundTrip) {
  util::Rng rng(17);
  const unsigned n = bits_per_symbol(GetParam());
  const util::BitVec bits = rng.bits(n * 200);
  const util::CxVec points = map_bits(bits, GetParam());
  EXPECT_EQ(points.size(), 200u);
  EXPECT_EQ(demap_hard(points, GetParam()), bits);
}

TEST_P(ConstellationParam, SoftDemapSignsMatchHardDecisions) {
  util::Rng rng(18);
  const unsigned n = bits_per_symbol(GetParam());
  const util::BitVec bits = rng.bits(n * 100);
  const util::CxVec points = map_bits(bits, GetParam());
  const auto llrs = reference_llrs(points, GetParam(), 0.01);
  ASSERT_EQ(llrs.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    // Positive LLR favors 0; a clean point must agree with its bit.
    if (bits[i]) {
      EXPECT_LT(llrs[i], 0.0) << "bit " << i;
    } else {
      EXPECT_GT(llrs[i], 0.0) << "bit " << i;
    }
  }
}

TEST_P(ConstellationParam, SoftDemapScalesInverselyWithNoise) {
  const unsigned n = bits_per_symbol(GetParam());
  const util::BitVec bits(n, 0);
  const util::CxVec points = map_bits(bits, GetParam());
  const auto tight = reference_llrs(points, GetParam(), 0.01);
  const auto loose = reference_llrs(points, GetParam(), 1.0);
  for (std::size_t i = 0; i < tight.size(); ++i) {
    EXPECT_NEAR(tight[i], loose[i] * 100.0, 1e-9);
  }
}

TEST_P(ConstellationParam, HardDemapRobustToSmallNoise) {
  util::Rng rng(19);
  const unsigned n = bits_per_symbol(GetParam());
  const util::BitVec bits = rng.bits(n * 500);
  util::CxVec points = map_bits(bits, GetParam());
  for (Cx& p : points) p += rng.complex_normal(1e-6);
  EXPECT_EQ(demap_hard(points, GetParam()), bits);
}

INSTANTIATE_TEST_SUITE_P(AllModulations, ConstellationParam,
                         ::testing::Values(Modulation::kBpsk,
                                           Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Constellation, BpskIsReal) {
  const auto points = constellation_points(Modulation::kBpsk);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].imag(), 0.0);
  EXPECT_DOUBLE_EQ(points[1].imag(), 0.0);
  EXPECT_DOUBLE_EQ(points[0].real(), -1.0);  // bit 0 -> -1
  EXPECT_DOUBLE_EQ(points[1].real(), 1.0);
}

TEST(Constellation, Qam16GrayNeighbors) {
  // Adjacent I levels differ in exactly one bit of the I bit pair.
  // Levels -3,-1,1,3 map from bits 00,01,11,10.
  const unsigned order[4] = {0b00, 0b01, 0b11, 0b10};
  for (int i = 0; i + 1 < 4; ++i) {
    const unsigned x = order[i] ^ order[i + 1];
    EXPECT_EQ(x & (x - 1), 0u) << "not gray at " << i;
  }
}

TEST(Constellation, RejectsRaggedBits) {
  const util::BitVec bits(3, 0);
  EXPECT_THROW(map_bits(bits, Modulation::kQpsk), std::invalid_argument);
}

TEST(Constellation, RejectsNonPositiveNoise) {
  const util::CxVec points{{1.0, 0.0}};
  EXPECT_THROW(reference_llrs(points, Modulation::kBpsk, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace witag::phy
