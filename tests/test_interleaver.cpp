#include "phy/interleaver.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace witag::phy {
namespace {

class InterleaverParam : public ::testing::TestWithParam<Modulation> {};

TEST_P(InterleaverParam, DeinterleaveInvertsInterleave) {
  util::Rng rng(1);
  const unsigned n_cbps = kDataSubcarriers * bits_per_symbol(GetParam());
  const util::BitVec bits = rng.bits(n_cbps);
  EXPECT_EQ(deinterleave(interleave(bits, GetParam()), GetParam()), bits);
}

TEST_P(InterleaverParam, MapIsAPermutation) {
  const unsigned n_bpsc = bits_per_symbol(GetParam());
  const unsigned n_cbps = kDataSubcarriers * n_bpsc;
  const auto map = interleave_map(n_cbps, n_bpsc);
  std::vector<bool> seen(n_cbps, false);
  for (const std::size_t j : map) {
    ASSERT_LT(j, n_cbps);
    EXPECT_FALSE(seen[j]) << "duplicate target " << j;
    seen[j] = true;
  }
}

TEST_P(InterleaverParam, AdjacentCodedBitsLandOnDistantSubcarriers) {
  // The first permutation spreads adjacent coded bits ~Ncbps/13 apart;
  // they must never land on the same subcarrier.
  const unsigned n_bpsc = bits_per_symbol(GetParam());
  const unsigned n_cbps = kDataSubcarriers * n_bpsc;
  const auto map = interleave_map(n_cbps, n_bpsc);
  for (unsigned k = 0; k + 1 < n_cbps; ++k) {
    const auto sc_a = map[k] / n_bpsc;
    const auto sc_b = map[k + 1] / n_bpsc;
    EXPECT_NE(sc_a, sc_b) << "coded bits " << k << "," << k + 1;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModulations, InterleaverParam,
                         ::testing::Values(Modulation::kBpsk,
                                           Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Interleaver, RejectsWrongSize) {
  const util::BitVec bits(10, 0);
  EXPECT_THROW(interleave(bits, Modulation::kBpsk), std::invalid_argument);
  EXPECT_THROW(deinterleave(bits, Modulation::kBpsk), std::invalid_argument);
}

}  // namespace
}  // namespace witag::phy
