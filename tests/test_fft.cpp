#include "phy/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "oracle/oracle.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace witag::phy {
namespace {

using util::Cx;
using util::CxVec;

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, InverseRecoversInput) {
  util::Rng rng(GetParam());
  CxVec data(GetParam());
  for (Cx& x : data) x = rng.complex_normal(1.0);
  const CxVec spectrum = fft(data);
  const CxVec back = ifft(spectrum);
  ASSERT_EQ(back.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(back[i].real(), data[i].real(), 1e-10);
    EXPECT_NEAR(back[i].imag(), data[i].imag(), 1e-10);
  }
}

TEST_P(FftSizes, ParsevalEnergyPreserved) {
  util::Rng rng(GetParam() + 1);
  CxVec data(GetParam());
  for (Cx& x : data) x = rng.complex_normal(1.0);
  const CxVec spectrum = fft(data);
  EXPECT_NEAR(util::energy(spectrum), util::energy(data), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  CxVec data(64, Cx{});
  data[0] = Cx{1.0, 0.0};
  const CxVec spectrum = fft(data);
  const double expected = 1.0 / std::sqrt(64.0);
  for (const Cx& s : spectrum) {
    EXPECT_NEAR(s.real(), expected, 1e-12);
    EXPECT_NEAR(s.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInItsBin) {
  const std::size_t n = 64;
  const int k = 5;
  CxVec data(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase = 2.0 * util::kPi * k * static_cast<double>(i) /
                         static_cast<double>(n);
    data[i] = Cx{std::cos(phase), std::sin(phase)};
  }
  const CxVec spectrum = fft(data);
  for (std::size_t bin = 0; bin < n; ++bin) {
    if (bin == static_cast<std::size_t>(k)) {
      EXPECT_NEAR(std::abs(spectrum[bin]), std::sqrt(64.0), 1e-9);
    } else {
      EXPECT_NEAR(std::abs(spectrum[bin]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, DcBinIsScaledSum) {
  CxVec data(8, Cx{2.0, 0.0});
  const CxVec spectrum = fft(data);
  EXPECT_NEAR(spectrum[0].real(), 16.0 / std::sqrt(8.0), 1e-12);
  for (std::size_t bin = 1; bin < 8; ++bin) {
    EXPECT_NEAR(std::abs(spectrum[bin]), 0.0, 1e-12);
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  CxVec data(48);
  EXPECT_THROW(fft_inplace(data), std::invalid_argument);
  CxVec empty;
  EXPECT_THROW(fft_inplace(empty), std::invalid_argument);
}

// The cached-plan transform must be *bit-identical* to the reference
// implementation it replaced: the plan tables are built with the same
// incremental twiddle recurrence, so every seeded test and bench output
// in the repo is unchanged by the cache. Exact equality, no tolerance.
class FftPlanParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanParity, PlannedMatchesReferenceBitwise) {
  const std::size_t n = GetParam();
  util::Rng rng(n * 7 + 3);
  CxVec data(n);
  for (Cx& x : data) x = rng.complex_normal(1.0);
  for (const bool inverse : {false, true}) {
    CxVec planned = data;
    CxVec reference = data;
    if (inverse) {
      ifft_inplace(planned);
    } else {
      fft_inplace(planned);
    }
    oracle::fft_reference_inplace(reference, inverse);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(planned[i].real(), reference[i].real()) << "bin " << i;
      EXPECT_EQ(planned[i].imag(), reference[i].imag()) << "bin " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SimulatorSizes, FftPlanParity,
                         ::testing::Values(64, 128, 256));

TEST(Fft, PlanCacheReusesPlans) {
  CxVec data(32);
  fft_inplace(data);
  const std::size_t before = detail::fft_plan_count();
  // Same length again: served from the cache, no new plan.
  fft_inplace(data);
  ifft_inplace(data);
  EXPECT_EQ(detail::fft_plan_count(), before);
}

TEST(Fft, LinearityHolds) {
  util::Rng rng(9);
  CxVec a(64), b(64), sum(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = rng.complex_normal(1.0);
    b[i] = rng.complex_normal(1.0);
    sum[i] = a[i] + b[i];
  }
  const CxVec fa = fft(a);
  const CxVec fb = fft(b);
  const CxVec fsum = fft(sum);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(std::abs(fsum[i] - fa[i] - fb[i]), 0.0, 1e-10);
  }
}

}  // namespace
}  // namespace witag::phy
