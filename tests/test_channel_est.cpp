#include "phy/channel_est.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>

#include "oracle/oracle.hpp"
#include "phy/constellation.hpp"
#include "phy/preamble.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace witag::phy {
namespace {

using util::Cx;

// Applies a per-bin channel to a symbol.
FreqSymbol through(const FreqSymbol& x, const FreqSymbol& h) {
  FreqSymbol y{};
  for (unsigned bin = 0; bin < kFftSize; ++bin) y[bin] = h[bin] * x[bin];
  return y;
}

// Equalizes data symbol 0 through the receiver's own calls: the plan
// of `est`, then the symbol's points, with the plan's noise variances.
oracle::EqualizedSymbol equalize_symbol(const FreqSymbol& rx,
                                const ChannelEstimate& est,
                                bool cpe_correction) {
  EqualizerPlan plan;
  plan_equalizer(est, plan);
  std::array<double, kDataSubcarriers> re, im;
  equalize_points(rx, est, plan, 0, cpe_correction, re.data(), im.data());
  oracle::EqualizedSymbol out;
  for (std::size_t i = 0; i < kDataSubcarriers; ++i) {
    out.points.emplace_back(re[i], im[i]);
  }
  out.noise_vars.assign(plan.noise_vars.begin(), plan.noise_vars.end());
  return out;
}

FreqSymbol random_channel(util::Rng& rng) {
  FreqSymbol h{};
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    // Non-zero gain everywhere; magnitude spread around 1.
    h[bin] = Cx{1.0, 0.0} + 0.4 * rng.complex_normal(1.0);
  }
  return h;
}

TEST(ChannelEst, PerfectEstimateOnCleanLtf) {
  util::Rng rng(1);
  const FreqSymbol h = random_channel(rng);
  const FreqSymbol rx = through(ltf_symbol(), h);
  const std::vector<FreqSymbol> ltfs{rx, rx};
  const ChannelEstimate est = estimate_channel(ltfs);
  for (const int k : data_subcarriers()) {
    const unsigned bin = bin_index(k);
    EXPECT_NEAR(std::abs(est.h[bin] - h[bin]), 0.0, 1e-12) << "sc " << k;
  }
  EXPECT_GT(est.mean_gain, 0.5);
}

TEST(ChannelEst, AveragingTwoLtfsReducesNoise) {
  util::Rng rng(2);
  const FreqSymbol h = random_channel(rng);
  const double noise_var = 0.01;
  double err_one = 0.0;
  double err_two = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    FreqSymbol rx1 = through(ltf_symbol(), h);
    FreqSymbol rx2 = rx1;
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      if (ltf_symbol()[bin] == Cx{}) continue;
      rx1[bin] += rng.complex_normal(noise_var);
      rx2[bin] += rng.complex_normal(noise_var);
    }
    const ChannelEstimate one = estimate_channel({&rx1, 1});
    const std::vector<FreqSymbol> both{rx1, rx2};
    const ChannelEstimate two = estimate_channel(both);
    for (const int k : data_subcarriers()) {
      const unsigned bin = bin_index(k);
      err_one += std::norm(one.h[bin] - h[bin]);
      err_two += std::norm(two.h[bin] - h[bin]);
    }
  }
  EXPECT_LT(err_two, err_one);
}

TEST(ChannelEst, NoiseVarianceEstimateIsCalibrated) {
  util::Rng rng(3);
  const FreqSymbol h = random_channel(rng);
  const double noise_var = 0.02;
  double acc = 0.0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    FreqSymbol rx1 = through(ltf_symbol(), h);
    FreqSymbol rx2 = rx1;
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      if (ltf_symbol()[bin] == Cx{}) continue;
      rx1[bin] += rng.complex_normal(noise_var);
      rx2[bin] += rng.complex_normal(noise_var);
    }
    const std::vector<FreqSymbol> both{rx1, rx2};
    acc += estimate_channel(both).noise_var;
  }
  EXPECT_NEAR(acc / trials, noise_var, noise_var * 0.15);
}

TEST(ChannelEst, EqualizeRecoversConstellation) {
  util::Rng rng(4);
  const FreqSymbol h = random_channel(rng);
  const util::BitVec bits = rng.bits(52 * 2);
  const util::CxVec points = map_bits(bits, Modulation::kQpsk);
  const FreqSymbol tx = assemble_data_symbol(points, 0);
  const FreqSymbol rx = through(tx, h);

  const FreqSymbol ltf_rx = through(ltf_symbol(), h);
  const std::vector<FreqSymbol> ltfs{ltf_rx, ltf_rx};
  const ChannelEstimate est = estimate_channel(ltfs);
  const oracle::EqualizedSymbol eq = equalize_symbol(rx, est, true);
  ASSERT_EQ(eq.points.size(), 52u);
  EXPECT_EQ(demap_hard(eq.points, Modulation::kQpsk), bits);
}

TEST(ChannelEst, CpeCorrectionRemovesCommonRotation) {
  util::Rng rng(5);
  const FreqSymbol h = random_channel(rng);
  const util::BitVec bits = rng.bits(52 * 2);
  const util::CxVec points = map_bits(bits, Modulation::kQpsk);
  FreqSymbol rx = through(assemble_data_symbol(points, 0), h);
  // Apply a 40-degree common rotation (residual CFO).
  const Cx rot = std::polar(1.0, 40.0 * util::kPi / 180.0);
  for (auto& v : rx) v *= rot;

  const FreqSymbol ltf_rx = through(ltf_symbol(), h);
  const std::vector<FreqSymbol> ltfs{ltf_rx, ltf_rx};
  const ChannelEstimate est = estimate_channel(ltfs);

  const oracle::EqualizedSymbol with = equalize_symbol(rx, est, true);
  EXPECT_EQ(demap_hard(with.points, Modulation::kQpsk), bits);

  const oracle::EqualizedSymbol without = equalize_symbol(rx, est, false);
  // 40 degrees pushes QPSK close to/over decision boundaries; the
  // uncorrected points must be measurably worse.
  double err_with = 0.0;
  double err_without = 0.0;
  for (std::size_t i = 0; i < 52; ++i) {
    err_with += std::norm(with.points[i] - points[i]);
    err_without += std::norm(without.points[i] - points[i]);
  }
  EXPECT_LT(err_with, err_without * 0.2);
}

TEST(ChannelEst, StaleEstimateBreaksEqualization) {
  // The WiTAG lever: estimate on one channel, receive through another.
  util::Rng rng(6);
  const FreqSymbol h_est = random_channel(rng);
  FreqSymbol h_changed = h_est;
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    h_changed[bin] *= std::polar(1.0, 0.6);  // tag-like perturbation
    h_changed[bin] += 0.2 * rng.complex_normal(1.0);
  }
  const util::BitVec bits = rng.bits(52 * 6);
  const util::CxVec points = map_bits(bits, Modulation::kQam64);
  const FreqSymbol rx = through(assemble_data_symbol(points, 0), h_changed);

  const FreqSymbol ltf_rx = through(ltf_symbol(), h_est);
  const std::vector<FreqSymbol> ltfs{ltf_rx, ltf_rx};
  const ChannelEstimate est = estimate_channel(ltfs);
  const oracle::EqualizedSymbol eq = equalize_symbol(rx, est, false);
  EXPECT_NE(demap_hard(eq.points, Modulation::kQam64), bits);
}

TEST(ChannelEst, DeadBinGetsHugeNoise) {
  FreqSymbol h{};  // all-zero channel
  const FreqSymbol rx{};
  ChannelEstimate est;
  est.h = h;
  est.noise_var = 1e-9;
  const oracle::EqualizedSymbol eq = equalize_symbol(rx, est, false);
  for (const double v : eq.noise_vars) {
    EXPECT_GE(v, 1e17);
  }
}

TEST(ChannelEst, RequiresAtLeastOneLtf) {
  EXPECT_THROW(estimate_channel({}), std::invalid_argument);
}

}  // namespace
}  // namespace witag::phy
