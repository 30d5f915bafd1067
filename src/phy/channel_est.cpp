#include "phy/channel_est.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstddef>

#include "obs/obs.hpp"
#include "phy/preamble.hpp"
#include "phy/simd.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

using util::Cx;

// Common phase error from the four pilots: correlate received pilots
// against their expected post-channel values; the angle of the sum is
// the shared rotation. Four complex MACs per symbol — not worth a
// kernel.
Cx estimate_cpe(const FreqSymbol& rx, const ChannelEstimate& est,
                std::size_t symbol_index) {
  const auto pilots_rx = extract_pilots(rx);
  const auto pilots_tx = pilot_values(symbol_index);
  const auto pilot_sc = pilot_subcarriers();
  Cx acc{};
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    const Cx expected = est.h[bin_index(pilot_sc[i])] * pilots_tx[i];
    acc += pilots_rx[i] * std::conj(expected);
  }
  if (std::abs(acc) > 0.0) return acc / std::abs(acc);
  return Cx{1.0, 0.0};
}

}  // namespace

ChannelEstimate estimate_channel(std::span<const FreqSymbol> ltf_rx) {
  WITAG_SPAN_CAT("phy.channel_est", "phy");
  WITAG_COUNT("phy.channel_est.calls", 1);
  WITAG_REQUIRE(!ltf_rx.empty());
  const FreqSymbol& ref = ltf_symbol();

  ChannelEstimate est;
  std::size_t used = 0;
  for (unsigned bin = 0; bin < kFftSize; ++bin) {
    if (ref[bin] == Cx{}) continue;
    Cx sum{};
    for (const FreqSymbol& rx : ltf_rx) sum += rx[bin] / ref[bin];
    est.h[bin] = sum / static_cast<double>(ltf_rx.size());
    est.mean_gain += std::norm(est.h[bin]);
    ++used;
  }
  est.mean_gain /= static_cast<double>(used);

  if (ltf_rx.size() >= 2) {
    // Successive LTFs carry the same signal; their difference is noise.
    double acc = 0.0;
    std::size_t n = 0;
    for (unsigned bin = 0; bin < kFftSize; ++bin) {
      if (ref[bin] == Cx{}) continue;
      for (std::size_t r = 1; r < ltf_rx.size(); ++r) {
        acc += std::norm(ltf_rx[r][bin] - ltf_rx[r - 1][bin]) / 2.0;
        ++n;
      }
    }
    est.noise_var = acc / static_cast<double>(n);
  }
  // Guard against a zero estimate (noise-free unit tests): the demapper
  // requires a strictly positive variance.
  if (!(est.noise_var > 0.0)) est.noise_var = 1e-12;
  return est;
}

void plan_equalizer(const ChannelEstimate& est, EqualizerPlan& plan) {
  const std::span<const unsigned> bins = data_bins();
  WITAG_REQUIRE(bins.size() == kDataSubcarriers);
  for (std::size_t i = 0; i < kDataSubcarriers; ++i) {
    plan.hr[i] = est.h[bins[i]].real();
    plan.hi[i] = est.h[bins[i]].imag();
  }
  // Loops over the gathered arrays with no branch in them, so the
  // compiler can run the divides several bins per instruction (the same
  // IEEE operations per lane). A dead bin's quotient is computed, then
  // replaced, as the equalize kernel does its points.
  const double noise_floor = std::max(est.noise_var, 1e-12);
  for (std::size_t i = 0; i < kDataSubcarriers; ++i) {
    plan.gain[i] = plan.hr[i] * plan.hr[i] + plan.hi[i] * plan.hi[i];
    plan.noise_vars[i] = noise_floor / plan.gain[i];
  }
  for (std::size_t i = 0; i < kDataSubcarriers; ++i) {
    if (plan.gain[i] < simd::kEqualizeMinGain) {
      plan.noise_vars[i] = simd::kEqualizeDeadNoise;
    }
  }
}

void equalize_points(const FreqSymbol& rx, const ChannelEstimate& est,
                     const EqualizerPlan& plan, std::size_t symbol_index,
                     bool cpe_correction, double* re, double* im) {
  const Cx cpe = cpe_correction ? estimate_cpe(rx, est, symbol_index)
                                : Cx{1.0, 0.0};
  // Gather the received data bins into stack SoA staging for the
  // tier-dispatched divide: equalize_points runs once per OFDM symbol
  // and must not allocate.
  const std::span<const unsigned> bins = data_bins();
  alignas(32) std::array<double, kDataSubcarriers> rr, ri;
  for (std::size_t i = 0; i < kDataSubcarriers; ++i) {
    rr[i] = rx[bins[i]].real();
    ri[i] = rx[bins[i]].imag();
  }
  simd::equalize_for(simd::active_tier())(
      plan.hr.data(), plan.hi.data(), plan.gain.data(), rr.data(), ri.data(),
      cpe.real(), cpe.imag(), kDataSubcarriers, re, im);
}

}  // namespace witag::phy
