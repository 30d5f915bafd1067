// Channel estimation and equalization.
//
// The receiver forms one least-squares channel estimate from the PPDU's
// LTF symbols and equalizes every subsequent data symbol with it. This is
// the 802.11 behaviour WiTAG exploits: if the channel changes mid-PPDU
// (because the tag toggles its reflector), the stale estimate corrupts
// the affected subframes. Pilot-based common-phase-error correction is
// implemented too — it removes a shared rotation but cannot repair the
// per-subcarrier error the tag induces.
#pragma once

#include <array>
#include <span>
#include <cstddef>

#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "util/complexvec.hpp"

namespace witag::phy {

/// A per-subcarrier channel estimate plus the estimated noise level.
struct ChannelEstimate {
  FreqSymbol h{};          ///< Per-bin estimate; zero in unused bins.
  double noise_var = 0.0;  ///< Complex noise variance per subcarrier.
  double mean_gain = 0.0;  ///< Mean |h|^2 over used subcarriers.
};

/// Least-squares estimate from received LTF symbols (averaged). The noise
/// variance is estimated from the difference between LTF repetitions when
/// two or more are available. Requires at least one symbol.
ChannelEstimate estimate_channel(std::span<const FreqSymbol> ltf_rx);

/// The equalizer's per-estimate terms over the 52 data subcarriers, in
/// demap order: the estimate h as parallel arrays, its gain |h|^2 and
/// each bin's post-equalization noise variance max(noise_var, 1e-12) /
/// |h|^2 (simd::kEqualizeDeadNoise on a dead bin). None of them changes
/// within a field, so the receiver builds one plan per field and then
/// only runs equalize_points() per symbol.
struct EqualizerPlan {
  alignas(32) std::array<double, kDataSubcarriers> hr;
  alignas(32) std::array<double, kDataSubcarriers> hi;
  alignas(32) std::array<double, kDataSubcarriers> gain;
  alignas(32) std::array<double, kDataSubcarriers> noise_vars;
};

/// Fills every entry of `plan` from `est`.
void plan_equalizer(const ChannelEstimate& est, EqualizerPlan& plan);

/// Equalizes the data points of one received symbol into `re` and `im`
/// (kDataSubcarriers each): the pilot-based common phase error when
/// `cpe_correction` is set, then the phy::simd equalize kernel over
/// `plan` (bit-identical at every dispatch tier). No allocation.
///
/// The per-subcarrier divide computes points as y * conj(h) / |h|^2 in
/// separable real arithmetic instead of std::complex division (libgcc's
/// scaled Smith algorithm). The two agree to ~1 ULP on finite channels
/// (the complex-division equalizer in tests/oracle and the parity test
/// in test_simd.cpp).
void equalize_points(const FreqSymbol& rx, const ChannelEstimate& est,
                     const EqualizerPlan& plan, std::size_t symbol_index,
                     bool cpe_correction, double* re, double* im);

}  // namespace witag::phy
