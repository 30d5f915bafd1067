// Tier-parity tests for the SIMD dispatch layer (phy/simd.hpp): every
// kernel tier the hardware can run — scalar, AVX2, AVX-512 — must
// produce bit-identical output to the detail::*_reference
// implementations, over fuzz regimes that include the degenerate cases
// (Viterbi ties, demap dead bins, erasures) where "almost equal" kernels
// diverge first.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "phy/channel_est.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/fft.hpp"
#include "phy/interleaver.hpp"
#include "phy/mcs.hpp"
#include "phy/preamble.hpp"
#include "phy/simd.hpp"
#include "phy/trellis.hpp"
#include "phy/viterbi.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"
#include "util/rng.hpp"

namespace witag {
namespace {

using util::BitVec;
using Tier = phy::simd::Tier;

/// Every tier this machine can actually execute, in ascending order.
std::vector<Tier> runnable_tiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  if (phy::simd::detect_best_tier() >= Tier::kAvx2) {
    tiers.push_back(Tier::kAvx2);
  }
  if (phy::simd::detect_best_tier() >= Tier::kAvx512) {
    tiers.push_back(Tier::kAvx512);
  }
  return tiers;
}

TEST(SimdDispatch, ActiveTierNeverExceedsDetected) {
  EXPECT_LE(phy::simd::active_tier(), phy::simd::detect_best_tier());
}

TEST(SimdDispatch, ScopedTierOverridesAndRestores) {
  const Tier ambient = phy::simd::active_tier();
  {
    const phy::simd::ScopedTier pin(Tier::kScalar);
    EXPECT_EQ(phy::simd::active_tier(), Tier::kScalar);
    {
      // Requesting more than the hardware offers clamps, never lies.
      const phy::simd::ScopedTier wish(Tier::kAvx2);
      EXPECT_LE(phy::simd::active_tier(), phy::simd::detect_best_tier());
    }
    EXPECT_EQ(phy::simd::active_tier(), Tier::kScalar);
  }
  EXPECT_EQ(phy::simd::active_tier(), ambient);
}

TEST(SimdDispatch, TierNames) {
  EXPECT_STREQ(phy::simd::tier_name(Tier::kScalar), "scalar");
  EXPECT_STREQ(phy::simd::tier_name(Tier::kAvx2), "avx2");
  EXPECT_STREQ(phy::simd::tier_name(Tier::kAvx512), "avx512");
}

TEST(SimdDispatch, ParseTierOverride) {
  using phy::simd::parse_tier_override;
  EXPECT_EQ(parse_tier_override("off"), Tier::kScalar);
  EXPECT_EQ(parse_tier_override("scalar"), Tier::kScalar);
  EXPECT_EQ(parse_tier_override("0"), Tier::kScalar);
  EXPECT_EQ(parse_tier_override("avx2"), Tier::kAvx2);
  EXPECT_EQ(parse_tier_override("auto"), Tier::kAvx512);
  // Typos, other spellings and tier names that are not accepted values
  // must not silently mean "auto".
  for (const char* bad : {"sse2", "Off", "AVX2", "avx512", "avx2 ", "1",
                          "none", "on"}) {
    EXPECT_EQ(parse_tier_override(bad), std::nullopt) << bad;
  }
}

TEST(SimdDispatchDeathTest, UnknownWitagSimdExitsWithStatus2) {
  // "threadsafe" re-executes the binary for the child, so its once-per-
  // process WITAG_SIMD read sees the value set below, not a cached one.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        setenv("WITAG_SIMD", "sse2", 1);
        static_cast<void>(phy::simd::active_tier());
      },
      testing::ExitedWithCode(2),
      "WITAG_SIMD=\"sse2\"; accepted values: off, scalar, 0, avx2, auto");
}

TEST(SimdDispatch, HigherTierKeepsLowerTierKernels) {
  // Only the ACS has an AVX-512 kernel; at that tier every other kernel
  // must stay on AVX2. A dispatch that tests `tier == kAvx2` would send
  // them back to scalar instead, and the outputs would still be
  // byte-identical, so no parity test would notice.
  const auto& k2 = phy::simd::fft_kernels_for(Tier::kAvx2);
  const auto& k512 = phy::simd::fft_kernels_for(Tier::kAvx512);
  EXPECT_EQ(phy::simd::demap_block_for(Tier::kAvx512),
            phy::simd::demap_block_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::equalize_for(Tier::kAvx512),
            phy::simd::equalize_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::deinterleave_for(Tier::kAvx512),
            phy::simd::deinterleave_for(Tier::kAvx2));
  EXPECT_EQ(k512.radix4_pass, k2.radix4_pass);
  EXPECT_EQ(k512.len2_pass, k2.len2_pass);
  EXPECT_EQ(k512.scale, k2.scale);
  if (phy::simd::detect_best_tier() >= Tier::kAvx2) {
    // ... and AVX2 really is a vector kernel on hosts that have it.
    const auto& k0 = phy::simd::fft_kernels_for(Tier::kScalar);
    EXPECT_NE(phy::simd::demap_block_for(Tier::kAvx2),
              phy::simd::demap_block_for(Tier::kScalar));
    EXPECT_NE(phy::simd::equalize_for(Tier::kAvx2),
              phy::simd::equalize_for(Tier::kScalar));
    EXPECT_NE(phy::simd::deinterleave_for(Tier::kAvx2),
              phy::simd::deinterleave_for(Tier::kScalar));
    EXPECT_NE(k2.radix4_pass, k0.radix4_pass);
    EXPECT_NE(phy::simd::acs_block_for(Tier::kAvx2),
              phy::simd::acs_block_for(Tier::kScalar));
  }
  if (phy::simd::detect_best_tier() >= Tier::kAvx512) {
    EXPECT_NE(phy::simd::acs_block_for(Tier::kAvx512),
              phy::simd::acs_block_for(Tier::kAvx2));
  }
}

// ---------------------------------------------------------------------
// Viterbi ACS.
// ---------------------------------------------------------------------

BitVec random_info_bits(util::Rng& rng, std::size_t n_info) {
  BitVec bits(n_info, 0);
  for (std::size_t i = 0; i + phy::kConstraintLength - 1 < n_info; ++i) {
    bits[i] = static_cast<std::uint8_t>(rng.uniform_int(2));
  }
  return bits;
}

/// Same fuzz regimes as test_viterbi_equiv.cpp: clean, moderate noise,
/// extreme noise (sign is chance), all-ties, punctured-style erasures.
/// The ties matter most here — the vector compare must keep the scalar
/// path's strict-greater survivor rule bit for bit.
std::vector<double> fuzz_llrs(util::Rng& rng, const BitVec& coded,
                              int regime) {
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double clean = coded[i] != 0 ? -4.0 : 4.0;
    switch (regime) {
      case 0:
        llrs[i] = clean;
        break;
      case 1:
        llrs[i] = clean + rng.uniform(-6.0, 6.0);
        break;
      case 2:
        llrs[i] = rng.uniform(-1e6, 1e6);
        break;
      case 3:
        llrs[i] = 0.0;
        break;
      default:
        llrs[i] = rng.uniform_int(3) == 0 ? 0.0
                                          : clean + rng.uniform(-2.0, 2.0);
        break;
    }
  }
  return llrs;
}

TEST(SimdParity, ViterbiEveryTierMatchesReference) {
  const std::vector<Tier> tiers = runnable_tiers();
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (std::uint64_t trial = 0; trial < 1000; ++trial) {
    util::Rng rng(0x51'3D'00 + trial);
    const std::size_t n_info = 8 + rng.uniform_int(201);
    const BitVec info = random_info_bits(rng, n_info);
    const BitVec coded = phy::convolutional_encode(info);
    const std::vector<double> llrs =
        fuzz_llrs(rng, coded, static_cast<int>(trial % 5));

    const BitVec expect = phy::detail::viterbi_reference(llrs);
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      phy::viterbi_decode(llrs, ws, decoded);
      ASSERT_EQ(decoded, expect)
          << "trial " << trial << " n_info " << n_info << " regime "
          << trial % 5 << " tier " << phy::simd::tier_name(t);
    }
  }
}

TEST(SimdParity, ViterbiExchangeSizesMatchReference) {
  // The fuzz above tops out at 208 steps; a 64-subframe MCS5 exchange
  // decodes 53,270 in one call. Odd and even counts cover both the AVX2
  // kernel's two-steps-per-iteration loop and its single-step tail.
  constexpr std::size_t kSteps[] = {1, 2, 3, 4097, 53270};
  constexpr int kRegimes[] = {1, 4};  // noisy, a third erased amid noise
  const std::vector<Tier> tiers = runnable_tiers();
  BitVec decoded;
  for (const std::size_t n_steps : kSteps) {
    for (const int regime : kRegimes) {
      util::Rng rng(0xE7'C4'00 + 8 * n_steps + static_cast<unsigned>(regime));
      const BitVec info = random_info_bits(rng, n_steps);
      const BitVec coded = phy::convolutional_encode(info);
      const std::vector<double> llrs = fuzz_llrs(rng, coded, regime);

      const BitVec expect = phy::detail::viterbi_reference(llrs);
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        phy::ViterbiWorkspace ws;
        phy::viterbi_decode(llrs, ws, decoded);
        ASSERT_EQ(decoded, expect)
            << "steps " << n_steps << " regime " << regime << " tier "
            << phy::simd::tier_name(t);
        // One 64-bit decision word per step, nothing else.
        EXPECT_EQ(ws.capacity_bytes(), 8 * n_steps)
            << "steps " << n_steps << " tier " << phy::simd::tier_name(t);
      }
    }
  }
}

/// Start metrics for the raw ACS kernels. Start 0 is the decoder's own
/// (state 0 at 0.0, every other state at the sentinel). Start 1 is
/// random metrics seeded with ±0.0 and equal butterfly pairs
/// (cur[2i] == cur[2i + 1]), so zero and erased LLRs produce exact ties,
/// including +0.0 against -0.0, on every state.
std::vector<double> acs_start_metrics(util::Rng& rng, int start) {
  std::vector<double> metrics(phy::kNumStates, phy::detail::kSentinel);
  if (start == 0) {
    metrics[0] = 0.0;
    return metrics;
  }
  for (std::size_t s = 0; s < metrics.size(); ++s) {
    switch (rng.uniform_int(5)) {
      case 0:
        metrics[s] = 0.0;
        break;
      case 1:
        metrics[s] = -0.0;
        break;
      case 2:
        metrics[s] = s % 2 == 1 ? metrics[s - 1] : rng.uniform(-50.0, 50.0);
        break;
      case 3:
        metrics[s] = phy::detail::kSentinel;
        break;
      default:
        metrics[s] = rng.uniform(-50.0, 50.0);
        break;
    }
  }
  return metrics;
}

TEST(SimdParity, AcsBlockEveryTierBitIdentical) {
  // The decoded bits compared above only see the decision bits along
  // the surviving path and never the end metrics, so a kernel that
  // mis-sets a bit on a state the traceback never visits, or returns a
  // wrong metric, would still pass them. Here every tier's raw kernel
  // must match the scalar kernel word for word and metric for metric.
  // The counts cover empty, single-step and every remainder around the
  // vector kernels' block sizes, up to one 64-subframe MCS5 exchange.
  constexpr std::size_t kSteps[] = {0, 1, 2, 3, 7, 8, 9, 4097, 53270};
  const std::vector<Tier> tiers = runnable_tiers();
  const phy::simd::AcsBlockFn scalar =
      phy::simd::acs_block_for(Tier::kScalar);
  std::vector<std::uint64_t> expect_dec, got_dec;
  for (const std::size_t n_steps : kSteps) {
    for (int regime = 0; regime < 5; ++regime) {
      for (int start = 0; start < 2; ++start) {
        util::Rng rng(0xAC'5B'00 + 16 * n_steps +
                      static_cast<unsigned>(4 * regime + start));
        const BitVec info = random_info_bits(rng, n_steps);
        const BitVec coded = phy::convolutional_encode(info);
        const std::vector<double> llrs = fuzz_llrs(rng, coded, regime);
        const std::vector<double> metrics0 = acs_start_metrics(rng, start);

        std::vector<double> expect_m = metrics0;
        expect_dec.assign(n_steps, 0);
        scalar(llrs.data(), n_steps, expect_dec.data(), expect_m.data());
        for (const Tier t : tiers) {
          std::vector<double> got_m = metrics0;
          got_dec.assign(n_steps, ~std::uint64_t{0});
          phy::simd::acs_block_for(t)(llrs.data(), n_steps, got_dec.data(),
                                      got_m.data());
          ASSERT_TRUE(got_dec == expect_dec)
              << "steps " << n_steps << " regime " << regime << " start "
              << start << " tier " << phy::simd::tier_name(t);
          ASSERT_EQ(std::memcmp(got_m.data(), expect_m.data(),
                                expect_m.size() * sizeof(double)),
                    0)
              << "steps " << n_steps << " regime " << regime << " start "
              << start << " tier " << phy::simd::tier_name(t);
        }
        if (n_steps == 0) {
          EXPECT_EQ(std::memcmp(expect_m.data(), metrics0.data(),
                                metrics0.size() * sizeof(double)),
                    0)
              << "an empty trellis must leave the metrics untouched";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Soft demap.
// ---------------------------------------------------------------------

constexpr phy::Modulation kMods[] = {
    phy::Modulation::kBpsk, phy::Modulation::kQpsk, phy::Modulation::kQam16,
    phy::Modulation::kQam64};

/// Fuzz points: random complexes, exact constellation points (ties in
/// the per-bit minima), and far outliers; noise variances span tiny to
/// the 1e18 dead-bin regime equalize() emits for nulled subcarriers.
void fuzz_points(util::Rng& rng, phy::Modulation mod, std::size_t count,
                 util::CxVec& points, std::vector<double>& noise_vars) {
  const std::span<const util::Cx> table = phy::constellation_points(mod);
  points.resize(count);
  noise_vars.resize(count);
  for (std::size_t p = 0; p < count; ++p) {
    switch (rng.uniform_int(4)) {
      case 0:
        points[p] = table[rng.uniform_int(table.size())];  // exact: ties
        break;
      case 1:
        points[p] = rng.complex_normal(1.0);
        break;
      case 2:
        points[p] = rng.complex_normal(100.0);  // far outlier
        break;
      default:
        points[p] = util::Cx(0.0, 0.0);  // equidistant center
        break;
    }
    switch (rng.uniform_int(3)) {
      case 0:
        noise_vars[p] = 1e18;  // dead bin
        break;
      case 1:
        noise_vars[p] = 1e-12;
        break;
      default:
        noise_vars[p] = rng.uniform(1e-3, 10.0);
        break;
    }
  }
}

TEST(SimdParity, DemapEveryTierMatchesReference) {
  const std::vector<Tier> tiers = runnable_tiers();
  util::CxVec points;
  std::vector<double> noise_vars;
  std::vector<double> got;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xD3'3A'90 + trial);
    for (const phy::Modulation mod : kMods) {
      // Odd counts exercise the vector kernels' scalar tails.
      const std::size_t count = 1 + rng.uniform_int(97);
      fuzz_points(rng, mod, count, points, noise_vars);
      const std::vector<double> expect =
          phy::detail::demap_soft_reference(points, mod, noise_vars);
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        phy::demap_soft_into(points, mod, noise_vars, got);
        ASSERT_EQ(got.size(), expect.size());
        ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                              expect.size() * sizeof(double)),
                  0)
            << "trial " << trial << " mod " << bits_per_symbol(mod)
            << " bpsc, count " << count << " tier "
            << phy::simd::tier_name(t);
      }
    }
  }
}

/// The kernels' per-axis view of a constellation, rebuilt here from the
/// public point table: low index bits select the I level, high bits Q.
phy::simd::DemapAxes axes_from_points(phy::Modulation mod) {
  const std::span<const util::Cx> table = phy::constellation_points(mod);
  phy::simd::DemapAxes ax;
  ax.n_bits = phy::bits_per_symbol(mod);
  ax.i_bits = ax.n_bits == 1 ? 1u : ax.n_bits / 2;
  ax.q_bits = ax.n_bits - ax.i_bits;
  for (unsigned j = 0; j < (1u << ax.i_bits); ++j) {
    ax.i_levels[j] = table[j].real();
  }
  for (unsigned q = 0; q < (1u << ax.q_bits); ++q) {
    ax.q_levels[q] = table[q << ax.i_bits].imag();
  }
  return ax;
}

TEST(SimdParity, DemapSoaMatchesAosPath) {
  // SoA arrays fed straight to each tier's kernel must match the AoS
  // entry point and the full-table reference bit for bit. Counts run
  // 1..300, so every AVX2 remainder (count % 4) reaches the scalar tail.
  const std::vector<Tier> tiers = runnable_tiers();
  util::CxVec points;
  std::vector<double> noise_vars;
  std::vector<double> re, im, soa, aos;
  for (std::size_t count = 1; count <= 300; ++count) {
    util::Rng rng(0x50'A0 + count);
    for (const phy::Modulation mod : kMods) {
      const phy::simd::DemapAxes ax = axes_from_points(mod);
      fuzz_points(rng, mod, count, points, noise_vars);
      re.resize(count);
      im.resize(count);
      for (std::size_t p = 0; p < count; ++p) {
        re[p] = points[p].real();
        im[p] = points[p].imag();
      }
      const std::vector<double> expect =
          phy::detail::demap_soft_reference(points, mod, noise_vars);
      for (const Tier t : tiers) {
        soa.assign(expect.size(), 0.0);
        phy::simd::demap_block_for(t)(re.data(), im.data(),
                                      noise_vars.data(), count, ax,
                                      soa.data());
        ASSERT_EQ(std::memcmp(soa.data(), expect.data(),
                              expect.size() * sizeof(double)),
                  0)
            << "count " << count << " mod " << ax.n_bits << " bpsc, tier "
            << phy::simd::tier_name(t);
        const phy::simd::ScopedTier pin(t);
        phy::demap_soft_into(points, mod, noise_vars, aos);
        ASSERT_EQ(aos.size(), soa.size());
        ASSERT_EQ(std::memcmp(aos.data(), soa.data(),
                              soa.size() * sizeof(double)),
                  0)
            << "count " << count << " mod " << ax.n_bits << " bpsc, tier "
            << phy::simd::tier_name(t);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Equalize.
// ---------------------------------------------------------------------

/// Fuzz a channel estimate + received symbol: random h with occasional
/// dead bins (|h|^2 < kEqualizeMinGain must select the neutral point),
/// near-dead bins straddling the threshold, and noise variances from
/// the degenerate zero (floored to 1e-12) to large.
void fuzz_channel(util::Rng& rng, phy::FreqSymbol& rx,
                  phy::ChannelEstimate& est) {
  est = phy::ChannelEstimate{};
  const auto data_sc = phy::data_subcarriers();
  for (const int sc : data_sc) {
    const unsigned bin = phy::bin_index(sc);
    switch (rng.uniform_int(4)) {
      case 0:
        est.h[bin] = util::Cx{};  // dead bin
        break;
      case 1:
        est.h[bin] = rng.complex_normal(1e-10);  // straddles kMinGain
        break;
      default:
        est.h[bin] = rng.complex_normal(1.0);
        break;
    }
    rx[bin] = rng.complex_normal(1.0);
  }
  const auto pilot_sc = phy::pilot_subcarriers();
  for (const int sc : pilot_sc) {
    const unsigned bin = phy::bin_index(sc);
    est.h[bin] = rng.complex_normal(1.0);
    rx[bin] = rng.complex_normal(1.0);
  }
  est.noise_var = rng.uniform_int(3) == 0 ? 0.0 : rng.uniform(1e-6, 10.0);
  est.mean_gain = 1.0;
}

TEST(SimdParity, EqualizeEveryTierBitIdentical) {
  const std::vector<Tier> tiers = runnable_tiers();
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  phy::EqualizedSymbol scalar_out, got;
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    util::Rng rng(0xE9'0A'11 + trial);
    fuzz_channel(rng, rx, est);
    const bool cpe = (trial % 2) == 0;
    {
      const phy::simd::ScopedTier pin(Tier::kScalar);
      phy::equalize_into(rx, est, trial % 7, cpe, scalar_out);
    }
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      phy::equalize_into(rx, est, trial % 7, cpe, got);
      ASSERT_EQ(got.points.size(), scalar_out.points.size());
      ASSERT_EQ(std::memcmp(got.points.data(), scalar_out.points.data(),
                            scalar_out.points.size() * sizeof(util::Cx)),
                0)
          << "trial " << trial << " tier " << phy::simd::tier_name(t);
      ASSERT_EQ(std::memcmp(got.noise_vars.data(),
                            scalar_out.noise_vars.data(),
                            scalar_out.noise_vars.size() * sizeof(double)),
                0)
          << "trial " << trial << " tier " << phy::simd::tier_name(t);
    }
  }
}

TEST(SimdParity, EqualizeKernelMatchesComplexDivisionReference) {
  // The kernel computes y * conj(h) / |h|^2 in separable real
  // arithmetic; the reference uses std::complex operator/ (libgcc's
  // scaled Smith algorithm). Identical real math is impossible, so this
  // pins the agreement to a few ULP in relative terms instead — enough
  // that the demapper's LLRs are indistinguishable.
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  phy::EqualizedSymbol got;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xE9'0B'22 + trial);
    fuzz_channel(rng, rx, est);
    const bool cpe = (trial % 2) == 0;
    phy::equalize_into(rx, est, trial % 7, cpe, got);
    const phy::EqualizedSymbol expect =
        phy::detail::equalize_reference(rx, est, trial % 7, cpe);
    ASSERT_EQ(got.points.size(), expect.points.size());
    for (std::size_t i = 0; i < expect.points.size(); ++i) {
      const double scale = std::max(1.0, std::abs(expect.points[i]));
      ASSERT_NEAR(got.points[i].real(), expect.points[i].real(),
                  1e-12 * scale)
          << "trial " << trial << " point " << i;
      ASSERT_NEAR(got.points[i].imag(), expect.points[i].imag(),
                  1e-12 * scale)
          << "trial " << trial << " point " << i;
      ASSERT_NEAR(got.noise_vars[i], expect.noise_vars[i],
                  1e-12 * expect.noise_vars[i])
          << "trial " << trial << " point " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Deinterleave.
// ---------------------------------------------------------------------

TEST(SimdParity, DeinterleaveEveryTierBitIdentical) {
  const std::vector<Tier> tiers = runnable_tiers();
  std::vector<double> llrs, scalar_out, got;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xDE'17'33 + trial);
    for (const phy::Modulation mod : kMods) {
      const unsigned n_cbps =
          phy::kDataSubcarriers * phy::bits_per_symbol(mod);
      llrs.resize(n_cbps);
      scalar_out.resize(n_cbps);
      got.resize(n_cbps);
      for (auto& v : llrs) v = rng.uniform(-1e3, 1e3);
      {
        const phy::simd::ScopedTier pin(Tier::kScalar);
        phy::deinterleave_llrs_into(llrs, mod, scalar_out);
      }
      // Round-trip sanity: deinterleave inverts interleave's placement.
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        phy::deinterleave_llrs_into(llrs, mod, got);
        ASSERT_EQ(got.size(), scalar_out.size());
        ASSERT_EQ(std::memcmp(got.data(), scalar_out.data(),
                              scalar_out.size() * sizeof(double)),
                  0)
            << "trial " << trial << " mod " << phy::bits_per_symbol(mod)
            << " bpsc, tier " << phy::simd::tier_name(t);
      }
    }
  }
}

// ---------------------------------------------------------------------
// FFT.
// ---------------------------------------------------------------------

TEST(SimdParity, FftEveryTierMatchesReference) {
  const std::vector<Tier> tiers = runnable_tiers();
  for (std::size_t n = 1; n <= 512; n *= 2) {
    util::Rng rng(0xFF'70 + n);
    util::CxVec input(n);
    for (auto& x : input) x = rng.complex_normal(1.0);
    for (const bool inverse : {false, true}) {
      util::CxVec expect = input;
      phy::detail::fft_reference_inplace(expect, inverse);

      util::CxVec radix4 = input;
      phy::detail::fft_radix4_inplace(radix4, inverse);
      ASSERT_EQ(std::memcmp(radix4.data(), expect.data(),
                            n * sizeof(util::Cx)),
                0)
          << "n " << n << " inverse " << inverse << " (scalar radix-4)";

      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        util::CxVec got = input;
        if (inverse) {
          phy::ifft_inplace(got);
        } else {
          phy::fft_inplace(got);
        }
        ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                              n * sizeof(util::Cx)),
                  0)
            << "n " << n << " inverse " << inverse << " tier "
            << phy::simd::tier_name(t);
      }
    }
  }
}

}  // namespace
}  // namespace witag
