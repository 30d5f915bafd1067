// Tier-parity tests for the SIMD dispatch layer (phy/simd.hpp): every
// kernel tier the hardware can run — scalar, AVX2, AVX-512 — must
// produce bit-identical output to the detail::*_reference
// implementations, over fuzz regimes that include the degenerate cases
// (Viterbi ties, demap dead bins, erasures) where "almost equal" kernels
// diverge first.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "phy/channel_est.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/fft.hpp"
#include "phy/interleaver.hpp"
#include "phy/mcs.hpp"
#include "phy/ppdu.hpp"
#include "phy/preamble.hpp"
#include "phy/simd.hpp"
#include "phy/trellis.hpp"
#include "phy/viterbi.hpp"
#include "tiers.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"
#include "util/rng.hpp"

namespace witag {
namespace {

using util::BitVec;
using Tier = phy::simd::Tier;

using test::runnable_tiers;

TEST(SimdDispatch, ActiveTierNeverExceedsDetected) {
  EXPECT_LE(phy::simd::active_tier(), phy::simd::detect_best_tier());
}

TEST(SimdDispatch, ReportsDetectedTier) {
  // CI's simd-dispatch job runs this first: hosted runners' CPUs vary,
  // so the log says whether the run exercised the AVX-512 kernels. A
  // host without AVX-512 VBMI (Skylake-SP, Cascade Lake) runs AVX2.
  const Tier best = phy::simd::detect_best_tier();
  std::cout << "[simd] detected tier " << phy::simd::tier_name(best) << ": "
            << (best == Tier::kAvx512
                    ? "the AVX-512 ACS and placement kernels run"
                    : "no AVX-512 kernel runs (it needs AVX-512 F, BW and "
                      "VBMI)")
            << "\n";
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512vbmi") == 0) {
    EXPECT_LT(best, Tier::kAvx512);
  }
#endif
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
  // Only the ACS and the soft-bit placement have AVX-512 kernels; at that
  // tier every other kernel must stay on AVX2. A dispatch that tests
  // `tier == kAvx2` would send them back to scalar instead, and the
  // outputs would still be byte-identical, so no parity test would
  // notice. The placement has no AVX2 kernel: AVX2 runs the scalar one.
  const auto& k2 = phy::simd::fft_kernels_for(Tier::kAvx2);
  const auto& k512 = phy::simd::fft_kernels_for(Tier::kAvx512);
  EXPECT_EQ(phy::simd::demap_block_for(Tier::kAvx512),
            phy::simd::demap_block_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::demap_quantize_for(Tier::kAvx512),
            phy::simd::demap_quantize_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::equalize_for(Tier::kAvx512),
            phy::simd::equalize_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::deinterleave_for(Tier::kAvx512),
            phy::simd::deinterleave_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::quantize_for(Tier::kAvx512),
            phy::simd::quantize_for(Tier::kAvx2));
  EXPECT_EQ(k512.radix4_pass, k2.radix4_pass);
  EXPECT_EQ(k512.len2_pass, k2.len2_pass);
  EXPECT_EQ(k512.scale, k2.scale);
  EXPECT_EQ(phy::simd::place_for(Tier::kAvx2),
            phy::simd::place_for(Tier::kScalar));
  if (phy::simd::detect_best_tier() >= Tier::kAvx2) {
    // ... and AVX2 really is a vector kernel on hosts that have it.
    const auto& k0 = phy::simd::fft_kernels_for(Tier::kScalar);
    EXPECT_NE(phy::simd::demap_block_for(Tier::kAvx2),
              phy::simd::demap_block_for(Tier::kScalar));
    EXPECT_NE(phy::simd::demap_quantize_for(Tier::kAvx2),
              phy::simd::demap_quantize_for(Tier::kScalar));
    EXPECT_NE(phy::simd::equalize_for(Tier::kAvx2),
              phy::simd::equalize_for(Tier::kScalar));
    EXPECT_NE(phy::simd::deinterleave_for(Tier::kAvx2),
              phy::simd::deinterleave_for(Tier::kScalar));
    EXPECT_NE(phy::simd::quantize_for(Tier::kAvx2),
              phy::simd::quantize_for(Tier::kScalar));
    EXPECT_NE(k2.radix4_pass, k0.radix4_pass);
    EXPECT_NE(phy::simd::acs_block_for(Tier::kAvx2),
              phy::simd::acs_block_for(Tier::kScalar));
  }
  if (phy::simd::detect_best_tier() >= Tier::kAvx512) {
    EXPECT_NE(phy::simd::acs_block_for(Tier::kAvx512),
              phy::simd::acs_block_for(Tier::kAvx2));
    EXPECT_NE(phy::simd::place_for(Tier::kAvx512),
              phy::simd::place_for(Tier::kAvx2));
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

/// Same fuzz regimes as test_viterbi_equiv.cpp, in int8 at the
/// receiver's full scale (a clean bit reads 32): clean, moderate noise,
/// extreme noise (sign and size are chance, -128 included), all-ties,
/// punctured-style erasures. The ties matter most here — every tier
/// must keep the strict-greater survivor rule.
std::vector<std::int8_t> fuzz_llrs(util::Rng& rng, const BitVec& coded,
                                   int regime) {
  std::vector<std::int8_t> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const int clean = coded[i] != 0 ? -32 : 32;
    int v = 0;
    switch (regime) {
      case 0:
        v = clean;
        break;
      case 1:
        v = clean + static_cast<int>(rng.uniform_int(97)) - 48;
        break;
      case 2:
        v = static_cast<int>(rng.uniform_int(256)) - 128;
        break;
      case 3:
        v = 0;
        break;
      default:
        v = rng.uniform_int(3) == 0
                ? 0
                : clean + static_cast<int>(rng.uniform_int(33)) - 16;
        break;
    }
    llrs[i] = static_cast<std::int8_t>(v);
  }
  return llrs;
}

/// Full-scale streams: every LLR is ±127, the quantizer's clamp. Kind 0
/// follows the code (the survivor gains 254 per step, the largest drift
/// renormalization must absorb), kind 1 has random signs, kind 2 is a
/// constant +127 and kind 3 a constant -127.
std::vector<std::int8_t> full_scale_llrs(util::Rng& rng, const BitVec& coded,
                                         int kind) {
  std::vector<std::int8_t> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    bool one = false;
    switch (kind) {
      case 0:
        one = coded[i] != 0;
        break;
      case 1:
        one = rng.uniform_int(2) == 1;
        break;
      case 2:
        one = false;
        break;
      default:
        one = true;
        break;
    }
    llrs[i] = one ? -127 : 127;
  }
  return llrs;
}

/// The reference decoder on the same LLRs cast to double.
BitVec reference_decode(const std::vector<std::int8_t>& llrs) {
  const std::vector<double> wide(llrs.begin(), llrs.end());
  return phy::detail::viterbi_reference(wide);
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
    const std::vector<std::int8_t> llrs =
        fuzz_llrs(rng, coded, static_cast<int>(trial % 5));

    const BitVec expect = reference_decode(llrs);
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
  // decodes 53,270 in one call. Counts around the 16-step
  // renormalization period and the full-scale ±127 streams at exchange
  // size stress saturation and renormalization.
  constexpr std::size_t kSteps[] = {1, 2, 3, 15, 16, 17, 4097, 53270};
  constexpr int kRegimes[] = {1, 2, 4};  // noisy, chance, erased amid noise
  const std::vector<Tier> tiers = runnable_tiers();
  BitVec decoded;
  const auto check = [&](const std::vector<std::int8_t>& llrs,
                         std::size_t n_steps, const char* what, int kind) {
    const BitVec expect = reference_decode(llrs);
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      phy::ViterbiWorkspace ws;
      phy::viterbi_decode(llrs, ws, decoded);
      ASSERT_EQ(decoded, expect)
          << "steps " << n_steps << " " << what << " " << kind << " tier "
          << phy::simd::tier_name(t);
      // One 64-bit decision word per step, nothing else.
      EXPECT_EQ(ws.capacity_bytes(), 8 * n_steps)
          << "steps " << n_steps << " tier " << phy::simd::tier_name(t);
    }
  };
  for (const std::size_t n_steps : kSteps) {
    for (const int regime : kRegimes) {
      util::Rng rng(0xE7'C4'00 + 8 * n_steps + static_cast<unsigned>(regime));
      const BitVec info = random_info_bits(rng, n_steps);
      const BitVec coded = phy::convolutional_encode(info);
      check(fuzz_llrs(rng, coded, regime), n_steps, "regime", regime);
    }
  }
  constexpr std::size_t kExchangeSteps = 53270;
  for (int kind = 0; kind < 4; ++kind) {
    util::Rng rng(0xF5'12'70 + static_cast<unsigned>(kind));
    const BitVec info = random_info_bits(rng, kExchangeSteps);
    const BitVec coded = phy::convolutional_encode(info);
    const std::vector<std::int8_t> llrs = full_scale_llrs(rng, coded, kind);
    check(llrs, kExchangeSteps, "full-scale kind", kind);
    if (kind == 0) {
      phy::ViterbiWorkspace ws;
      phy::viterbi_decode(llrs, ws, decoded);
      EXPECT_EQ(decoded, info);
    }
  }
}

/// Start metrics for the raw ACS kernels, all inside the documented
/// no-saturation bound ±kAcsStartBound. Start 0 is the decoder's own
/// (state 0 at 0, every other state at -8192). Start 1 is random
/// metrics seeded with zeros and equal butterfly pairs
/// (cur[2i] == cur[2i + 1]), so zero and erased LLRs produce exact ties
/// on every state. Start 2 sits at the bound itself.
std::vector<std::int16_t> acs_start_metrics(util::Rng& rng, int start) {
  constexpr int kBound = phy::simd::kAcsStartBound;
  std::vector<std::int16_t> metrics(phy::kNumStates, -8192);
  if (start == 0) {
    metrics[0] = 0;
    return metrics;
  }
  for (std::size_t s = 0; s < metrics.size(); ++s) {
    const auto random_metric = [&] {
      return static_cast<std::int16_t>(
          static_cast<int>(rng.uniform_int(2 * kBound + 1)) - kBound);
    };
    if (start == 2) {
      metrics[s] = static_cast<std::int16_t>(rng.uniform_int(2) == 0
                                                 ? kBound
                                                 : -kBound);
      continue;
    }
    switch (rng.uniform_int(3)) {
      case 0:
        metrics[s] = 0;
        break;
      case 1:
        metrics[s] = s % 2 == 1 ? metrics[s - 1] : random_metric();
        break;
      default:
        metrics[s] = random_metric();
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
  // 16-step renormalization period (the AVX-512 kernel's unrolled
  // blocks end at 16, 32 and 48 steps), up to one 64-subframe MCS5
  // exchange; regimes 5-8 are the full-scale ±127 streams.
  constexpr std::size_t kSteps[] = {0,  1,  2,  3,  7,  8,  9,    15, 16,
                                    17, 31, 32, 33, 47, 48, 49, 4097, 53270};
  const std::vector<Tier> tiers = runnable_tiers();
  const phy::simd::AcsBlockFn scalar =
      phy::simd::acs_block_for(Tier::kScalar);
  std::vector<std::uint64_t> expect_dec, got_dec;
  for (const std::size_t n_steps : kSteps) {
    for (int regime = 0; regime < 9; ++regime) {
      for (int start = 0; start < 3; ++start) {
        util::Rng rng(0xAC'5B'00 + 64 * n_steps +
                      static_cast<unsigned>(4 * regime + start));
        const BitVec info = random_info_bits(rng, n_steps);
        const BitVec coded = phy::convolutional_encode(info);
        const std::vector<std::int8_t> llrs =
            regime < 5 ? fuzz_llrs(rng, coded, regime)
                       : full_scale_llrs(rng, coded, regime - 5);
        const std::vector<std::int16_t> metrics0 =
            acs_start_metrics(rng, start);

        std::vector<std::int16_t> expect_m = metrics0;
        expect_dec.assign(n_steps, 0);
        scalar(llrs.data(), n_steps, expect_dec.data(), expect_m.data());
        for (const Tier t : tiers) {
          std::vector<std::int16_t> got_m = metrics0;
          got_dec.assign(n_steps, ~std::uint64_t{0});
          phy::simd::acs_block_for(t)(llrs.data(), n_steps, got_dec.data(),
                                      got_m.data());
          ASSERT_TRUE(got_dec == expect_dec)
              << "steps " << n_steps << " regime " << regime << " start "
              << start << " tier " << phy::simd::tier_name(t);
          ASSERT_TRUE(got_m == expect_m)
              << "steps " << n_steps << " regime " << regime << " start "
              << start << " tier " << phy::simd::tier_name(t);
        }
        if (n_steps == 0) {
          EXPECT_TRUE(expect_m == metrics0)
              << "an empty trellis must leave the metrics untouched";
        }
        if (n_steps >= phy::simd::kAcsRenormPeriod &&
            n_steps % phy::simd::kAcsRenormPeriod == 0) {
          EXPECT_EQ(expect_m[0], 0)
              << "state 0 reads 0 after a renormalizing step";
        }
      }
    }
  }
}

TEST(SimdParity, AcsScalarFollowsContract) {
  // The scalar kernel is the specification the vector tiers are held
  // to, so check it against the contract in simd.hpp written out long
  // hand: the per-state adds in int32, strict decisions, and the state-0
  // subtraction after every 16th step.
  util::Rng rng(0xAC'C0'01);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n_steps = 1 + rng.uniform_int(70);
    const BitVec info = random_info_bits(rng, n_steps);
    const BitVec coded = phy::convolutional_encode(info);
    const std::vector<std::int8_t> llrs =
        fuzz_llrs(rng, coded, trial % 5);
    std::vector<std::int16_t> metrics = acs_start_metrics(rng, trial % 3);
    std::vector<int> want(metrics.begin(), metrics.end());
    std::vector<std::uint64_t> decisions(n_steps);
    phy::simd::acs_block_for(Tier::kScalar)(llrs.data(), n_steps,
                                            decisions.data(), metrics.data());
    for (std::size_t k = 0; k < n_steps; ++k) {
      std::vector<int> next(phy::kNumStates);
      std::uint64_t word = 0;
      for (std::uint32_t ns = 0; ns < phy::kNumStates; ++ns) {
        const phy::detail::Butterfly& bf = phy::detail::kButterflies[ns];
        const auto branch = [&](std::uint8_t a, std::uint8_t b) {
          return (a ? -llrs[2 * k] : llrs[2 * k]) +
                 (b ? -llrs[2 * k + 1] : llrs[2 * k + 1]);
        };
        const int m0 = want[bf.s0] + branch(bf.a0, bf.b0);
        const int m1 = want[bf.s1] + branch(bf.a1, bf.b1);
        next[ns] = std::max(m0, m1);
        if (m1 > m0) word |= std::uint64_t{1} << ns;
      }
      ASSERT_EQ(decisions[k], word) << "trial " << trial << " step " << k;
      want = next;
      if (k % 16 == 15) {
        const int base = want[0];
        for (int& m : want) m -= base;
      }
    }
    for (std::uint32_t s = 0; s < phy::kNumStates; ++s) {
      ASSERT_EQ(metrics[s], want[s]) << "trial " << trial << " state " << s;
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

/// quantize_llr written with libm: clamp, then round half to even.
std::int8_t quantize_reference(double llr, double scale) {
  const double v = llr * scale;
  if (std::isnan(v)) return 127;
  return static_cast<std::int8_t>(std::nearbyint(std::clamp(v, -127.0, 127.0)));
}

/// Quantizes `llrs` at `scale` through every tier's kernel and checks
/// each against quantize_reference, element for element.
void expect_quantize_matches(const std::vector<double>& llrs, double scale,
                             const std::string& what) {
  std::vector<std::int8_t> got(llrs.size());
  for (const Tier t : runnable_tiers()) {
    std::fill(got.begin(), got.end(), std::int8_t{-128});
    phy::simd::quantize_for(t)(llrs.data(), llrs.size(), scale, got.data());
    for (std::size_t k = 0; k < llrs.size(); ++k) {
      ASSERT_EQ(got[k], quantize_reference(llrs[k], scale))
          << what << " k " << k << " of " << llrs.size() << " llr " << llrs[k]
          << " scale " << scale << " tier " << phy::simd::tier_name(t);
    }
  }
}

TEST(SimdParity, QuantizeEveryTierMatchesReference) {
  // Counts 1..320 reach every remainder of the AVX2 kernel's 16-wide
  // loop; values straddle the clamp and a quarter sit on exact halves.
  std::vector<double> llrs;
  for (std::size_t count = 1; count <= 320; ++count) {
    util::Rng rng(0x0A'17'00 + count);
    llrs.resize(count);
    for (auto& v : llrs) {
      v = rng.uniform_int(4) == 0
              ? 0.5 * static_cast<double>(
                          static_cast<int>(rng.uniform_int(601)) - 300)
              : rng.uniform(-1e3, 1e3);
    }
    const double scale = count % 3 == 0 ? 1.0 : rng.uniform(1e-3, 1.0);
    expect_quantize_matches(llrs, scale, "count " + std::to_string(count));
  }
}

TEST(SimdParity, DeinterleaveEveryTierBitIdentical) {
  const std::vector<Tier> tiers = runnable_tiers();
  std::vector<std::int8_t> llrs, got;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xDE'17'33 + trial);
    for (const phy::Modulation mod : kMods) {
      const unsigned n_bpsc = phy::bits_per_symbol(mod);
      const unsigned n_cbps = phy::kDataSubcarriers * n_bpsc;
      const std::vector<std::size_t> map = phy::interleave_map(n_cbps, n_bpsc);
      llrs.resize(n_cbps);
      got.resize(n_cbps);
      for (auto& v : llrs) {
        v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) -
                                     128);
      }
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        std::fill(got.begin(), got.end(), std::int8_t{0});
        phy::deinterleave_llrs_into(llrs, mod, got);
        for (unsigned k = 0; k < n_cbps; ++k) {
          ASSERT_EQ(got[k], llrs[map[k]])
              << "trial " << trial << " mod " << n_bpsc << " bpsc, k " << k
              << " tier " << phy::simd::tier_name(t);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Soft-bit placement.
// ---------------------------------------------------------------------

/// Random soft bits over the whole int8 range, with runs of the
/// extremes (-128, -127 and 127) the quantizer never makes but a kernel
/// must still move unchanged.
void fill_soft_bits(util::Rng& rng, std::vector<std::int8_t>& llrs) {
  for (auto& v : llrs) {
    switch (rng.uniform_int(4)) {
      case 0:
        v = -128;
        break;
      case 1:
        v = rng.uniform_int(2) == 0 ? std::int8_t{127} : std::int8_t{-127};
        break;
      default:
        v = static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(256)) -
                                     128);
    }
  }
}

TEST(SimdParity, PlaceEveryTierMatchesTableLoop) {
  // Every tier's placement kernel against a table loop written here from
  // the transmitter's gather table alone, on every MCS: fields of 1, 2,
  // 3 and 257 symbols, placed whole and short by one symbol, into a
  // dirty reused buffer whose bytes past the placed spans must survive.
  constexpr std::int8_t kDirt = 0x5A;
  constexpr std::size_t kGuard = 200;
  const std::vector<Tier> tiers = runnable_tiers();
  std::vector<std::int8_t> llrs, expect, got;
  for (unsigned i = 0; i < phy::kNumMcs; ++i) {
    const phy::McsParams& m = phy::mcs(i);
    const std::span<const std::uint16_t> table =
        phy::detail::tx_gather_table(i);
    const phy::simd::PlacePlan& plan = phy::detail::place_plan(i);
    const std::size_t span = 2 * std::size_t{m.n_dbps};
    ASSERT_EQ(plan.span, span) << "mcs " << i;
    ASSERT_EQ(plan.table.size(), std::size_t{m.n_cbps}) << "mcs " << i;
    for (const std::size_t n_sym : {1u, 2u, 3u, 257u}) {
      util::Rng rng(0x91'AC'00 + 1000 * i + n_sym);
      llrs.resize(n_sym * m.n_cbps);
      fill_soft_bits(rng, llrs);
      for (const std::size_t placed : {n_sym, n_sym - 1}) {
        expect.assign(placed * span + kGuard, kDirt);
        std::fill_n(expect.begin(), placed * span, std::int8_t{0});
        for (std::size_t s = 0; s < placed; ++s) {
          for (std::size_t j = 0; j < table.size(); ++j) {
            expect[s * span + table[j]] = llrs[s * m.n_cbps + j];
          }
        }
        for (const Tier t : tiers) {
          got.assign(expect.size(), kDirt);
          phy::simd::place_for(t)(llrs.data(), placed, plan, got.data());
          ASSERT_TRUE(got == expect)
              << "mcs " << i << " symbols " << n_sym << " placed " << placed
              << " tier " << phy::simd::tier_name(t);
        }
      }
    }
  }
}

TEST(SimdParity, FieldBitsFromLlrsEqualAcrossTiers) {
  // The decoder's back half (placement, then the Viterbi decode) gives
  // the same mother-rate soft bits and decoded bits at every tier, for a
  // whole field and for one decoded short of it, through one scratch
  // reused dirty across tiers, MCSs and field sizes.
  const std::vector<Tier> tiers = runnable_tiers();
  phy::DecodeScratch scratch;
  std::vector<std::int8_t> llrs, expect_mother;
  BitVec expect_bits;
  for (unsigned i = 0; i < phy::kNumMcs; ++i) {
    const phy::McsParams& m = phy::mcs(i);
    for (const std::size_t n_sym : {1u, 3u, 257u}) {
      util::Rng rng(0xF1'E1'00 + 1000 * i + n_sym);
      llrs.resize(n_sym * m.n_cbps);
      fill_soft_bits(rng, llrs);
      const std::size_t whole = n_sym * m.n_dbps;
      for (const std::size_t n_info : {std::size_t{0}, whole - m.n_dbps / 2}) {
        for (const Tier t : tiers) {
          const phy::simd::ScopedTier pin(t);
          scratch.modulation = m.modulation;
          scratch.llrs = llrs;
          phy::detail::field_bits_from_llrs(m.rate, n_info, scratch);
          if (t == Tier::kScalar) {
            expect_mother = scratch.mother;
            expect_bits = scratch.bits;
            ASSERT_EQ(expect_bits.size(), n_info == 0 ? whole : n_info);
            continue;
          }
          ASSERT_TRUE(scratch.mother == expect_mother)
              << "mcs " << i << " symbols " << n_sym << " info " << n_info
              << " tier " << phy::simd::tier_name(t);
          ASSERT_TRUE(scratch.bits == expect_bits)
              << "mcs " << i << " symbols " << n_sym << " info " << n_info
              << " tier " << phy::simd::tier_name(t);
        }
      }
    }
  }
}

TEST(SimdParity, QuantizerEdgeCases) {
  // A dead estimate quantizes everything to 0, a zero noise estimate
  // still gives a finite positive scale, overflow saturates at ±127, a
  // NaN reads 127, and exact halves round to even — on every tier.
  phy::ChannelEstimate est;
  est.noise_var = 0.01;
  for (const double dead : {0.0, phy::simd::kEqualizeMinGain, -1.0}) {
    est.mean_gain = dead;
    for (const phy::Modulation mod : kMods) {
      EXPECT_EQ(phy::detail::llr_scale(est, mod), 0.0) << dead;
    }
  }
  est.noise_var = 0.0;
  est.mean_gain = 1.0;
  for (const phy::Modulation mod : kMods) {
    const double scale = phy::detail::llr_scale(est, mod);
    EXPECT_TRUE(std::isfinite(scale) && scale > 0.0);
  }
  est.noise_var = 0.5;
  est.mean_gain = 2.0;
  EXPECT_EQ(phy::detail::llr_scale(est, phy::Modulation::kBpsk),
            32.0 * 0.5 / (2.0 * 4.0));

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> edges = {
      0.5,   1.5,    2.5,    -0.5,  -1.5,   -2.5,   126.5, -126.5,
      127.4, 127.5,  -127.5, 128.0, -128.0, 1e300,  -1e300, inf,
      -inf,  nan,    0.0,    -0.0,  3.4999, -3.5,   4.5,   0.49999999999999994};
  const std::vector<std::int8_t> want_unit = {
      0,   2,    2,    0,    -2,   -2,   126,  -126, 127,  127, -127, 127,
      -127, 127, -127, 127,  -127, 127,  0,    0,    3,    -4,  4,    0};
  ASSERT_EQ(edges.size(), want_unit.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(phy::simd::quantize_llr(edges[i], 1.0), want_unit[i])
        << "llr " << edges[i];
    EXPECT_EQ(quantize_reference(edges[i], 1.0), want_unit[i])
        << "llr " << edges[i];
  }
  EXPECT_EQ(phy::simd::quantize_llr(1.0, 0.0), 0);
  EXPECT_EQ(phy::simd::quantize_llr(inf, 0.0), 127);  // 0 * inf is NaN
  // Every length from 1 to 3 × edges, so each edge value lands in the
  // AVX2 kernel's vector body and in its scalar tail.
  std::vector<double> llrs;
  for (std::size_t count = 1; count <= 3 * edges.size(); ++count) {
    llrs.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      llrs[k] = edges[(k + count) % edges.size()];
    }
    expect_quantize_matches(llrs, 1.0, "edges");
    for (double& v : llrs) v *= 2.0;  // exact halves again at scale 0.5
    expect_quantize_matches(llrs, 0.5, "doubled edges");
    expect_quantize_matches(llrs, 0.0, "dead");
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
