// Tier-parity tests for the SIMD dispatch layer (phy/simd.hpp): every
// kernel tier the hardware can run — scalar, AVX2, AVX-512 — must
// produce bit-identical output to the reference implementations in
// tests/oracle, over fuzz regimes that include the degenerate cases
// (Viterbi ties, demap dead bins, erasures) where "almost equal" kernels
// diverge first.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "oracle/oracle.hpp"
#include "phy/channel_est.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/fft.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "phy/preamble.hpp"
#include "phy/simd.hpp"
#include "phy/trellis.hpp"
#include "phy/viterbi.hpp"
#include "tiers.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"
#include "util/rng.hpp"
#include "util/ziggurat.hpp"

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
  // host without AVX-512 VBMI (Skylake-SP, Cascade Lake) or DQ runs
  // AVX2.
  const Tier best = phy::simd::detect_best_tier();
  std::cout << "[simd] detected tier " << phy::simd::tier_name(best) << ": "
            << (best == Tier::kAvx512
                    ? "the AVX-512 ACS, placement, transmit-mapping and "
                      "noise kernels run"
                    : "no AVX-512 kernel runs (it needs AVX-512 F, BW, DQ "
                      "and VBMI)")
            << "\n";
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  if (__builtin_cpu_supports("avx512vbmi") == 0 ||
      __builtin_cpu_supports("avx512dq") == 0) {
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
  // Only the ACS (block and pair), the soft-bit placement, the transmit
  // mapping and the channel's noise lanes and mix have AVX-512 kernels;
  // at that tier every other kernel must stay on AVX2. The pair entry
  // runs its tier's block kernel below AVX-512, so it differs between
  // scalar and AVX2 too. A dispatch that tests `tier == kAvx2` would
  // send them back to scalar instead, and the outputs would still be
  // byte-identical, so no parity test would notice. The placement, the
  // transmit mapping and the noise have no AVX2 kernel: AVX2 runs the
  // scalar one. The traceback's bt + adc step serves both vector tiers.
  const auto& k2 = phy::simd::fft_kernels_for(Tier::kAvx2);
  const auto& k512 = phy::simd::fft_kernels_for(Tier::kAvx512);
  EXPECT_EQ(phy::simd::demap_block_for(Tier::kAvx512),
            phy::simd::demap_block_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::demap_quantize_for(Tier::kAvx512),
            phy::simd::demap_quantize_for(Tier::kAvx2));
  EXPECT_EQ(phy::simd::equalize_for(Tier::kAvx512),
            phy::simd::equalize_for(Tier::kAvx2));
  EXPECT_EQ(k512.radix4_pass, k2.radix4_pass);
  EXPECT_EQ(k512.len2_pass, k2.len2_pass);
  EXPECT_EQ(k512.scale, k2.scale);
  EXPECT_EQ(phy::simd::place_for(Tier::kAvx2),
            phy::simd::place_for(Tier::kScalar));
  EXPECT_EQ(phy::simd::tx_map_for(Tier::kAvx2),
            phy::simd::tx_map_for(Tier::kScalar));
  EXPECT_EQ(phy::simd::normal_lanes_for(Tier::kAvx2),
            phy::simd::normal_lanes_for(Tier::kScalar));
  EXPECT_EQ(phy::simd::channel_mix_for(Tier::kAvx2),
            phy::simd::channel_mix_for(Tier::kScalar));
  EXPECT_EQ(phy::simd::traceback_for(Tier::kAvx512),
            phy::simd::traceback_for(Tier::kAvx2));
  if (phy::simd::detect_best_tier() >= Tier::kAvx2) {
    // ... and AVX2 really is a vector kernel on hosts that have it.
    const auto& k0 = phy::simd::fft_kernels_for(Tier::kScalar);
    EXPECT_NE(phy::simd::demap_block_for(Tier::kAvx2),
              phy::simd::demap_block_for(Tier::kScalar));
    EXPECT_NE(phy::simd::demap_quantize_for(Tier::kAvx2),
              phy::simd::demap_quantize_for(Tier::kScalar));
    EXPECT_NE(phy::simd::equalize_for(Tier::kAvx2),
              phy::simd::equalize_for(Tier::kScalar));
    EXPECT_NE(k2.radix4_pass, k0.radix4_pass);
    EXPECT_NE(phy::simd::acs_block_for(Tier::kAvx2),
              phy::simd::acs_block_for(Tier::kScalar));
    EXPECT_NE(phy::simd::acs_pair_for(Tier::kAvx2),
              phy::simd::acs_pair_for(Tier::kScalar));
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    EXPECT_NE(phy::simd::traceback_for(Tier::kAvx2),
              phy::simd::traceback_for(Tier::kScalar));
#endif
  }
  if (phy::simd::detect_best_tier() >= Tier::kAvx512) {
    EXPECT_NE(phy::simd::acs_block_for(Tier::kAvx512),
              phy::simd::acs_block_for(Tier::kAvx2));
    EXPECT_NE(phy::simd::acs_pair_for(Tier::kAvx512),
              phy::simd::acs_pair_for(Tier::kAvx2));
    EXPECT_NE(phy::simd::place_for(Tier::kAvx512),
              phy::simd::place_for(Tier::kAvx2));
    EXPECT_NE(phy::simd::tx_map_for(Tier::kAvx512),
              phy::simd::tx_map_for(Tier::kAvx2));
    EXPECT_NE(phy::simd::normal_lanes_for(Tier::kAvx512),
              phy::simd::normal_lanes_for(Tier::kAvx2));
    EXPECT_NE(phy::simd::channel_mix_for(Tier::kAvx512),
              phy::simd::channel_mix_for(Tier::kAvx2));
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

    const BitVec expect = oracle::viterbi_reference(llrs);
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
    const BitVec expect = oracle::viterbi_reference(llrs);
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

TEST(SimdParity, AcsPairEveryTierMatchesBlockCalls) {
  // The pair kernel's contract is three calls of the scalar block kernel
  // (simd.hpp); every tier's pair entry, the scalar one included, must
  // reproduce their decision words, the warm-up's side words, both end
  // metrics and the snapshot. The (n, split, warmup) cases cover empty
  // chains, split == warmup (B starts with A), split == n (B's part
  // after the warm-up is empty), a split off the renormalization grid,
  // each chain being the longer one, and the decoder's own splits. The
  // decision buffer starts dirty, since the AVX-512 kernel writes its
  // branch-metric words there first.
  struct Case {
    std::size_t n, split, warmup;
  };
  constexpr Case kCases[] = {
      {0, 0, 0},         {1, 0, 0},         {1, 1, 0},
      {40, 16, 16},      {40, 40, 32},      {47, 32, 32},
      {100, 37, 16},     {300, 250, 16},    {300, 64, 64},
      {2048, 1280, 512}, {2049, 1280, 512}, {4097, 2304, 512},
      {53270, 26880, 512}};
  constexpr std::uint64_t kDirt = 0xD1'27'D1'27'D1'27'D1'27;
  const std::vector<Tier> tiers = runnable_tiers();
  const phy::simd::AcsBlockFn scalar =
      phy::simd::acs_block_for(Tier::kScalar);
  std::vector<std::uint64_t> expect_dec, expect_side, got_dec, got_side;
  for (const Case& c : kCases) {
    for (int regime = 0; regime < 9; ++regime) {
      for (int start = 0; start < 3; ++start) {
        util::Rng rng(0xAC'5C'00 + 64 * c.n + 8 * c.split +
                      static_cast<unsigned>(4 * regime + start));
        const BitVec info = random_info_bits(rng, c.n);
        const BitVec coded = phy::convolutional_encode(info);
        const std::vector<std::int8_t> llrs =
            regime < 5 ? fuzz_llrs(rng, coded, regime)
                       : full_scale_llrs(rng, coded, regime - 5);
        const std::vector<std::int16_t> a0 = acs_start_metrics(rng, start);
        // B starts from zeros, as in the decoder, or from random metrics.
        const std::vector<std::int16_t> b0 =
            start == 0 ? std::vector<std::int16_t>(phy::kNumStates, 0)
                       : acs_start_metrics(rng, start);

        std::vector<std::int16_t> expect_a = a0;
        std::vector<std::int16_t> expect_b = b0;
        expect_dec.assign(c.n, 0);
        expect_side.assign(c.warmup, 0);
        scalar(llrs.data(), c.split, expect_dec.data(), expect_a.data());
        scalar(llrs.data() + 2 * (c.split - c.warmup), c.warmup,
               expect_side.data(), expect_b.data());
        const std::vector<std::int16_t> expect_snapshot = expect_b;
        scalar(llrs.data() + 2 * c.split, c.n - c.split,
               expect_dec.data() + c.split, expect_b.data());
        for (const Tier t : tiers) {
          std::vector<std::int16_t> got_a = a0;
          std::vector<std::int16_t> got_b = b0;
          std::vector<std::int16_t> got_snapshot(phy::kNumStates, 0x2727);
          got_dec.assign(c.n, kDirt);
          got_side.assign(c.warmup, kDirt);
          phy::simd::acs_pair_for(t)(
              llrs.data(), c.n, got_dec.data(),
              {c.split, c.warmup, got_side.data(), got_a.data(),
               got_b.data(), got_snapshot.data()});
          const auto where = [&] {
            return "n " + std::to_string(c.n) + " split " +
                   std::to_string(c.split) + " warmup " +
                   std::to_string(c.warmup) + " regime " +
                   std::to_string(regime) + " start " +
                   std::to_string(start) + " tier " +
                   phy::simd::tier_name(t);
          };
          ASSERT_TRUE(got_dec == expect_dec) << where();
          ASSERT_TRUE(got_side == expect_side) << where();
          ASSERT_TRUE(got_a == expect_a) << where();
          ASSERT_TRUE(got_b == expect_b) << where();
          ASSERT_TRUE(got_snapshot == expect_snapshot) << where();
        }
      }
    }
  }
}

TEST(SimdParity, ViterbiSplitLengthsMatchReference) {
  // viterbi_decode splits fields of 2,048 steps and more into two
  // chains. Around that threshold and at exchange size, in every fuzz
  // regime and every ±127 stream, every tier must still decode exactly
  // the reference's bits.
  constexpr std::size_t kSteps[] = {2047, 2048, 2049, 4097, 53270};
  const std::vector<Tier> tiers = runnable_tiers();
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (const std::size_t n_steps : kSteps) {
    for (int regime = 0; regime < 9; ++regime) {
      util::Rng rng(0x5B'17'00 + 16 * n_steps + static_cast<unsigned>(regime));
      const BitVec info = random_info_bits(rng, n_steps);
      const BitVec coded = phy::convolutional_encode(info);
      const std::vector<std::int8_t> llrs =
          regime < 5 ? fuzz_llrs(rng, coded, regime)
                     : full_scale_llrs(rng, coded, regime - 5);
      const BitVec expect = oracle::viterbi_reference(llrs);
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        phy::viterbi_decode(llrs, ws, decoded);
        ASSERT_EQ(decoded, expect)
            << "steps " << n_steps << " regime " << regime << " tier "
            << phy::simd::tier_name(t);
      }
    }
  }
}

/// The counters of the decoder's split trellis.
struct SplitCounts {
  std::uint64_t splits = obs::counter("phy.viterbi.splits").value();
  std::uint64_t reruns = obs::counter("phy.viterbi.split_reruns").value();
};

TEST(SimdParity, ViterbiSplitRerunStaysExact) {
  // A field whose second chain cannot converge: noisy LLRs, except from
  // 64 steps before chain B starts to 64 steps after the split, where
  // each LLR is +32 if the alternating input 1010... encodes a 0 there
  // and 0 if it encodes a 1. Both that input's path and the all-zero
  // one collect every +32, and neither passes through the other's
  // states, so each chain carries whatever lead one of them held when
  // the window began: A a lead from the noisy steps before, B none.
  // B's snapshot differs from A's metrics, the decoder re-runs the
  // second half and must still match the reference, at every tier. At
  // 53,270 steps this field also decodes to other bits if the re-run is
  // skipped.
  constexpr std::size_t kWarmup = phy::detail::kSplitWarmup;
  const std::vector<Tier> tiers = runnable_tiers();
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (const std::size_t n_steps : {std::size_t{4097}, std::size_t{53270}}) {
    const std::size_t split = phy::detail::split_step(n_steps);
    util::Rng rng(3);
    const BitVec info = random_info_bits(rng, n_steps);
    std::vector<std::int8_t> llrs =
        fuzz_llrs(rng, phy::convolutional_encode(info), 1);
    BitVec alternating(n_steps);
    for (std::size_t i = 0; i < n_steps; ++i) {
      alternating[i] = static_cast<std::uint8_t>((i + 1) % 2);
    }
    const BitVec window_code = phy::convolutional_encode(alternating);
    for (std::size_t i = 2 * (split - kWarmup - 64); i < 2 * (split + 64);
         ++i) {
      llrs[i] = window_code[i] != 0 ? 0 : 32;
    }
    const BitVec expect = oracle::viterbi_reference(llrs);
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      const SplitCounts before;
      phy::viterbi_decode(llrs, ws, decoded);
      const SplitCounts after;
      EXPECT_EQ(after.splits, before.splits + 1);
      EXPECT_EQ(after.reruns, before.reruns + 1)
          << "steps " << n_steps << " tier " << phy::simd::tier_name(t);
      ASSERT_EQ(decoded, expect)
          << "steps " << n_steps << " tier " << phy::simd::tier_name(t);
    }
  }
}

TEST(SimdParity, ViterbiSplitCleanFieldsNeverRerun) {
  // On a noiseless and a high-SNR (±8 on ±32) exchange-sized field,
  // chain B has converged long before its warm-up ends, so the decoder
  // must accept the split without re-running anything. A split off the
  // renormalization grid would compare metrics on different
  // renormalization schedules and re-run every field.
  constexpr std::size_t kExchangeSteps = 53270;
  const std::vector<Tier> tiers = runnable_tiers();
  phy::ViterbiWorkspace ws;
  BitVec decoded;
  for (const int noise : {0, 1}) {
    util::Rng rng(0xC1'EA'00 + static_cast<unsigned>(noise));
    const BitVec info = random_info_bits(rng, kExchangeSteps);
    const BitVec coded = phy::convolutional_encode(info);
    std::vector<std::int8_t> llrs(coded.size());
    for (std::size_t i = 0; i < coded.size(); ++i) {
      const auto jitter = static_cast<int>(rng.uniform_int(2 * 8 + 1)) - 8;
      llrs[i] = static_cast<std::int8_t>((coded[i] != 0 ? -32 : 32) +
                                         (noise != 0 ? jitter : 0));
    }
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      const SplitCounts before;
      phy::viterbi_decode(llrs, ws, decoded);
      const SplitCounts after;
      EXPECT_EQ(after.splits, before.splits + 1);
      EXPECT_EQ(after.reruns, before.reruns)
          << "noise " << noise << " tier " << phy::simd::tier_name(t);
      ASSERT_EQ(decoded, info)
          << "noise " << noise << " tier " << phy::simd::tier_name(t);
    }
  }
}

TEST(SimdParity, TracebackEveryTierMatchesPortableLoop) {
  // Every tier's traceback against the walk written out here, on random
  // decision words: any word is a valid ACS output, and random ones send
  // the state through all 64 values. Counts 1-130 cover every remainder
  // around a kernel's blocks of steps, 4,096 and 53,270 the decoder's
  // sizes; the output buffer is dirty, and its bytes past n_steps must
  // survive.
  constexpr std::uint8_t kDirt = 0xA5;
  constexpr std::size_t kGuard = 16;
  std::vector<std::size_t> counts;
  for (std::size_t n = 1; n <= 130; ++n) counts.push_back(n);
  counts.push_back(4096);
  counts.push_back(53270);
  const std::vector<Tier> tiers = runnable_tiers();
  std::vector<std::uint64_t> decisions;
  std::vector<std::uint8_t> expect, got;
  for (const std::size_t n_steps : counts) {
    util::Rng rng(0x7B'AC'00 + n_steps);
    decisions.resize(n_steps);
    for (auto& word : decisions) word = rng.next_u64();
    expect.assign(n_steps + kGuard, kDirt);
    std::uint32_t state = 0;
    for (std::size_t step = n_steps; step-- > 0;) {
      expect[step] = static_cast<std::uint8_t>(state >> 5);
      const auto bit = (decisions[step] >> state) & 1u;
      state = ((2 * state) % 64) + static_cast<std::uint32_t>(bit);
    }
    for (const Tier t : tiers) {
      got.assign(n_steps + kGuard, kDirt);
      phy::simd::traceback_for(t)(decisions.data(), n_steps, got.data());
      ASSERT_TRUE(got == expect)
          << "steps " << n_steps << " tier " << phy::simd::tier_name(t);
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
/// the 1e18 dead-bin regime the equalizer's plan gives nulled
/// subcarriers.
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
  // SoA arrays fed straight to each tier's kernel must match the
  // full-table reference bit for bit. Counts run 1..300, so every AVX2
  // remainder (count % 4) reaches the scalar tail.
  const std::vector<Tier> tiers = runnable_tiers();
  util::CxVec points;
  std::vector<double> noise_vars;
  std::vector<double> re, im, got;
  for (std::size_t count = 1; count <= 300; ++count) {
    util::Rng rng(0x50'A0 + count);
    for (const phy::Modulation mod : kMods) {
      const phy::simd::DemapAxes& ax = phy::demap_axes(mod);
      fuzz_points(rng, mod, count, points, noise_vars);
      re.resize(count);
      im.resize(count);
      for (std::size_t p = 0; p < count; ++p) {
        re[p] = points[p].real();
        im[p] = points[p].imag();
      }
      const std::vector<double> expect =
          oracle::demap_soft_reference(points, mod, noise_vars);
      for (const Tier t : tiers) {
        got.assign(expect.size(), 0.0);
        phy::simd::demap_block_for(t)(re.data(), im.data(),
                                      noise_vars.data(), count, ax,
                                      got.data());
        ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                              expect.size() * sizeof(double)),
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

using DataPoints = std::array<double, phy::kDataSubcarriers>;

TEST(SimdParity, EqualizeEveryTierBitIdentical) {
  const std::vector<Tier> tiers = runnable_tiers();
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  phy::EqualizerPlan plan;
  alignas(32) DataPoints scalar_re, scalar_im, re, im;
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    util::Rng rng(0xE9'0A'11 + trial);
    fuzz_channel(rng, rx, est);
    const bool cpe = (trial % 2) == 0;
    phy::plan_equalizer(est, plan);
    {
      const phy::simd::ScopedTier pin(Tier::kScalar);
      phy::equalize_points(rx, est, plan, trial % 7, cpe, scalar_re.data(),
                           scalar_im.data());
    }
    for (const Tier t : tiers) {
      const phy::simd::ScopedTier pin(t);
      phy::equalize_points(rx, est, plan, trial % 7, cpe, re.data(),
                           im.data());
      ASSERT_EQ(std::memcmp(re.data(), scalar_re.data(), sizeof(re)), 0)
          << "trial " << trial << " tier " << phy::simd::tier_name(t);
      ASSERT_EQ(std::memcmp(im.data(), scalar_im.data(), sizeof(im)), 0)
          << "trial " << trial << " tier " << phy::simd::tier_name(t);
    }
  }
}

TEST(SimdParity, EqualizeKernelMatchesComplexDivisionReference) {
  // The kernel computes y * conj(h) / |h|^2 in separable real
  // arithmetic; the reference uses std::complex operator/ (libgcc's
  // scaled Smith algorithm). Identical real math is impossible, so this
  // pins the agreement to a few ULP in relative terms instead — enough
  // that the demapper's LLRs are indistinguishable. The noise variances
  // come from the plan.
  phy::FreqSymbol rx{};
  phy::ChannelEstimate est;
  phy::EqualizerPlan plan;
  alignas(32) DataPoints re, im;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    util::Rng rng(0xE9'0B'22 + trial);
    fuzz_channel(rng, rx, est);
    const bool cpe = (trial % 2) == 0;
    phy::plan_equalizer(est, plan);
    phy::equalize_points(rx, est, plan, trial % 7, cpe, re.data(), im.data());
    const oracle::EqualizedSymbol expect =
        oracle::equalize_reference(rx, est, trial % 7, cpe);
    ASSERT_EQ(expect.points.size(), re.size());
    for (std::size_t i = 0; i < expect.points.size(); ++i) {
      const double scale = std::max(1.0, std::abs(expect.points[i]));
      ASSERT_NEAR(re[i], expect.points[i].real(), 1e-12 * scale)
          << "trial " << trial << " point " << i;
      ASSERT_NEAR(im[i], expect.points[i].imag(), 1e-12 * scale)
          << "trial " << trial << " point " << i;
      ASSERT_NEAR(plan.noise_vars[i], expect.noise_vars[i],
                  1e-12 * expect.noise_vars[i])
          << "trial " << trial << " point " << i;
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

// ---------------------------------------------------------------------
// Transmit mapping.
// ---------------------------------------------------------------------

TEST(SimdParity, TxMapEveryTierMatchesTableLoop) {
  // Every tier's transmit mapping against the bit-serial encoder and a
  // table loop written here from the gather table, the constellation and
  // the data bins alone, on every MCS (MCS0's plan maps the SIG field):
  // fields of 1, 2, 17 and 257 symbols of random bits written into one
  // reused timeline, dirtied before each call. Every bin of the field's
  // symbols must be written (data bins with their points, all others 0)
  // and the symbols past it left alone.
  constexpr std::size_t kGuard = 3;
  const std::vector<Tier> tiers = runnable_tiers();
  const std::span<const unsigned> bins = phy::data_bins();
  std::vector<phy::FreqSymbol> expect, got;
  phy::FreqSymbol dirt;
  dirt.fill(util::Cx{std::numeric_limits<double>::quiet_NaN(), -0.0});
  for (unsigned i = 0; i < phy::kNumMcs; ++i) {
    const phy::McsParams& m = phy::mcs(i);
    const std::span<const std::uint16_t> table =
        phy::detail::tx_gather_table(i);
    const std::span<const util::Cx> points =
        phy::constellation_points(m.modulation);
    const phy::simd::TxMapPlan& plan = phy::detail::tx_map_plan(i);
    ASSERT_EQ(plan.table.size(), std::size_t{m.n_cbps}) << "mcs " << i;
    ASSERT_EQ(plan.n_dbps, std::size_t{m.n_dbps}) << "mcs " << i;
    for (const std::size_t n_sym : {1u, 2u, 17u, 257u}) {
      util::Rng rng(0x7A'AB'00 + 1000 * i + n_sym);
      const BitVec bits = rng.bits(n_sym * m.n_dbps);
      // A0 B0 A1 B1 ...: mother-rate position p of symbol s is
      // mother[s * 2 * n_dbps + p].
      const BitVec mother = oracle::convolutional_encode_reference(bits);
      expect.assign(n_sym + kGuard, dirt);
      for (std::size_t s = 0; s < n_sym; ++s) {
        expect[s].fill(util::Cx{});
        for (std::size_t k = 0; k < bins.size(); ++k) {
          unsigned index = 0;
          for (unsigned b = 0; b < m.n_bpsc; ++b) {
            const std::uint16_t pos = table[k * m.n_bpsc + b];
            index |= static_cast<unsigned>(mother[s * 2 * m.n_dbps + pos])
                     << b;
          }
          expect[s][bins[k]] = points[index];
        }
      }
      // The kernel reads kTxMapLead zero bytes before the field.
      BitVec lead_and_bits(phy::simd::kTxMapLead, 0);
      lead_and_bits.insert(lead_and_bits.end(), bits.begin(), bits.end());
      for (const Tier t : tiers) {
        got.resize(n_sym + kGuard);
        std::fill(got.begin(), got.end(), dirt);
        phy::simd::tx_map_for(t)(lead_and_bits.data() + phy::simd::kTxMapLead,
                                 n_sym, plan, got.data());
        ASSERT_EQ(std::memcmp(got.data(), expect.data(),
                              got.size() * sizeof(phy::FreqSymbol)),
                  0)
            << "mcs " << i << " symbols " << n_sym << " tier "
            << phy::simd::tier_name(t);
      }
    }
  }
}

TEST(SimdParity, TransmitIntoEveryTierMatchesScalar) {
  // transmit_into at each tier, into one PPDU reused across tiers, MCSs
  // and lengths and dirtied before each call, equals a fresh transmit()
  // at the scalar tier byte for byte: preamble, SIG, data and pilots.
  const std::vector<Tier> tiers = runnable_tiers();
  phy::TxPpdu reused;
  phy::FreqSymbol dirt;
  dirt.fill(util::Cx{std::numeric_limits<double>::quiet_NaN(), -0.0});
  util::Rng rng(0x7A'AC'01);
  for (unsigned i = 0; i < phy::kNumMcs; ++i) {
    for (const std::size_t bytes : {1u, 300u, 6656u, 40u}) {
      const util::ByteVec psdu = rng.bytes(bytes);
      phy::TxConfig cfg;
      cfg.mcs_index = i;
      cfg.scrambler_seed = static_cast<std::uint8_t>(1 + rng.uniform_int(127));
      phy::TxPpdu expect;
      {
        const phy::simd::ScopedTier pin(Tier::kScalar);
        expect = phy::transmit(psdu, cfg);
      }
      for (const Tier t : tiers) {
        std::fill(reused.symbols.begin(), reused.symbols.end(), dirt);
        const phy::simd::ScopedTier pin(t);
        phy::transmit_into(psdu, cfg, reused);
        ASSERT_EQ(reused.symbols.size(), expect.symbols.size());
        ASSERT_EQ(std::memcmp(reused.symbols.data(), expect.symbols.data(),
                              expect.symbols.size() * sizeof(phy::FreqSymbol)),
                  0)
            << "mcs " << i << " bytes " << bytes << " tier "
            << phy::simd::tier_name(t);
        EXPECT_EQ(reused.n_data_symbols, expect.n_data_symbols);
        EXPECT_EQ(reused.sig, expect.sig);
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
    EXPECT_EQ(oracle::quantize(edges[i], 1.0), want_unit[i])
        << "llr " << edges[i];
  }
  EXPECT_EQ(phy::simd::quantize_llr(1.0, 0.0), 0);
  EXPECT_EQ(phy::simd::quantize_llr(inf, 0.0), 127);  // 0 * inf is NaN
  // Each edge value e reaches every tier's demap-and-quantize kernel as
  // its scale: BPSK points at -1/4 and +1/4 with noise variance nv
  // demap to LLRs of exactly +1/nv and -1/nv, so at scale e * nv they
  // quantize exactly e and -e (at nv = 1/2 the halves come back exact
  // after a multiply). Counts 1..9 put each value in the AVX2 kernel's
  // four-point body and in its scalar tail.
  const phy::simd::DemapAxes& ax = phy::demap_axes(phy::Modulation::kBpsk);
  std::vector<double> re, im, nv;
  std::vector<std::int8_t> got;
  for (const double var : {1.0, 0.5}) {
    for (std::size_t count = 1; count <= 9; ++count) {
      re.resize(count);
      im.assign(count, 0.0);
      nv.assign(count, var);
      for (std::size_t p = 0; p < count; ++p) {
        re[p] = p % 2 == 0 ? -0.25 : 0.25;
      }
      const util::CxVec points(re.begin(), re.end());
      const std::vector<double> llrs = oracle::demap_soft_reference(
          points, phy::Modulation::kBpsk, nv);
      for (std::size_t p = 0; p < count; ++p) {
        ASSERT_EQ(llrs[p], (p % 2 == 0 ? 1.0 : -1.0) / var) << "point " << p;
      }
      for (std::size_t i = 0; i < edges.size(); ++i) {
        const double scale = edges[i] * var;
        for (const Tier t : runnable_tiers()) {
          got.assign(count, std::int8_t{-128});
          phy::simd::demap_quantize_for(t)(re.data(), im.data(), nv.data(),
                                           count, ax, scale, got.data());
          for (std::size_t p = 0; p < count; ++p) {
            const std::int8_t want =
                p % 2 == 0 ? want_unit[i] : oracle::quantize(-edges[i], 1.0);
            ASSERT_EQ(got[p], want)
                << "edge " << edges[i] << " noise " << var << " count "
                << count << " point " << p << " tier "
                << phy::simd::tier_name(t);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Channel noise lanes and the channel's mix.
// ---------------------------------------------------------------------

phy::simd::NoiseLanes seeded_lanes(std::uint64_t seed) {
  util::Rng root(seed);
  phy::simd::NoiseLanes lanes;
  for (util::Rng& lane : lanes) lane = root.split();
  return lanes;
}

// Every tier against the contract, written out as Rng::normal() calls:
// group g is lane 0's, ..., lane 7's next normal(), out[8g + l] is lane
// l's, and a last partial group still steps every lane. Calls with
// every count 0-1,000 (~500k draws per seed, ~2M per tier, so ~8.6k
// draws miss the fast path and ~100 land in the tail) from four seeds,
// the lanes carried from call to call.
TEST(SimdParity, NormalLanesEveryTierMatchesNormalCalls) {
  for (const Tier t : runnable_tiers()) {
    const phy::simd::NormalLanesFn fill = phy::simd::normal_lanes_for(t);
    std::size_t tail = 0;
    std::size_t draws = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      phy::simd::NoiseLanes lanes = seeded_lanes(seed);
      phy::simd::NoiseLanes want = lanes;
      std::vector<double> out(1000 + 1);
      for (std::size_t count = 0; count <= 1000; ++count) {
        out[count] = -7.0;  // must stay: past the count
        fill(lanes, count, out.data());
        for (std::size_t i = 0; i < (count + 7) / 8 * 8; ++i) {
          const double z = want[i % 8].normal();
          if (i >= count) continue;
          ASSERT_EQ(out[i], z) << phy::simd::tier_name(t) << " seed " << seed
                               << " count " << count << " draw " << i;
          tail += std::abs(z) > util::ziggurat::kR ? 1 : 0;
        }
        ASSERT_EQ(out[count], -7.0);
        draws += count;
        for (std::size_t l = 0; l < phy::simd::kNoiseLanes; ++l) {
          ASSERT_TRUE(lanes[l] == want[l])
              << phy::simd::tier_name(t) << " seed " << seed << " count "
              << count << " lane " << l;
        }
      }
    }
    EXPECT_GE(draws, 2'000'000u);
    EXPECT_GT(tail, 0u) << phy::simd::tier_name(t);
  }
}

// The mix's contract at the scalar tier, bin by bin, and every tier
// against it: random symbols whose bins are zero in h, in tx, in both
// (never drawn, written 0) or in neither, with -0.0 parts and a NaN, at
// several sigmas including 0.
TEST(SimdParity, ChannelMixEveryTierMatchesContract) {
  util::Rng rng(0xC4A7);
  constexpr std::size_t kSymbols = 300;
  std::vector<phy::simd::SymbolBins> h(kSymbols);
  std::vector<phy::simd::SymbolBins> tx(kSymbols);
  std::vector<double> sigma(kSymbols);
  const auto part = [&] {
    const std::uint64_t pick = rng.uniform_int(8);
    if (pick == 0) return 0.0;
    if (pick == 1) return -0.0;
    return rng.normal();
  };
  for (std::size_t s = 0; s < kSymbols; ++s) {
    for (unsigned b = 0; b < 64; ++b) {
      // One bin in four zero in both, one in four zero in h only.
      const std::uint64_t kind = rng.uniform_int(4);
      h[s][b] = kind <= 1 ? util::Cx{} : util::Cx{part(), part()};
      tx[s][b] = kind == 0 ? util::Cx{-0.0, 0.0} : util::Cx{part(), part()};
    }
    sigma[s] = s % 7 == 0 ? 0.0 : rng.uniform(0.0, 2.0);
  }
  h[5][9] = util::Cx{std::numeric_limits<double>::quiet_NaN(), 0.0};

  // Scalar tier against the formula, from the lanes' normals.
  std::vector<phy::simd::SymbolBins> want(kSymbols);
  {
    phy::simd::NoiseLanes lanes = seeded_lanes(77);
    phy::simd::NoiseLanes ref = lanes;
    const phy::simd::ChannelMixFn mix =
        phy::simd::channel_mix_for(Tier::kScalar);
    for (std::size_t s = 0; s < kSymbols; ++s) {
      std::vector<unsigned> active;
      for (unsigned b = 0; b < 64; ++b) {
        if (h[s][b] != util::Cx{} || tx[s][b] != util::Cx{}) {
          active.push_back(b);
        }
      }
      std::vector<double> z(2 * active.size());
      phy::simd::normal_lanes_for(Tier::kScalar)(ref, z.size(), z.data());
      mix(lanes, h[s], tx[s], sigma[s], want[s]);
      std::size_t k = 0;
      for (unsigned b = 0; b < 64; ++b) {
        util::Cx expect{};
        if (k < active.size() && active[k] == b) {
          const double hr = h[s][b].real();
          const double hi = h[s][b].imag();
          const double tr = tx[s][b].real();
          const double ti = tx[s][b].imag();
          expect = {(hr * tr - hi * ti) + sigma[s] * z[2 * k],
                    (hr * ti + hi * tr) + sigma[s] * z[2 * k + 1]};
          ++k;
        }
        const double* got = reinterpret_cast<const double*>(&want[s][b]);
        const double* exp = reinterpret_cast<const double*>(&expect);
        ASSERT_EQ(std::memcmp(got, exp, 2 * sizeof(double)), 0)
            << "symbol " << s << " bin " << b;
      }
    }
    for (std::size_t l = 0; l < phy::simd::kNoiseLanes; ++l) {
      ASSERT_TRUE(lanes[l] == ref[l]) << "lane " << l;
    }
  }

  for (const Tier t : runnable_tiers()) {
    phy::simd::NoiseLanes lanes = seeded_lanes(77);
    const phy::simd::ChannelMixFn mix = phy::simd::channel_mix_for(t);
    for (std::size_t s = 0; s < kSymbols; ++s) {
      phy::simd::SymbolBins rx;
      rx.fill(util::Cx{3.0, -5.0});  // a reused buffer
      mix(lanes, h[s], tx[s], sigma[s], rx);
      ASSERT_EQ(std::memcmp(rx.data(), want[s].data(), sizeof rx), 0)
          << phy::simd::tier_name(t) << " symbol " << s;
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
      oracle::fft_reference_inplace(expect, inverse);

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
