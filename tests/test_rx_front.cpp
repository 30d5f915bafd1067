// Parity tests for the receive path against tests/oracle's staged
// chain. The front end (phy::detail::field_llrs_into and
// field_bits_from_llrs) runs one pass per OFDM symbol through the
// points-only equalizer and the demap-and-quantize kernel, then places
// the soft bits at their mother-rate positions through the
// transmitter's table; the oracle equalizes into an array of points and
// noise variances, demaps to double LLRs (the full-table reference),
// quantizes, deinterleaves each symbol and depunctures the field. Every
// runnable tier and MCS must give the oracle's mother-rate stream bit
// for bit, dead bins, NaN and infinite points and ±127 saturation
// included. Whole PPDUs through the channel model must decode to the
// oracle's PSDU bytes, bit errors included.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "channel/channel_model.hpp"
#include "oracle/oracle.hpp"
#include "phy/channel_est.hpp"
#include "phy/constellation.hpp"
#include "phy/mcs.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "phy/simd.hpp"
#include "phy/viterbi.hpp"
#include "tiers.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace witag {
namespace {

using Tier = phy::simd::Tier;
using util::Cx;

// ---------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------

/// An estimate with dead bins (|h|^2 well below kEqualizeMinGain),
/// bins near the threshold and ordinary ones; `noise_var` 0 is a
/// noise-free estimate (the floor 1e-12 applies). A `mean_gain` well
/// below the bins' gains drives the quantizer into ±127.
phy::ChannelEstimate fuzz_estimate(util::Rng& rng, double noise_var,
                                   double mean_gain) {
  phy::ChannelEstimate est;
  for (const int sc : phy::data_subcarriers()) {
    const unsigned bin = phy::bin_index(sc);
    switch (rng.uniform_int(10)) {
      case 0:
        est.h[bin] = Cx{};
        break;
      case 1:
        est.h[bin] = rng.complex_normal(1e-21);  // |h|^2 ~ 1e-21: dead
        break;
      case 2:
        est.h[bin] = rng.complex_normal(1e-18);  // straddles the threshold
        break;
      default:
        est.h[bin] = rng.complex_normal(1.0);
        break;
    }
  }
  for (const int sc : phy::pilot_subcarriers()) {
    est.h[phy::bin_index(sc)] = rng.complex_normal(1.0);
  }
  est.noise_var = noise_var;
  est.mean_gain = mean_gain;
  return est;
}

/// Received symbols: random constellation points through the estimate's
/// channel, rotated by a common phase, plus noise; pilots likewise. A
/// few data bins per field are NaN, ±inf or huge (their points
/// overflow to ±inf or NaN after the divide).
std::vector<phy::FreqSymbol> fuzz_symbols(util::Rng& rng,
                                          const phy::ChannelEstimate& est,
                                          phy::Modulation mod,
                                          std::size_t n_symbols,
                                          std::size_t first_symbol_index,
                                          double noise_sigma2) {
  const std::span<const Cx> table = phy::constellation_points(mod);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<phy::FreqSymbol> symbols(n_symbols);
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const double phase = rng.uniform(-0.3, 0.3);
    const Cx rot{std::cos(phase), std::sin(phase)};
    phy::FreqSymbol& sym = symbols[s];
    for (const int sc : phy::data_subcarriers()) {
      const unsigned bin = phy::bin_index(sc);
      const Cx point = table[rng.uniform_int(table.size())];
      sym[bin] = est.h[bin] * point * rot + rng.complex_normal(noise_sigma2);
      switch (rng.uniform_int(64)) {
        case 0:
          sym[bin] = Cx{nan, sym[bin].imag()};
          break;
        case 1:
          sym[bin] = Cx{inf, 0.0};
          break;
        case 2:
          sym[bin] = Cx{-inf, -inf};
          break;
        case 3:
          sym[bin] = Cx{1e305, -1e305};
          break;
        default:
          break;
      }
    }
    const auto pilots = phy::pilot_values(first_symbol_index + s);
    const auto pilot_sc = phy::pilot_subcarriers();
    for (std::size_t i = 0; i < phy::kNumPilots; ++i) {
      const unsigned bin = phy::bin_index(pilot_sc[i]);
      sym[bin] =
          est.h[bin] * pilots[i] * rot + rng.complex_normal(noise_sigma2);
    }
  }
  return symbols;
}

/// The new front end on `scratch`, the way receive_into() runs a field.
void decode_field(std::span<const phy::FreqSymbol> symbols,
                  const phy::ChannelEstimate& est, const phy::McsParams& m,
                  std::size_t first_symbol_index, bool cpe_correction,
                  std::size_t n_info_bits, phy::DecodeScratch& scratch) {
  phy::detail::field_llrs_into(symbols, est, m.modulation, first_symbol_index,
                               cpe_correction, scratch);
  phy::detail::field_bits_from_llrs(m.rate, n_info_bits, scratch);
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

constexpr phy::Modulation kMods[] = {
    phy::Modulation::kBpsk, phy::Modulation::kQpsk, phy::Modulation::kQam16,
    phy::Modulation::kQam64};

TEST(RxFrontParity, DemapQuantizeEveryTierMatchesOracle) {
  // The kernel alone: every count 1..130 (each AVX2 remainder reaches
  // the scalar tail), points that are exact constellation points (ties
  // in the minima), NaN or ±inf in either coordinate, far outliers that
  // saturate, dead-bin and tiny noise variances, and scales from 0 to
  // large.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Tier> tiers = test::runnable_tiers();
  std::vector<double> re, im, nv;
  std::vector<std::int8_t> got;
  for (std::size_t count = 1; count <= 130; ++count) {
    util::Rng rng(0x0F'DE'00 + count);
    for (const phy::Modulation mod : kMods) {
      const std::span<const Cx> table = phy::constellation_points(mod);
      util::CxVec points(count);
      nv.resize(count);
      for (std::size_t p = 0; p < count; ++p) {
        double coord[2];
        for (double& c : coord) {
          switch (rng.uniform_int(12)) {
            case 0: c = nan; break;
            case 1: c = inf; break;
            case 2: c = -inf; break;
            case 3: c = rng.uniform(-1e200, 1e200); break;
            default: c = rng.uniform(-1.5, 1.5); break;
          }
        }
        points[p] = rng.uniform_int(4) == 0
                        ? table[rng.uniform_int(table.size())]
                        : Cx{coord[0], coord[1]};
        switch (rng.uniform_int(4)) {
          case 0: nv[p] = phy::simd::kEqualizeDeadNoise; break;
          case 1: nv[p] = 1e-12; break;
          default: nv[p] = rng.uniform(1e-3, 10.0); break;
        }
      }
      re.resize(count);
      im.resize(count);
      for (std::size_t p = 0; p < count; ++p) {
        re[p] = points[p].real();
        im[p] = points[p].imag();
      }
      const double scale = count % 5 == 0 ? 0.0 : rng.uniform(1e-3, 50.0);
      const std::vector<double> llrs =
          oracle::demap_soft_reference(points, mod, nv);
      const phy::simd::DemapAxes& ax = phy::demap_axes(mod);
      for (const Tier t : tiers) {
        got.assign(llrs.size(), std::int8_t{-128});
        phy::simd::demap_quantize_for(t)(re.data(), im.data(), nv.data(),
                                         count, ax, scale, got.data());
        for (std::size_t k = 0; k < llrs.size(); ++k) {
          ASSERT_EQ(got[k], oracle::quantize(llrs[k], scale))
              << "count " << count << " mod " << ax.n_bits << " bpsc, k " << k
              << " point " << points[k / ax.n_bits] << " llr " << llrs[k]
              << " tier " << phy::simd::tier_name(t);
        }
      }
    }
  }
}

TEST(RxFrontParity, FieldMatchesStageChainEveryTierEveryMcs) {
  // Fields of 1, 2 and 257 symbols (a 64-subframe MCS5 query's data
  // field) at every MCS, with CPE on and off, a noisy and a noise-free
  // estimate, a saturating mean gain, a dead field (scale 0) and a
  // truncated decode.
  struct Shape {
    std::size_t n_symbols;
    double noise_var;
    double mean_gain;
    bool cpe;
    bool truncate;
  };
  constexpr Shape kShapes[] = {
      {1, 0.05, 1.0, true, false},   {2, 0.0, 1.0, false, false},
      {257, 0.02, 1.0, true, true},  {257, 0.0, 1.0, false, false},
      {3, 0.05, 0.01, true, false},  {2, 0.05, 0.0, true, false},
  };
  const std::vector<Tier> tiers = test::runnable_tiers();
  phy::DecodeScratch scratch;
  std::size_t saturated_pos = 0;
  std::size_t saturated_neg = 0;
  for (unsigned mcs_index = 0; mcs_index < phy::kNumMcs; ++mcs_index) {
    const phy::McsParams& m = phy::mcs(mcs_index);
    for (std::size_t shape = 0; shape < std::size(kShapes); ++shape) {
      const Shape& sh = kShapes[shape];
      util::Rng rng(0x0F'F1'00 + 16 * mcs_index + shape);
      const phy::ChannelEstimate est =
          fuzz_estimate(rng, sh.noise_var, sh.mean_gain);
      const std::vector<phy::FreqSymbol> symbols = fuzz_symbols(
          rng, est, m.modulation, sh.n_symbols, phy::kSigSymbols, 0.01);
      const std::size_t n_info = sh.n_symbols * m.n_dbps;
      const std::size_t n_info_bits = sh.truncate ? n_info - 77 : 0;
      const std::vector<std::int8_t> air = oracle::air_llrs(
          symbols, est, m.modulation, phy::kSigSymbols, sh.cpe);
      const std::vector<std::int8_t> expect =
          oracle::mother_llrs(air, m.modulation, m.rate, n_info_bits);
      saturated_pos += static_cast<std::size_t>(
          std::count(air.begin(), air.end(), std::int8_t{127}));
      saturated_neg += static_cast<std::size_t>(
          std::count(air.begin(), air.end(), std::int8_t{-127}));
      util::BitVec expect_bits;
      phy::ViterbiWorkspace ws;
      phy::viterbi_decode(expect, ws, expect_bits);
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        decode_field(symbols, est, m, phy::kSigSymbols, sh.cpe, n_info_bits,
                     scratch);
        const std::string what = "mcs " + std::to_string(mcs_index) +
                                 " shape " + std::to_string(shape) +
                                 " tier " + phy::simd::tier_name(t);
        ASSERT_EQ(scratch.llrs, air) << what;
        ASSERT_EQ(scratch.mother, expect) << what;
        ASSERT_EQ(scratch.bits, expect_bits) << what;
      }
    }
  }
  // The inputs reach the quantizer's clamp on both sides (NaN reads 127).
  EXPECT_GT(saturated_pos, 0u);
  EXPECT_GT(saturated_neg, 0u);
}

TEST(RxFrontParity, ReusedScratchMatchesFresh) {
  // One scratch decodes an MCS 3 field (rate 1/2: no erasures, every
  // mother-rate slot written), then MCS 5 (rate 2/3: erasures where the
  // MCS 3 field left soft bits) and then a BPSK SIG; each must equal a
  // fresh scratch's decode, so nothing stale survives a change of MCS.
  struct Field {
    unsigned mcs_index;
    std::size_t n_symbols;
    std::size_t first_symbol_index;
  };
  constexpr Field kFields[] = {{3, 600, 2}, {5, 257, 2}, {0, 2, 0}};
  for (const Tier t : test::runnable_tiers()) {
    const phy::simd::ScopedTier pin(t);
    phy::DecodeScratch reused;
    for (const Field& f : kFields) {
      const phy::McsParams& m = phy::mcs(f.mcs_index);
      util::Rng rng(0x5C'4A'00 + f.mcs_index);
      const phy::ChannelEstimate est = fuzz_estimate(rng, 0.05, 1.0);
      const std::vector<phy::FreqSymbol> symbols =
          fuzz_symbols(rng, est, m.modulation, f.n_symbols,
                       f.first_symbol_index, 0.05);
      phy::DecodeScratch fresh;
      decode_field(symbols, est, m, f.first_symbol_index, true, 0, fresh);
      decode_field(symbols, est, m, f.first_symbol_index, true, 0, reused);
      const std::string what = "mcs " + std::to_string(f.mcs_index) +
                               " tier " + phy::simd::tier_name(t);
      EXPECT_EQ(reused.modulation, m.modulation) << what;
      ASSERT_EQ(reused.mother, fresh.mother) << what;
      ASSERT_EQ(reused.bits, fresh.bits) << what;
    }
  }
}

TEST(RxOracleParity, PsduMatchesOracleEveryTierEveryMcs) {
  // Seeded PSDUs at every MCS through the channel model: an 8 m room
  // link at a transmit power from clean to marginal (at -35 dBm a few
  // SIG fields fail too), thermal noise, and a tag asserted on the
  // middle third of the data symbols, so the LTF estimate goes stale
  // mid-PPDU. Each capture decodes through phy::receive at every
  // runnable tier and through the oracle's staged chain; the header
  // outcome and the PSDU bytes must agree, bit errors and all. On this
  // seed set every MCS decodes 7 or 8 of its 8 PPDUs and 2-5 of them
  // carry bit errors.
  constexpr double kTxPowerDbm[] = {15.0, -10.0, -25.0, -35.0};
  constexpr unsigned kTrials = 8;
  const std::vector<Tier> tiers = test::runnable_tiers();
  channel::FadingConfig still;
  still.n_scatterers = 0;
  still.blocking_rate_hz = util::Hertz{0.0};
  still.interference_rate_hz = util::Hertz{0.0};
  std::array<std::size_t, phy::kNumMcs> decoded{};
  std::array<std::size_t, phy::kNumMcs> with_errors{};
  for (unsigned mcs_index = 0; mcs_index < phy::kNumMcs; ++mcs_index) {
    for (unsigned trial = 0; trial < kTrials; ++trial) {
      util::Rng rng(0x0A'C1'00 + 16 * mcs_index + trial);
      const util::ByteVec psdu = rng.bytes(40 + rng.uniform_int(360));
      phy::TxConfig cfg;
      cfg.mcs_index = mcs_index;
      cfg.scrambler_seed = static_cast<std::uint8_t>(1 + rng.uniform_int(127));
      const phy::TxPpdu ppdu = phy::transmit(psdu, cfg);
      std::vector<std::uint8_t> level(ppdu.size(), 0);
      const std::size_t third = ppdu.n_data_symbols / 3;
      std::fill_n(level.begin() +
                      static_cast<std::ptrdiff_t>(phy::kHeaderSlots + third),
                  third, std::uint8_t{1});

      channel::RadioConfig radio;
      radio.tx_power_dbm = util::Dbm{kTxPowerDbm[trial % 4]};
      channel::LinkGeometry geo;
      geo.tx = {0.0, 0.0};
      geo.rx = {8.0, 0.0};
      geo.reflectors = channel::default_room_reflectors(geo.tx, geo.rx);
      const channel::TagPathConfig tag{
          {1.0 + static_cast<double>(trial % 7), 0.5}, 7.0,
          channel::TagMode::kPhaseFlip};
      channel::ChannelModel ch(radio, geo, tag, still, rng.next_u64());
      const std::vector<phy::FreqSymbol> rx = ch.apply(ppdu.symbols, level);

      const phy::RxResult expect = oracle::receive(rx, {});
      for (const Tier t : tiers) {
        const phy::simd::ScopedTier pin(t);
        const phy::RxResult got = phy::receive(rx, {});
        const std::string what = "mcs " + std::to_string(mcs_index) +
                                 " trial " + std::to_string(trial) +
                                 " tier " + phy::simd::tier_name(t);
        ASSERT_EQ(got.sig_ok, expect.sig_ok) << what;
        ASSERT_EQ(got.sig, expect.sig) << what;
        ASSERT_EQ(got.psdu, expect.psdu) << what;
      }
      if (expect.sig_ok) {
        ++decoded[mcs_index];
        if (expect.psdu != psdu) ++with_errors[mcs_index];
      }
    }
  }
  // Every MCS compared decoded PSDUs, and some of them carried bit
  // errors, so the comparison reached the decoder's error paths.
  for (unsigned mcs_index = 0; mcs_index < phy::kNumMcs; ++mcs_index) {
    EXPECT_GT(decoded[mcs_index], 0u) << "mcs " << mcs_index;
  }
  std::size_t errors = 0;
  for (const std::size_t e : with_errors) errors += e;
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace witag
