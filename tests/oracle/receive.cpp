#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "oracle/oracle.hpp"
#include "phy/constellation.hpp"
#include "phy/convolutional.hpp"
#include "phy/interleaver.hpp"
#include "phy/plcp.hpp"
#include "phy/simd.hpp"
#include "util/require.hpp"

namespace witag::oracle {
namespace {

using util::Cx;

constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

// Common phase error from the four pilots: the angle of the summed
// correlation of the received pilots with their expected post-channel
// values (1 when the sum is 0).
Cx cpe(const phy::FreqSymbol& rx, const phy::ChannelEstimate& est,
       std::size_t symbol_index) {
  const auto pilots_tx = phy::pilot_values(symbol_index);
  const auto pilot_sc = phy::pilot_subcarriers();
  Cx acc{};
  for (std::size_t i = 0; i < phy::kNumPilots; ++i) {
    const unsigned bin = phy::bin_index(pilot_sc[i]);
    acc += rx[bin] * std::conj(est.h[bin] * pilots_tx[i]);
  }
  if (std::abs(acc) > 0.0) return acc / std::abs(acc);
  return Cx{1.0, 0.0};
}

// One symbol's points and noise variances through the separable divide
// in the association simd::EqualizeFn documents.
EqualizedSymbol equalize_separable(const phy::FreqSymbol& rx,
                                   const phy::ChannelEstimate& est,
                                   std::size_t symbol_index,
                                   bool cpe_correction) {
  EqualizedSymbol out;
  const Cx rot = cpe_correction ? cpe(rx, est, symbol_index) : Cx{1.0, 0.0};
  const double cr = rot.real();
  const double ci = rot.imag();
  const double noise_floor = std::max(est.noise_var, 1e-12);
  const auto data_sc = phy::data_subcarriers();
  out.points.resize(data_sc.size());
  out.noise_vars.resize(data_sc.size());
  for (std::size_t i = 0; i < data_sc.size(); ++i) {
    const unsigned bin = phy::bin_index(data_sc[i]);
    const double hr = est.h[bin].real();
    const double hi = est.h[bin].imag();
    const double rr = rx[bin].real();
    const double ri = rx[bin].imag();
    const double g = hr * hr + hi * hi;
    const double yr = rr * cr + ri * ci;
    const double yi = ri * cr - rr * ci;
    if (g < phy::simd::kEqualizeMinGain) {
      out.points[i] = Cx{};
      out.noise_vars[i] = phy::simd::kEqualizeDeadNoise;
      continue;
    }
    out.points[i] = Cx{(yr * hr + yi * hi) / g, (yi * hr - yr * hi) / g};
    out.noise_vars[i] = noise_floor / g;
  }
  return out;
}

// One field through the staged chain: air-order LLRs, mother-rate
// stream, the reference decoder.
util::BitVec decode_field(std::span<const phy::FreqSymbol> symbols,
                          const phy::ChannelEstimate& est,
                          const phy::McsParams& m,
                          std::size_t first_symbol_index, bool cpe_correction,
                          std::size_t n_info_bits) {
  const std::vector<std::int8_t> air =
      air_llrs(symbols, est, m.modulation, first_symbol_index, cpe_correction);
  return viterbi_reference(
      mother_llrs(air, m.modulation, m.rate, n_info_bits));
}

}  // namespace

EqualizedSymbol equalize_reference(const phy::FreqSymbol& rx,
                                   const phy::ChannelEstimate& est,
                                   std::size_t symbol_index,
                                   bool cpe_correction) {
  EqualizedSymbol out;
  const Cx rot = cpe_correction ? cpe(rx, est, symbol_index) : Cx{1.0, 0.0};
  const auto data_sc = phy::data_subcarriers();
  out.points.resize(data_sc.size());
  out.noise_vars.resize(data_sc.size());
  for (std::size_t i = 0; i < data_sc.size(); ++i) {
    const unsigned bin = phy::bin_index(data_sc[i]);
    const double gain = std::norm(est.h[bin]);
    if (gain < phy::simd::kEqualizeMinGain) {
      // A dead bin carries no information: neutral point, huge noise.
      out.points[i] = Cx{};
      out.noise_vars[i] = phy::simd::kEqualizeDeadNoise;
      continue;
    }
    out.points[i] = rx[bin] * std::conj(rot) / est.h[bin];
    out.noise_vars[i] = std::max(est.noise_var, 1e-12) / gain;
  }
  return out;
}

std::vector<double> demap_soft_reference(std::span<const Cx> points,
                                         phy::Modulation mod,
                                         std::span<const double> noise_vars) {
  WITAG_REQUIRE(points.size() == noise_vars.size());
  const unsigned n = phy::bits_per_symbol(mod);
  const std::span<const Cx> table = phy::constellation_points(mod);
  std::vector<double> out(points.size() * n);
  std::size_t w = 0;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Cx& y = points[p];
    const double noise_var = noise_vars[p];
    WITAG_REQUIRE(noise_var > 0.0);
    for (unsigned b = 0; b < n; ++b) {
      double min0 = std::numeric_limits<double>::infinity();
      double min1 = std::numeric_limits<double>::infinity();
      for (unsigned i = 0; i < table.size(); ++i) {
        const double d = std::norm(y - table[i]);
        if ((i >> b) & 1u) {
          min1 = std::min(min1, d);
        } else {
          min0 = std::min(min0, d);
        }
      }
      // Max-log LLR; positive favors bit value 0.
      out[w++] = (min1 - min0) / noise_var;
    }
  }
  return out;
}

std::int8_t quantize(double llr, double scale) {
  const double v = llr * scale;
  if (std::isnan(v)) return 127;
  return static_cast<std::int8_t>(
      std::nearbyint(std::clamp(v, -127.0, 127.0)));
}

std::vector<std::int8_t> air_llrs(std::span<const phy::FreqSymbol> symbols,
                                  const phy::ChannelEstimate& est,
                                  phy::Modulation mod,
                                  std::size_t first_symbol_index,
                                  bool cpe_correction) {
  const double scale = phy::detail::llr_scale(est, mod);
  std::vector<std::int8_t> air;
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    const EqualizedSymbol eq = equalize_separable(
        symbols[s], est, first_symbol_index + s, cpe_correction);
    for (const double llr :
         demap_soft_reference(eq.points, mod, eq.noise_vars)) {
      air.push_back(quantize(llr, scale));
    }
  }
  return air;
}

std::vector<std::int8_t> mother_llrs(std::span<const std::int8_t> air,
                                     phy::Modulation mod, phy::CodeRate rate,
                                     std::size_t n_info_bits) {
  const unsigned n_bpsc = phy::bits_per_symbol(mod);
  const unsigned n_cbps = phy::kDataSubcarriers * n_bpsc;
  WITAG_REQUIRE(air.size() % n_cbps == 0);
  const std::vector<std::size_t> map = phy::interleave_map(n_cbps, n_bpsc);
  std::vector<std::int8_t> field(air.size());
  for (std::size_t base = 0; base < air.size(); base += n_cbps) {
    for (std::size_t k = 0; k < n_cbps; ++k) {
      field[base + k] = air[base + map[k]];
    }
  }
  const std::span<const std::uint8_t> pattern = phy::puncture_pattern(rate);
  const auto frac = phy::rate_fraction(rate);
  const std::size_t n_info = field.size() * frac.num / frac.den;
  std::vector<std::int8_t> mother(2 * n_info);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < mother.size(); ++i) {
    mother[i] = pattern[i % pattern.size()] ? field[kept++] : std::int8_t{0};
  }
  WITAG_ENSURE(kept == field.size());
  if (n_info_bits != 0) {
    WITAG_REQUIRE(n_info_bits <= n_info);
    mother.resize(2 * n_info_bits);
  }
  return mother;
}

phy::RxResult receive(std::span<const phy::FreqSymbol> symbols,
                      const phy::RxConfig& cfg) {
  WITAG_REQUIRE(symbols.size() >= phy::kHeaderSlots);
  phy::RxResult out;
  out.estimate = phy::estimate_channel(
      symbols.subspan(phy::kStfSlots, phy::kLtfSlots));

  const util::BitVec sig_bits =
      decode_field(symbols.subspan(phy::kPreambleSlots, phy::kSigSymbols),
                   out.estimate, phy::mcs(0), 0, cfg.cpe_correction, 0);
  const std::optional<phy::HtSig> sig = phy::decode_sig(sig_bits);
  if (!sig || sig->mcs_index >= phy::kNumMcs || sig->length == 0) return out;
  out.sig = *sig;

  const phy::McsParams& m = phy::mcs(out.sig.mcs_index);
  const std::size_t n_sym = phy::data_symbols_for(out.sig.length, m);
  if (symbols.size() < phy::kHeaderSlots + n_sym) return out;
  out.sig_ok = true;

  // Service + PSDU + tail: the trellis terminates after the tail.
  const std::size_t payload_bits = 8 * out.sig.length;
  const util::BitVec plain = descramble_recover_reference(decode_field(
      symbols.subspan(phy::kHeaderSlots, n_sym), out.estimate, m,
      phy::kSigSymbols, cfg.cpe_correction,
      kServiceBits + payload_bits + kTailBits));
  out.psdu = util::bits_to_bytes(
      std::span(plain).subspan(kServiceBits, payload_bits));
  return out;
}

}  // namespace witag::oracle
