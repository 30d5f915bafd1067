#include "phy/interleaver.hpp"

#include <algorithm>
#include <cstdint>
#include <array>

#include "phy/simd.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

constexpr unsigned kNcol = 13;

unsigned n_cbps_for(Modulation mod) {
  return kDataSubcarriers * bits_per_symbol(mod);
}

// The permutation depends only on the modulation, and the decode path
// applies it once per OFDM symbol — cache the four maps instead of
// rebuilding (and re-allocating) them every call. int32 indices, because
// the AVX2 deinterleave kernel gathers through vpgatherdd; n_cbps is at
// most 312 (64-QAM), so the narrowing is always exact.
const std::vector<std::int32_t>& cached_map(Modulation mod) {
  static const std::array<std::vector<std::int32_t>, 4> kMaps = [] {
    std::array<std::vector<std::int32_t>, 4> maps;
    for (const Modulation m : {Modulation::kBpsk, Modulation::kQpsk,
                               Modulation::kQam16, Modulation::kQam64}) {
      for (const std::size_t idx :
           interleave_map(n_cbps_for(m), bits_per_symbol(m))) {
        maps[static_cast<std::size_t>(m)].push_back(
            static_cast<std::int32_t>(idx));
      }
    }
    return maps;
  }();
  return kMaps[static_cast<std::size_t>(mod)];
}

}  // namespace

std::vector<std::size_t> interleave_map(unsigned n_cbps, unsigned n_bpsc) {
  WITAG_REQUIRE(n_cbps == kDataSubcarriers * n_bpsc);
  const unsigned n_row = n_cbps / kNcol;
  const unsigned s = std::max(n_bpsc / 2, 1u);
  std::vector<std::size_t> map(n_cbps);
  for (unsigned k = 0; k < n_cbps; ++k) {
    // First permutation: write row-wise, read column-wise.
    const unsigned i = n_row * (k % kNcol) + k / kNcol;
    // Second permutation: rotate within groups of s bits so adjacent coded
    // bits land on alternating halves of the constellation point.
    const unsigned j = s * (i / s) +
                       (i + n_cbps - (kNcol * i) / n_cbps) % s;
    map[k] = j;
  }
  return map;
}

util::BitVec interleave(std::span<const std::uint8_t> bits, Modulation mod) {
  const unsigned n_cbps = n_cbps_for(mod);
  WITAG_REQUIRE(bits.size() == n_cbps);
  const auto& map = cached_map(mod);
  util::BitVec out(n_cbps);
  for (unsigned k = 0; k < n_cbps; ++k) out.data()[map[k]] = bits[k];
  return out;
}

util::BitVec deinterleave(std::span<const std::uint8_t> bits, Modulation mod) {
  const unsigned n_cbps = n_cbps_for(mod);
  WITAG_REQUIRE(bits.size() == n_cbps);
  const auto& map = cached_map(mod);
  util::BitVec out(n_cbps);
  for (unsigned k = 0; k < n_cbps; ++k) out[k] = bits.data()[map[k]];
  return out;
}

void deinterleave_llrs_into(std::span<const std::int8_t> llrs, Modulation mod,
                            std::span<std::int8_t> out) {
  const unsigned n_cbps = n_cbps_for(mod);
  WITAG_REQUIRE(llrs.size() == n_cbps && out.size() == n_cbps);
  const auto& map = cached_map(mod);
  // Pure permutation, so the kernel is trivially identical at every
  // tier; AVX2 replaces 312 dependent loads with 39 gathers per symbol.
  simd::deinterleave_for(simd::active_tier())(llrs.data(), map.data(), n_cbps,
                                              out.data());
}

}  // namespace witag::phy
