#include "phy/interleaver.hpp"

#include <algorithm>
#include <cstdint>

#include "util/require.hpp"

namespace witag::phy {
namespace {

constexpr unsigned kNcol = 13;

unsigned n_cbps_for(Modulation mod) {
  return kDataSubcarriers * bits_per_symbol(mod);
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
  const std::vector<std::size_t> map =
      interleave_map(n_cbps, bits_per_symbol(mod));
  util::BitVec out(n_cbps);
  for (unsigned k = 0; k < n_cbps; ++k) out.data()[map[k]] = bits[k];
  return out;
}

util::BitVec deinterleave(std::span<const std::uint8_t> bits, Modulation mod) {
  const unsigned n_cbps = n_cbps_for(mod);
  WITAG_REQUIRE(bits.size() == n_cbps);
  const std::vector<std::size_t> map =
      interleave_map(n_cbps, bits_per_symbol(mod));
  util::BitVec out(n_cbps);
  for (unsigned k = 0; k < n_cbps; ++k) out[k] = bits.data()[map[k]];
  return out;
}

}  // namespace witag::phy
