// 802.11n BCC interleaver for 20 MHz single-stream transmission
// (Ncol = 13, Nrow = 4 * Nbpsc over the 52 data subcarriers). The two
// standard permutations spread adjacent coded bits across subcarriers and
// across constellation bit positions.
#pragma once

#include <cstddef>
#include <span>
#include <vector>
#include <cstdint>

#include "phy/mcs.hpp"
#include "util/bits.hpp"

namespace witag::phy {

/// Permutation table: entry k is the output position of input bit k for
/// one OFDM symbol of `n_cbps` coded bits at `n_bpsc` bits/subcarrier.
std::vector<std::size_t> interleave_map(unsigned n_cbps, unsigned n_bpsc);

/// Interleaves one symbol's worth of coded bits through interleave_map()
/// (the transmitter folds the map into its gather table instead).
/// Requires bits.size() == n_cbps for the modulation.
util::BitVec interleave(std::span<const std::uint8_t> bits, Modulation mod);

/// Inverse of `interleave` (on bits).
util::BitVec deinterleave(std::span<const std::uint8_t> bits, Modulation mod);

}  // namespace witag::phy
