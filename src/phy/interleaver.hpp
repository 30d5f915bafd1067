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

/// Interleaves one symbol's worth of coded bits.
/// Requires bits.size() == n_cbps for the modulation.
util::BitVec interleave(std::span<const std::uint8_t> bits, Modulation mod);

/// Allocation-free variant: writes the interleaved bits into `out`, which
/// must hold n_cbps elements and must not overlap `bits` (the
/// transmitter interleaves into a per-symbol stack buffer).
void interleave_into(std::span<const std::uint8_t> bits, Modulation mod,
                     std::span<std::uint8_t> out);

/// Inverse of `interleave` (on bits).
util::BitVec deinterleave(std::span<const std::uint8_t> bits, Modulation mod);

/// Deinterleaves soft values (LLRs) for one symbol.
std::vector<double> deinterleave_llrs(std::span<const double> llrs,
                                      Modulation mod);

/// Allocation-free variant for the hot decode path: writes into `out`,
/// which must hold n_cbps elements (the receiver passes its slot of the
/// field's LLR buffer), using a cached permutation map.
void deinterleave_llrs_into(std::span<const double> llrs, Modulation mod,
                            std::span<double> out);

}  // namespace witag::phy
