// Gray-coded constellation mapping and soft demapping per 802.11
// (17.3.5.8): BPSK, QPSK, 16-QAM, 64-QAM with the standard normalization
// factors so every modulation has unit average power.
#pragma once

#include <span>
#include <cstddef>
#include <cstdint>

#include "phy/mcs.hpp"
#include "util/bits.hpp"
#include "util/complexvec.hpp"

namespace witag::phy {

namespace simd {
struct DemapAxes;
}  // namespace simd

/// Maps `bits` (group of n_bpsc per point, first bit = I-axis LSB-first
/// per the standard's bit ordering) to constellation points.
/// Requires bits.size() to be a multiple of bits_per_symbol(mod).
util::CxVec map_bits(std::span<const std::uint8_t> bits, Modulation mod);

/// Hard-decision demap: nearest constellation point back to bits.
util::BitVec demap_hard(std::span<const util::Cx> points, Modulation mod);

/// The (normalized) points of a constellation in bit-pattern order:
/// entry i is the point whose bits, LSB-first, encode i.
std::span<const util::Cx> constellation_points(Modulation mod);

/// The per-axis view of a constellation that the phy::simd demap
/// kernels take (simd::DemapAxes), built once per modulation.
const simd::DemapAxes& demap_axes(Modulation mod);

}  // namespace witag::phy
