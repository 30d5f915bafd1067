// 802.11 PLCP scrambler (17.3.5.5): the 7-bit LFSR with polynomial
// x^7 + x^4 + 1. The same operation scrambles and descrambles. Also
// exposes the 127-bit pilot polarity sequence derived from the all-ones
// seed, which the standard reuses for per-symbol pilot signs.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bits.hpp"

namespace witag::phy {

/// Scrambles (or descrambles) `bits` with the given 7-bit seed.
/// Requires seed in [1, 127] (an all-zero state would be degenerate).
util::BitVec scramble(std::span<const std::uint8_t> bits, std::uint8_t seed);

/// Allocation-free variant: writes the scrambled stream into `out`,
/// which must be as long as `bits` and may be `bits` itself (the PPDU
/// transmitter scrambles its data field in place).
void scramble_into(std::span<const std::uint8_t> bits, std::uint8_t seed,
                   std::span<std::uint8_t> out);

/// Descrambles a stream whose first 7 plain bits are known to be zero
/// (the 802.11 SERVICE-field convention): the first 7 scrambled bits are
/// then the raw LFSR output, which reveals the scrambler state without
/// the receiver knowing the transmitter's seed. Requires >= 7 bits.
util::BitVec descramble_recover(std::span<const std::uint8_t> bits);

/// Allocation-reusing variant: writes the descrambled stream into `out`
/// (resized; capacity reused). The hot decode path threads one buffer
/// through phy::DecodeScratch.
void descramble_recover_into(std::span<const std::uint8_t> bits,
                             util::BitVec& out);

/// The 127-element +1/-1 pilot polarity sequence p_0..p_126 produced by
/// the scrambler LFSR seeded with all ones (802.11 17.3.5.10).
const std::array<int, 127>& pilot_polarity_sequence();

}  // namespace witag::phy
