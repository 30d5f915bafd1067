// 802.11 BCC: rate-1/2 convolutional encoder with constraint length 7 and
// generator polynomials g0 = 133 (octal), g1 = 171 (octal), plus the
// standard puncturing patterns for rates 2/3, 3/4 and 5/6.
#pragma once

#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

#include "phy/mcs.hpp"
#include "util/bits.hpp"

namespace witag::phy {

inline constexpr unsigned kConstraintLength = 7;
inline constexpr unsigned kNumStates = 1u << (kConstraintLength - 1);
inline constexpr std::uint8_t kGenPolyA = 0x5B;  // 133 octal, bit-reversed taps
inline constexpr std::uint8_t kGenPolyB = 0x79;  // 171 octal

/// Encodes at mother rate 1/2: each input bit yields output pair (A, B).
/// The encoder starts from the all-zero state; callers append 6 zero tail
/// bits to terminate the trellis (the PPDU layer does this).
util::BitVec convolutional_encode(std::span<const std::uint8_t> bits);

/// Allocation-free variant: writes the coded pairs into `out`, which
/// must hold exactly 2 * bits.size() elements.
void convolutional_encode_into(std::span<const std::uint8_t> bits,
                               std::span<std::uint8_t> out);

/// Punctures rate-1/2 output to the given rate by deleting bits in the
/// standard pattern. Identity for rate 1/2.
util::BitVec puncture(std::span<const std::uint8_t> coded, CodeRate rate);

/// Allocation-free variant: writes the kept bits into `out`, which must
/// hold exactly punctured_length(coded.size(), rate) elements. `out` may
/// start at coded.data(): bit i is read before any write past index i,
/// so the transmitter punctures its coded buffer in place.
void puncture_into(std::span<const std::uint8_t> coded, CodeRate rate,
                   std::span<std::uint8_t> out);

/// Inserts zero erasures where `puncture` deleted bits, restoring the
/// mother-rate int8 LLR stream for the Viterbi decoder: writes all
/// `n_coded_bits` (even) slots of `out` (resized; capacity reused) from
/// exactly punctured_length(n_coded_bits, rate) `llrs`.
void depuncture_into(std::span<const std::int8_t> llrs, CodeRate rate,
                     std::size_t n_coded_bits, std::vector<std::int8_t>& out);

/// Mother-rate coded length -> punctured length for a code rate.
std::size_t punctured_length(std::size_t mother_bits, CodeRate rate);

/// The puncturing keep-mask over one period of (A, B) pairs.
/// Element 2k is pair k's A bit, element 2k+1 its B bit.
std::span<const std::uint8_t> puncture_pattern(CodeRate rate);

namespace detail {

/// The original popcount-per-bit encoder, kept as the specification the
/// LUT-driven convolutional_encode is parity-tested against.
util::BitVec convolutional_encode_reference(std::span<const std::uint8_t> bits);

}  // namespace detail

}  // namespace witag::phy
