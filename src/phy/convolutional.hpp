// 802.11 BCC: rate-1/2 convolutional encoder with constraint length 7 and
// generator polynomials g0 = 133 (octal), g1 = 171 (octal), plus the
// standard puncturing patterns for rates 2/3, 3/4 and 5/6.
#pragma once

#include <cstdint>
#include <span>
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

/// The two mother-rate streams from their tap equations, eight input
/// bits per 64-bit XOR: a[i] = x[i]^x[i-2]^x[i-3]^x[i-5]^x[i-6] (133
/// octal) and b[i] = x[i]^x[i-1]^x[i-2]^x[i-3]^x[i-6] (171 octal), with
/// x[i < 0] = 0. `a` and `b` must each hold bits.size() elements.
void convolutional_streams_into(std::span<const std::uint8_t> bits,
                                std::span<std::uint8_t> a,
                                std::span<std::uint8_t> b);

/// Punctures rate-1/2 output to the given rate by deleting bits in the
/// standard pattern: coded[i] survives iff pattern[i % period]. Identity
/// for rate 1/2. The transmitter folds the pattern into its gather table
/// instead (detail::tx_gather_table).
util::BitVec puncture(std::span<const std::uint8_t> coded, CodeRate rate);

/// Mother-rate coded length -> punctured length for a code rate.
std::size_t punctured_length(std::size_t mother_bits, CodeRate rate);

/// The puncturing keep-mask over one period of (A, B) pairs.
/// Element 2k is pair k's A bit, element 2k+1 its B bit.
std::span<const std::uint8_t> puncture_pattern(CodeRate rate);

}  // namespace witag::phy
