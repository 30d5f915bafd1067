// HT signal field (SIG): carries the MCS and PSDU length at the most
// robust rate (BPSK, rate 1/2) with a CRC-8 so the receiver can reject a
// mangled header. Encoded into two OFDM symbols like 802.11n's
// HT-SIG1/HT-SIG2 (field layout simplified; see DESIGN.md).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>
#include <cstddef>

#include "util/bits.hpp"

namespace witag::phy {

/// Decoded signal-field contents.
struct HtSig {
  unsigned mcs_index = 0;    ///< 7-bit MCS field.
  std::size_t length = 0;    ///< PSDU length in bytes (16-bit field).

  bool operator==(const HtSig&) const = default;
};

/// Uncoded SIG payload bits per PPDU (fills two BPSK r=1/2 symbols).
inline constexpr std::size_t kSigBits = 52;

/// Number of SIG OFDM symbols.
inline constexpr std::size_t kSigSymbols = 2;

/// Serializes the SIG to its 52 uncoded bits (fields + CRC-8 + tail +
/// zero pad). Requires mcs_index < 128 and length < 65536.
util::BitVec encode_sig(const HtSig& sig);

/// encode_sig() into a fixed-size array, which the transmitter encodes
/// without a heap allocation.
std::array<std::uint8_t, kSigBits> encode_sig_bits(const HtSig& sig);

/// Parses 52 decoded bits back to a SIG; nullopt when the CRC fails.
std::optional<HtSig> decode_sig(std::span<const std::uint8_t> bits);

}  // namespace witag::phy
