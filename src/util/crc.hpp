// CRC implementations used by the 802.11 MAC machinery.
//
// - CRC-32 (IEEE 802.3 / 802.11 FCS): reflected, poly 0x04C11DB7,
//   init 0xFFFFFFFF, final XOR 0xFFFFFFFF.
// - CRC-8 (A-MPDU delimiter signature check, 802.11n clause 8 style):
//   poly x^8 + x^2 + x + 1 (0x07), init 0xFF, final XOR 0xFF.
#pragma once

#include <cstdint>
#include <span>

namespace witag::util {

/// CRC-32 over `data` (802.11 FCS convention).
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental CRC-32: feed `data` into a running value. Start with
/// crc32_init() and finish with crc32_final().
std::uint32_t crc32_init();
std::uint32_t crc32_update(std::uint32_t state, std::span<const std::uint8_t> data);
std::uint32_t crc32_final(std::uint32_t state);

/// CRC-8 over `data` (A-MPDU delimiter convention).
std::uint8_t crc8(std::span<const std::uint8_t> data);

}  // namespace witag::util
