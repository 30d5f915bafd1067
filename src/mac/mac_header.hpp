// 802.11 MAC header for QoS data frames (the subframes of an A-MPDU) and
// the fields the testbed needs: frame control, duration, three addresses,
// sequence control and the QoS control field — 26 bytes on the wire.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <cstddef>

#include "util/bits.hpp"

namespace witag::mac {

struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  bool operator==(const MacAddress&) const = default;

  /// "aa:bb:cc:dd:ee:ff"
  std::string to_string() const;
};

/// Convenience literals used by tests/examples.
MacAddress make_address(std::uint8_t tail);

enum class FrameType : std::uint8_t {
  kQosData,   ///< type 2 (data), subtype 8 (QoS data)
  kBlockAck,  ///< type 1 (control), subtype 9
};

struct MacHeader {
  FrameType type = FrameType::kQosData;
  bool protected_frame = false;  ///< Frame body is encrypted.
  bool to_ds = true;             ///< Client -> AP direction.
  MacAddress addr1;              ///< Receiver (the AP for queries).
  MacAddress addr2;              ///< Transmitter.
  MacAddress addr3;              ///< Destination/BSSID.
  std::uint16_t sequence = 0;    ///< 12-bit sequence number.
  std::uint8_t tid = 0;          ///< QoS traffic id (block-ack session).

  bool operator==(const MacHeader&) const = default;
};

/// Serialized QoS data header size in bytes.
inline constexpr std::size_t kQosHeaderBytes = 26;

/// Serializes a QoS data header (26 bytes) into `out`.
/// Requires type == kQosData, sequence < 4096 and tid < 16.
void serialize_header_into(const MacHeader& h,
                           std::span<std::uint8_t, kQosHeaderBytes> out);

/// serialize_header_into() into a fresh buffer.
util::ByteVec serialize_header(const MacHeader& h);

/// Parses a QoS data header; nullopt when the buffer is too short or the
/// frame-control type/subtype is not QoS data.
std::optional<MacHeader> parse_header(std::span<const std::uint8_t> bytes);

}  // namespace witag::mac
