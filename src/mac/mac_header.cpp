#include "mac/mac_header.hpp"

#include <algorithm>
#include <cstdio>
#include <cstddef>

#include "util/require.hpp"

namespace witag::mac {
namespace {

constexpr std::uint8_t kFcVersionTypeSubtypeQosData = 0x88;  // subtype 8, type 2
constexpr std::uint8_t kFcFlagToDs = 0x01;
constexpr std::uint8_t kFcFlagProtected = 0x40;

}  // namespace

std::string MacAddress::to_string() const {
  char buf[18];
  std::snprintf(buf, sizeof buf, "%02x:%02x:%02x:%02x:%02x:%02x", octets[0],
                octets[1], octets[2], octets[3], octets[4], octets[5]);
  return buf;
}

MacAddress make_address(std::uint8_t tail) {
  return MacAddress{{0x02, 0x57, 0x69, 0x54, 0x41, tail}};  // 02:57:69:54:41:xx
}

void serialize_header_into(const MacHeader& h,
                           std::span<std::uint8_t, kQosHeaderBytes> out) {
  WITAG_REQUIRE(h.type == FrameType::kQosData);
  WITAG_REQUIRE(h.sequence < 4096);
  WITAG_REQUIRE(h.tid < 16);

  std::uint8_t flags = 0;
  if (h.to_ds) flags |= kFcFlagToDs;
  if (h.protected_frame) flags |= kFcFlagProtected;
  out[0] = kFcVersionTypeSubtypeQosData;
  out[1] = flags;
  out[2] = 0;  // duration (filled by real NICs; unused here)
  out[3] = 0;
  auto at = out.begin() + 4;
  for (const MacAddress* addr : {&h.addr1, &h.addr2, &h.addr3}) {
    at = std::copy(addr->octets.begin(), addr->octets.end(), at);
  }
  const std::uint16_t seq_ctrl = static_cast<std::uint16_t>(h.sequence << 4);
  out[22] = static_cast<std::uint8_t>(seq_ctrl & 0xFF);
  out[23] = static_cast<std::uint8_t>(seq_ctrl >> 8);
  out[24] = h.tid;  // QoS control low byte
  out[25] = 0;      // QoS control high byte
}

util::ByteVec serialize_header(const MacHeader& h) {
  util::ByteVec out(kQosHeaderBytes);
  serialize_header_into(h, std::span<std::uint8_t, kQosHeaderBytes>(out));
  return out;
}

std::optional<MacHeader> parse_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kQosHeaderBytes) return std::nullopt;
  if (bytes[0] != kFcVersionTypeSubtypeQosData) return std::nullopt;

  MacHeader h;
  h.type = FrameType::kQosData;
  h.to_ds = (bytes[1] & kFcFlagToDs) != 0;
  h.protected_frame = (bytes[1] & kFcFlagProtected) != 0;
  std::size_t off = 4;
  for (auto* addr : {&h.addr1, &h.addr2, &h.addr3}) {
    std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(off), 6,
                addr->octets.begin());
    off += 6;
  }
  const std::uint16_t seq_ctrl =
      static_cast<std::uint16_t>(bytes[off] | (bytes[off + 1] << 8));
  h.sequence = static_cast<std::uint16_t>(seq_ctrl >> 4);
  off += 2;
  h.tid = static_cast<std::uint8_t>(bytes[off] & 0x0F);
  return h;
}

}  // namespace witag::mac
