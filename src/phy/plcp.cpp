#include "phy/plcp.hpp"

#include "util/crc.hpp"
#include "util/require.hpp"
#include <cstddef>

namespace witag::phy {
namespace {

constexpr std::size_t kFieldBits = 24;  // mcs(7) + length(16) + reserved(1)

}  // namespace

util::BitVec encode_sig(const HtSig& sig) {
  const std::array<std::uint8_t, kSigBits> bits = encode_sig_bits(sig);
  return util::BitVec(bits.begin(), bits.end());
}

std::array<std::uint8_t, kSigBits> encode_sig_bits(const HtSig& sig) {
  WITAG_REQUIRE(sig.mcs_index < 128);
  WITAG_REQUIRE(sig.length < 65536);
  // The fields LSB-first: mcs (7 bits), length (16), reserved (1, 0).
  const auto fields = static_cast<std::uint32_t>(
      sig.mcs_index | sig.length << 7);
  // Their CRC-8 over the three bytes they pack into, LSB-first.
  const std::array<std::uint8_t, 3> packed{
      static_cast<std::uint8_t>(fields), static_cast<std::uint8_t>(fields >> 8),
      static_cast<std::uint8_t>(fields >> 16)};
  const std::uint32_t word = fields | std::uint32_t{util::crc8(packed)}
                                          << kFieldBits;
  // The 6 tail bits, which terminate the SIG's own trellis segment, and
  // the pad stay zero.
  std::array<std::uint8_t, kSigBits> bits{};
  for (std::size_t i = 0; i < kFieldBits + 8; ++i) {
    bits[i] = static_cast<std::uint8_t>(word >> i & 1u);
  }
  return bits;
}

std::optional<HtSig> decode_sig(std::span<const std::uint8_t> bits) {
  WITAG_REQUIRE(bits.size() == kSigBits);
  util::BitReader r(bits);
  HtSig sig;
  sig.mcs_index = static_cast<unsigned>(r.read(7));
  sig.length = static_cast<std::size_t>(r.read(16));
  r.read(1);  // reserved

  const util::ByteVec packed =
      util::bits_to_bytes(bits.subspan(0, kFieldBits));
  const auto crc = static_cast<std::uint8_t>(r.read(8));
  if (crc != util::crc8(packed)) return std::nullopt;
  return sig;
}

}  // namespace witag::phy
