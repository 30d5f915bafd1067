#include "util/bits.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>

#include "util/require.hpp"

namespace witag::util {

namespace {

// kBitsOf[v] holds byte v's bits LSB-first, one per byte, so expanding
// a byte is one 8-byte copy.
constexpr auto kBitsOf = [] {
  std::array<std::array<std::uint8_t, 8>, 256> table{};
  for (unsigned v = 0; v < 256; ++v) {
    for (unsigned i = 0; i < 8; ++i) {
      table[v][i] = static_cast<std::uint8_t>((v >> i) & 1u);
    }
  }
  return table;
}();

// Packs the low bits of b[0..8) LSB-first into one byte. Written out,
// with no branch on the data: decoded PSDUs (CCMP ciphertext) are
// random bits.
std::uint8_t pack_byte(const std::uint8_t* b) {
  return static_cast<std::uint8_t>(
      (b[0] & 1u) | (b[1] & 1u) << 1 | (b[2] & 1u) << 2 | (b[3] & 1u) << 3 |
      (b[4] & 1u) << 4 | (b[5] & 1u) << 5 | (b[6] & 1u) << 6 |
      (b[7] & 1u) << 7);
}

}  // namespace

BitVec bytes_to_bits(std::span<const std::uint8_t> bytes) {
  BitVec bits(bytes.size() * 8);
  bytes_to_bits_into(bytes, bits);
  return bits;
}

void bytes_to_bits_into(std::span<const std::uint8_t> bytes,
                        std::span<std::uint8_t> out) {
  WITAG_REQUIRE(out.size() == 8 * bytes.size());
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    std::memcpy(out.data() + 8 * k, kBitsOf[bytes[k]].data(), 8);
  }
}

ByteVec bits_to_bytes(std::span<const std::uint8_t> bits) {
  ByteVec bytes;
  bits_to_bytes_into(bits, bytes);
  return bytes;
}

void bits_to_bytes_into(std::span<const std::uint8_t> bits, ByteVec& out) {
  // resize, not assign: every byte, the partial last one included, is
  // written below.
  out.resize((bits.size() + 7) / 8);
  const std::size_t full = bits.size() / 8;
  for (std::size_t k = 0; k < full; ++k) {
    out[k] = pack_byte(bits.data() + 8 * k);
  }
  if (full < out.size()) {
    std::array<std::uint8_t, 8> tail{};  // zero high bits
    std::copy(bits.begin() + static_cast<std::ptrdiff_t>(8 * full),
              bits.end(), tail.begin());
    out[full] = pack_byte(tail.data());
  }
}

std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b) {
  const std::size_t common = std::min(a.size(), b.size());
  std::size_t distance = std::max(a.size(), b.size()) - common;
  for (std::size_t i = 0; i < common; ++i) {
    if (a[i] != b[i]) ++distance;
  }
  return distance;
}

void BitWriter::write(std::uint64_t value, unsigned count) {
  require(count <= 64, "BitWriter::write: count must be <= 64");
  for (unsigned i = 0; i < count; ++i) {
    bits_.push_back(static_cast<std::uint8_t>((value >> i) & 1u));
  }
}

void BitWriter::write_bit(bool bit) {
  bits_.push_back(bit ? std::uint8_t{1} : std::uint8_t{0});
}

void BitWriter::write_bits(std::span<const std::uint8_t> bits) {
  for (const std::uint8_t b : bits) bits_.push_back(b & 1u);
}

std::uint64_t BitReader::read(unsigned count) {
  require(count <= 64, "BitReader::read: count must be <= 64");
  require(remaining() >= count, "BitReader::read: not enough bits");
  std::uint64_t value = 0;
  for (unsigned i = 0; i < count; ++i) {
    value |= static_cast<std::uint64_t>(bits_[pos_++] & 1u) << i;
  }
  return value;
}

bool BitReader::read_bit() {
  require(remaining() >= 1, "BitReader::read_bit: no bits left");
  return (bits_[pos_++] & 1u) != 0;
}

}  // namespace witag::util
