// Bit-level serialization helpers.
//
// 802.11 transmits each byte least-significant bit first; BitWriter and
// BitReader follow that convention so PHY bit streams match the standard's
// ordering. Bits are stored one per byte (0/1) in `std::vector<uint8_t>`,
// which keeps the PHY pipeline simple to reason about and test.
#pragma once

#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

namespace witag::util {

using BitVec = std::vector<std::uint8_t>;  // each element is 0 or 1
using ByteVec = std::vector<std::uint8_t>;

/// Expands bytes to bits, LSB of each byte first (802.11 order).
BitVec bytes_to_bits(std::span<const std::uint8_t> bytes);

/// Allocation-free variant: writes the bits into `out`, which must hold
/// exactly 8 * bytes.size() elements (the PPDU transmitter writes a PSDU
/// straight into its data-field buffer).
void bytes_to_bits_into(std::span<const std::uint8_t> bytes,
                        std::span<std::uint8_t> out);

/// Packs bits (LSB-first per byte) back into bytes. If the bit count is
/// not a multiple of 8, the final byte is zero-padded in its high bits.
ByteVec bits_to_bytes(std::span<const std::uint8_t> bits);

/// Allocation-reusing variant of bits_to_bytes: writes into `out`
/// (resized; capacity reused) for the hot decode path.
void bits_to_bytes_into(std::span<const std::uint8_t> bits, ByteVec& out);

/// Number of positions at which the two bit/byte sequences differ.
/// Sequences of unequal length count the length difference as errors
/// (each missing position is one error).
std::size_t hamming_distance(std::span<const std::uint8_t> a,
                             std::span<const std::uint8_t> b);

/// Sequential bit writer (LSB-first within each appended value).
class BitWriter {
 public:
  /// Appends the low `count` bits of `value`, least-significant first.
  /// Requires count <= 64.
  void write(std::uint64_t value, unsigned count);

  /// Appends a single bit (0/1).
  void write_bit(bool bit);

  /// Appends raw bits.
  void write_bits(std::span<const std::uint8_t> bits);

  const BitVec& bits() const { return bits_; }
  BitVec take() { return std::move(bits_); }
  std::size_t size() const { return bits_.size(); }

 private:
  BitVec bits_;
};

/// Sequential bit reader matching BitWriter's ordering.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bits) : bits_(bits) {}

  /// Reads `count` bits as an LSB-first integer. Requires count <= 64 and
  /// enough remaining bits.
  std::uint64_t read(unsigned count);

  /// Reads a single bit.
  bool read_bit();

  std::size_t remaining() const { return bits_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  std::span<const std::uint8_t> bits_;
  std::size_t pos_ = 0;
};

}  // namespace witag::util
