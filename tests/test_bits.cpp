#include "util/bits.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace witag::util {
namespace {

TEST(Bits, BytesToBitsLsbFirst) {
  const ByteVec bytes{0x01, 0x80};
  const BitVec bits = bytes_to_bits(bytes);
  ASSERT_EQ(bits.size(), 16u);
  EXPECT_EQ(bits[0], 1);  // LSB of 0x01 first
  for (int i = 1; i < 8; ++i) EXPECT_EQ(bits[i], 0);
  for (int i = 8; i < 15; ++i) EXPECT_EQ(bits[i], 0);
  EXPECT_EQ(bits[15], 1);  // MSB of 0x80 last
}

TEST(Bits, RoundTrip) {
  Rng rng(1);
  const ByteVec bytes = rng.bytes(257);
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

TEST(Bits, BitsToBytesPadsHighBits) {
  const BitVec bits{1, 1, 1};  // 3 bits -> one byte 0b00000111
  const ByteVec bytes = bits_to_bytes(bits);
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x07);
}

TEST(Bits, PackUsesOnlyBitZeroAtEverySize) {
  Rng rng(3);
  ByteVec out(5, 0xFF);  // longer, non-zero: every byte must be rewritten
  for (std::size_t n = 1; n <= 17; ++n) {
    BitVec bits(n);
    ByteVec want((n + 7) / 8, 0);
    for (std::size_t i = 0; i < n; ++i) {
      // Random high bits on top of the bit that counts.
      bits[i] = static_cast<std::uint8_t>(rng.uniform_int(256));
      if (bits[i] & 1u) want[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
    }
    bits_to_bytes_into(bits, out);
    EXPECT_EQ(out, want) << "n " << n;
    EXPECT_EQ(bits_to_bytes(bits), want) << "n " << n;
  }
}

TEST(Bits, BytesToBitsIntoFillsExactSpan) {
  const ByteVec bytes{0xA5, 0x3C};
  BitVec bits(16, 7);
  bytes_to_bits_into(bytes, bits);
  EXPECT_EQ(bits, bytes_to_bits(bytes));
  BitVec short_out(15);
  EXPECT_THROW(bytes_to_bits_into(bytes, short_out), std::invalid_argument);
}

TEST(Bits, HammingDistanceBasics) {
  const BitVec a{0, 1, 0, 1};
  const BitVec b{0, 1, 1, 1};
  EXPECT_EQ(hamming_distance(a, b), 1u);
  EXPECT_EQ(hamming_distance(a, a), 0u);
}

TEST(Bits, HammingDistanceLengthMismatchCountsMissing) {
  const BitVec a{0, 1};
  const BitVec b{0, 1, 1, 1};
  EXPECT_EQ(hamming_distance(a, b), 2u);
}

TEST(BitWriter, WritesLsbFirst) {
  BitWriter w;
  w.write(0b1011, 4);
  const BitVec& bits = w.bits();
  ASSERT_EQ(bits.size(), 4u);
  EXPECT_EQ(bits[0], 1);
  EXPECT_EQ(bits[1], 1);
  EXPECT_EQ(bits[2], 0);
  EXPECT_EQ(bits[3], 1);
}

TEST(BitWriter, RejectsOversizedCount) {
  BitWriter w;
  EXPECT_THROW(w.write(0, 65), std::invalid_argument);
}

TEST(BitReaderWriter, RoundTripValues) {
  Rng rng(2);
  BitWriter w;
  std::vector<std::pair<std::uint64_t, unsigned>> values;
  for (int i = 0; i < 100; ++i) {
    const unsigned count = 1 + static_cast<unsigned>(rng.uniform_int(64));
    const std::uint64_t v =
        count == 64 ? rng.next_u64() : rng.next_u64() & ((1ull << count) - 1);
    values.emplace_back(v, count);
    w.write(v, count);
  }
  BitReader r(w.bits());
  for (const auto& [v, count] : values) {
    EXPECT_EQ(r.read(count), v);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BitReader, ThrowsWhenExhausted) {
  const BitVec bits{1, 0};
  BitReader r(bits);
  r.read(2);
  EXPECT_THROW(r.read_bit(), std::invalid_argument);
}

TEST(BitReader, TracksPosition) {
  const BitVec bits{1, 0, 1, 1};
  BitReader r(bits);
  EXPECT_EQ(r.position(), 0u);
  r.read(3);
  EXPECT_EQ(r.position(), 3u);
  EXPECT_EQ(r.remaining(), 1u);
}

TEST(BitWriter, TakeMovesBits) {
  BitWriter w;
  w.write_bit(true);
  w.write_bit(false);
  const BitVec bits = w.take();
  EXPECT_EQ(bits.size(), 2u);
}

}  // namespace
}  // namespace witag::util
