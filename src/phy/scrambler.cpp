#include "phy/scrambler.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "util/require.hpp"

namespace witag::phy {
namespace {

// One LFSR step: returns the output bit and advances the 7-bit state.
constexpr std::uint8_t lfsr_step(std::uint8_t& state) {
  const std::uint8_t out =
      static_cast<std::uint8_t>(((state >> 6) ^ (state >> 3)) & 1u);
  state = static_cast<std::uint8_t>(((unsigned{state} << 1) | out) & 0x7Fu);
  return out;
}

// The keystream depends on the LFSR state alone (the data never feeds
// back) and repeats every 127 bits, so one block of lcm(127, 8) = 1,016
// bits, built per call from the seed, covers any field: every 64-bit
// word of the field XORs a whole word of the block, and no step waits
// on the one before it.
constexpr std::size_t kPeriod = 127;
constexpr std::size_t kBlockBits = 8 * kPeriod;

// XORs the keystream from `state` onto bits[0..n), one bit per byte,
// eight bytes per 64-bit XOR and mask: byte-wise, so the byte order of
// the word does not matter. Reads bit i before it writes bit i, so
// in == out is safe.
void apply_keystream(const std::uint8_t* in, std::uint8_t* out,
                     std::size_t n, std::uint8_t state) {
  constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
  // The state holds the last seven outputs, newest in bit 0, and output
  // k is s[k - 7] ^ s[k - 4]; seq[j] is s[j - 7], so one period follows
  // from the state by byte XORs and three doublings fill the block.
  std::array<std::uint8_t, 7 + kBlockBits> seq;
  for (unsigned j = 0; j < 7; ++j) {
    seq[j] = static_cast<std::uint8_t>((unsigned{state} >> (6 - j)) & 1u);
  }
  for (std::size_t j = 7; j < 7 + kPeriod; ++j) {
    seq[j] = seq[j - 7] ^ seq[j - 4];
  }
  std::uint8_t* const ks = seq.data() + 7;
  for (std::size_t len = kPeriod; len < kBlockBits; len *= 2) {
    std::memcpy(ks + len, ks, len);
  }
  for (std::size_t base = 0; base < n; base += kBlockBits) {
    const std::size_t len = std::min(kBlockBits, n - base);
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
      std::uint64_t data = 0;
      std::uint64_t key = 0;
      std::memcpy(&data, in + base + i, 8);
      std::memcpy(&key, ks + i, 8);
      data = (data ^ key) & kLowBits;
      std::memcpy(out + base + i, &data, 8);
    }
    for (; i < len; ++i) {
      out[base + i] = static_cast<std::uint8_t>((in[base + i] ^ ks[i]) & 1u);
    }
  }
}

}  // namespace

util::BitVec scramble(std::span<const std::uint8_t> bits, std::uint8_t seed) {
  util::BitVec out(bits.size());
  scramble_into(bits, seed, out);
  return out;
}

void scramble_into(std::span<const std::uint8_t> bits, std::uint8_t seed,
                   std::span<std::uint8_t> out) {
  WITAG_REQUIRE(seed >= 1 && seed <= 127);
  WITAG_REQUIRE(out.size() == bits.size());
  apply_keystream(bits.data(), out.data(), bits.size(), seed);
}

util::BitVec descramble_recover(std::span<const std::uint8_t> bits) {
  util::BitVec out;
  descramble_recover_into(bits, out);
  return out;
}

void descramble_recover_into(std::span<const std::uint8_t> bits,
                             util::BitVec& out) {
  WITAG_REQUIRE(bits.size() >= 7);
  // With zero inputs, scrambled bit i equals LFSR output i, and the LFSR
  // state shifts its own output in — so after 7 steps the state is just
  // the first 7 scrambled bits.
  std::uint8_t state = 0;
  for (unsigned i = 0; i < 7; ++i) {
    state = static_cast<std::uint8_t>(((unsigned{state} << 1) | (bits[i] & 1u)) &
                                      0x7Fu);
  }
  out.assign(bits.size(), 0);
  apply_keystream(bits.data() + 7, out.data() + 7, bits.size() - 7, state);
}

const std::array<int, 127>& pilot_polarity_sequence() {
  static const std::array<int, 127> kSequence = [] {
    std::array<int, 127> seq{};
    std::uint8_t state = 0x7F;  // all ones
    for (auto& s : seq) {
      // The polarity sequence maps scrambler output 0 -> +1 and 1 -> -1.
      s = lfsr_step(state) ? -1 : 1;
    }
    return seq;
  }();
  return kSequence;
}

}  // namespace witag::phy
