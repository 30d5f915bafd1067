#include "phy/scrambler.hpp"

#include <cstddef>
#include <cstring>

#include "util/require.hpp"

namespace witag::phy {
namespace {

// One LFSR step: returns the output bit and advances the 7-bit state.
constexpr std::uint8_t lfsr_step(std::uint8_t& state) {
  const std::uint8_t out =
      static_cast<std::uint8_t>(((state >> 6) ^ (state >> 3)) & 1u);
  state = static_cast<std::uint8_t>(((state << 1) | out) & 0x7Fu);
  return out;
}

// Byte-at-a-time tables: the keystream is a function of the LFSR state
// alone (the data never feeds back), so eight steps collapse into one
// lookup. keystream[s][i] is the output of step i from state s, one bit
// per byte like the data; next_state[s] is the state after those eight
// steps.
struct ScramblerTables {
  std::array<std::array<std::uint8_t, 8>, 128> keystream{};
  std::array<std::uint8_t, 128> next_state{};
};

constexpr ScramblerTables make_scrambler_tables() {
  ScramblerTables t;
  for (std::uint32_t s = 0; s < 128; ++s) {
    std::uint8_t state = static_cast<std::uint8_t>(s);
    for (unsigned i = 0; i < 8; ++i) t.keystream[s][i] = lfsr_step(state);
    t.next_state[s] = state;
  }
  return t;
}

constexpr ScramblerTables kScrTables = make_scrambler_tables();

// XORs the keystream from `state` onto bits[0..n), eight bits per table
// lookup, leaving `state` advanced past the tail. Each group of eight
// is one 64-bit XOR and mask: byte-wise, so the byte order of the word
// does not matter.
void apply_keystream(const std::uint8_t* in, std::uint8_t* out,
                     std::size_t n, std::uint8_t& state) {
  constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t data = 0;
    std::uint64_t ks = 0;
    std::memcpy(&data, in + i, 8);
    std::memcpy(&ks, kScrTables.keystream[state].data(), 8);
    data = (data ^ ks) & kLowBits;
    std::memcpy(out + i, &data, 8);
    state = kScrTables.next_state[state];
  }
  for (; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>((in[i] ^ lfsr_step(state)) & 1u);
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
  std::uint8_t state = seed;
  // apply_keystream reads bit i before it writes bit i, so in == out is
  // safe.
  apply_keystream(bits.data(), out.data(), bits.size(), state);
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
    state = static_cast<std::uint8_t>(((state << 1) | (bits[i] & 1u)) & 0x7Fu);
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

namespace detail {

util::BitVec scramble_reference(std::span<const std::uint8_t> bits,
                                std::uint8_t seed) {
  WITAG_REQUIRE(seed >= 1 && seed <= 127);
  std::uint8_t state = seed;
  util::BitVec out;
  out.reserve(bits.size());
  for (const std::uint8_t b : bits) {
    out.push_back(static_cast<std::uint8_t>((b ^ lfsr_step(state)) & 1u));
  }
  return out;
}

util::BitVec descramble_recover_reference(std::span<const std::uint8_t> bits) {
  WITAG_REQUIRE(bits.size() >= 7);
  std::uint8_t state = 0;
  for (unsigned i = 0; i < 7; ++i) {
    state = static_cast<std::uint8_t>(((state << 1) | (bits[i] & 1u)) & 0x7Fu);
  }
  util::BitVec out(bits.size(), 0);
  for (std::size_t i = 7; i < bits.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((bits[i] ^ lfsr_step(state)) & 1u);
  }
  return out;
}

}  // namespace detail

}  // namespace witag::phy
