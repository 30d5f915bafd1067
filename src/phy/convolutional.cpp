#include "phy/convolutional.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>

#include "util/require.hpp"

namespace witag::phy {
namespace {

// Keep-masks over one puncturing period, interleaved (A0,B0,A1,B1,...).
constexpr std::array<std::uint8_t, 2> kPattern12{1, 1};
constexpr std::array<std::uint8_t, 4> kPattern23{1, 1, 1, 0};
constexpr std::array<std::uint8_t, 6> kPattern34{1, 1, 1, 0, 0, 1};
constexpr std::array<std::uint8_t, 10> kPattern56{1, 1, 1, 0, 0, 1, 1, 0, 0, 1};

// Encodes the eight input bits at x into a[0..8) and b[0..8), one
// 64-bit XOR per tap; x[-6..8) must be readable. The taps XOR whole
// bytes and never shift across them, so byte order does not matter.
inline void encode8(const std::uint8_t* x, std::uint8_t* a,
                    std::uint8_t* b) {
  constexpr std::uint64_t kLowBits = 0x0101010101010101ull;
  std::array<std::uint64_t, 7> w;  // w[k] holds x[-k .. 8-k)
#pragma GCC unroll 7
  for (std::size_t k = 0; k < w.size(); ++k) std::memcpy(&w[k], x - k, 8);
  const std::uint64_t shared = w[0] ^ w[2] ^ w[3] ^ w[6];
  const std::uint64_t wa = (shared ^ w[5]) & kLowBits;
  const std::uint64_t wb = (shared ^ w[1]) & kLowBits;
  std::memcpy(a, &wa, 8);
  std::memcpy(b, &wb, 8);
}

}  // namespace

std::span<const std::uint8_t> puncture_pattern(CodeRate rate) {
  switch (rate) {
    case CodeRate::kHalf: return kPattern12;
    case CodeRate::kTwoThirds: return kPattern23;
    case CodeRate::kThreeQuarters: return kPattern34;
    case CodeRate::kFiveSixths: return kPattern56;
  }
  WITAG_ENSURE(false);
  return kPattern12;
}

util::BitVec convolutional_encode(std::span<const std::uint8_t> bits) {
  const std::size_t n = bits.size();
  util::BitVec streams(2 * n);
  convolutional_streams_into(bits, std::span(streams).first(n),
                             std::span(streams).subspan(n));
  util::BitVec out(2 * n);
  for (std::size_t j = 0; j < 2 * n; ++j) out[j] = streams[j % 2 * n + j / 2];
  return out;
}

void convolutional_streams_into(std::span<const std::uint8_t> bits,
                                std::span<std::uint8_t> a,
                                std::span<std::uint8_t> b) {
  const std::size_t n = bits.size();
  WITAG_REQUIRE(a.size() == n && b.size() == n);
  for (std::size_t i = 0; i < n; i += 8) {
    if (i >= 6 && i + 8 <= n) {
      encode8(bits.data() + i, a.data() + i, b.data() + i);
      continue;
    }
    // The first word (x[i < 0] = 0) and a partial last one: padded copies.
    const std::size_t count = std::min<std::size_t>(8, n - i);
    const std::size_t lead = std::min<std::size_t>(i, 6);
    std::array<std::uint8_t, 14> in{};
    std::array<std::uint8_t, 16> ab{};
    std::copy_n(bits.data() + i - lead, lead + count, in.data() + 6 - lead);
    encode8(in.data() + 6, ab.data(), ab.data() + 8);
    std::copy_n(ab.data(), count, a.data() + i);
    std::copy_n(ab.data() + 8, count, b.data() + i);
  }
}

util::BitVec puncture(std::span<const std::uint8_t> coded, CodeRate rate) {
  const std::span<const std::uint8_t> pattern = puncture_pattern(rate);
  util::BitVec out;
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (pattern[i % pattern.size()]) out.push_back(coded[i]);
  }
  return out;
}

std::size_t punctured_length(std::size_t mother_bits, CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  std::size_t kept_per_period = 0;
  for (const std::uint8_t k : pattern) kept_per_period += k;
  const std::size_t full = mother_bits / pattern.size();
  std::size_t len = full * kept_per_period;
  for (std::size_t p = 0; p < mother_bits - full * pattern.size(); ++p) {
    len += pattern[p];
  }
  return len;
}

}  // namespace witag::phy
