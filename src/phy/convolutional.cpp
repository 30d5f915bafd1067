#include "phy/convolutional.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <utility>

#include "util/require.hpp"

namespace witag::phy {
namespace {

// Keep-masks over one puncturing period, interleaved (A0,B0,A1,B1,...).
constexpr std::array<std::uint8_t, 2> kPattern12{1, 1};
constexpr std::array<std::uint8_t, 4> kPattern23{1, 1, 1, 0};
constexpr std::array<std::uint8_t, 6> kPattern34{1, 1, 1, 0, 0, 1};
constexpr std::array<std::uint8_t, 10> kPattern56{1, 1, 1, 0, 0, 1, 1, 0, 0, 1};

constexpr std::uint8_t parity(std::uint32_t v) {
  return static_cast<std::uint8_t>(static_cast<unsigned>(std::popcount(v)) & 1u);
}

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

// Walks mother-rate positions [0, n) in order, one puncturing period at a
// time, calling keep(i, k) for each position i the pattern keeps and
// drop(i, k) for each it deletes, where k counts the kept positions
// before i (the punctured index). A whole period expands at compile time
// over the constant pattern into straight-line code: no `%` and no
// per-bit branch on the pattern. The callbacks carry no mutable state,
// so byte stores in them cannot alias a counter the compiler would then
// have to reload.
template <std::size_t N, typename Keep, typename Drop>
void walk_pattern(const std::array<std::uint8_t, N>& pattern, std::size_t n,
                  Keep keep, Drop drop) {
  std::size_t i = 0;
  std::size_t kept = 0;
  for (; i + N <= n; i += N) {
    [&]<std::size_t... J>(std::index_sequence<J...>) {
      ((pattern[J] ? keep(i + J, kept++) : drop(i + J, kept)), ...);
    }(std::make_index_sequence<N>{});
  }
  for (std::size_t j = 0; i < n; ++i, ++j) {
    pattern[j] ? keep(i, kept++) : drop(i, kept);
  }
}

// Calls f with the keep-mask of `rate` as its std::array, whose size is
// then a compile-time constant.
template <typename F>
decltype(auto) with_pattern(CodeRate rate, F f) {
  switch (rate) {
    case CodeRate::kHalf: return f(kPattern12);
    case CodeRate::kTwoThirds: return f(kPattern23);
    case CodeRate::kThreeQuarters: return f(kPattern34);
    case CodeRate::kFiveSixths: return f(kPattern56);
  }
  WITAG_ENSURE(false);
  return f(kPattern12);
}

// walk_pattern with the keep-mask of `rate`.
template <typename Keep, typename Drop>
void walk_pattern(CodeRate rate, std::size_t n, Keep keep, Drop drop) {
  with_pattern(rate, [&](const auto& pattern) {
    walk_pattern(pattern, n, keep, drop);
  });
}

}  // namespace

std::span<const std::uint8_t> puncture_pattern(CodeRate rate) {
  return with_pattern(rate, [](const auto& pattern) {
    return std::span<const std::uint8_t>(pattern);
  });
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
  util::BitVec out(punctured_length(coded.size(), rate));
  walk_pattern(
      rate, coded.size(),
      [src = coded.data(), dst = out.data()](std::size_t i, std::size_t k) {
        dst[k] = src[i];
      },
      [](std::size_t, std::size_t) {});
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

void depuncture_into(std::span<const std::int8_t> llrs, CodeRate rate,
                     std::size_t n_coded_bits, std::vector<std::int8_t>& out) {
  WITAG_REQUIRE(n_coded_bits % 2 == 0);
  // One length check up front, so the loop needs no per-bit bounds check.
  WITAG_REQUIRE(llrs.size() == punctured_length(n_coded_bits, rate));
  // resize, not assign: the walk writes every slot, 0 into each
  // erasure, so a reused buffer keeps no stale value.
  out.resize(n_coded_bits);
  walk_pattern(
      rate, n_coded_bits,
      [src = llrs.data(), dst = out.data()](std::size_t i, std::size_t k) {
        dst[i] = src[k];
      },
      [dst = out.data()](std::size_t i, std::size_t) { dst[i] = 0; });
}

namespace detail {

util::BitVec convolutional_encode_reference(std::span<const std::uint8_t> bits) {
  util::BitVec out;
  out.reserve(bits.size() * 2);
  std::uint32_t shift = 0;
  for (const std::uint8_t b : bits) {
    shift = (shift >> 1) | (static_cast<std::uint32_t>(b & 1u) << 6);
    out.push_back(parity(shift & kGenPolyA));
    out.push_back(parity(shift & kGenPolyB));
  }
  return out;
}

}  // namespace detail

}  // namespace witag::phy
