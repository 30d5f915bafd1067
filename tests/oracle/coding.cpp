#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "oracle/oracle.hpp"
#include "phy/convolutional.hpp"
#include "util/require.hpp"

namespace witag::oracle {
namespace {

// Transition model of the K = 7 code (matches convolutional_encode):
// from state s (the top six register bits) with input u, the full 7-bit
// register becomes f = s | (u << 6); the branch outputs are the
// parities of f with each generator and the next state is f >> 1.
struct Transitions {
  // For [state][input]: next state and the two expected output bits.
  std::array<std::array<std::uint8_t, 2>, phy::kNumStates> next{};
  std::array<std::array<std::uint8_t, 2>, phy::kNumStates> out_a{};
  std::array<std::array<std::uint8_t, 2>, phy::kNumStates> out_b{};
};

constexpr Transitions make_transitions() {
  Transitions t;
  for (std::uint32_t s = 0; s < phy::kNumStates; ++s) {
    for (std::uint32_t u = 0; u < 2; ++u) {
      const std::uint32_t full = s | (u << 6);
      t.next[s][u] = static_cast<std::uint8_t>(full >> 1);
      t.out_a[s][u] =
          static_cast<std::uint8_t>(std::popcount(full & phy::kGenPolyA) & 1);
      t.out_b[s][u] =
          static_cast<std::uint8_t>(std::popcount(full & phy::kGenPolyB) & 1);
    }
  }
  return t;
}

constexpr Transitions kTrellis = make_transitions();

// Branch metric contribution of one coded bit: LLR > 0 favors bit 0, so a
// branch expecting bit 0 gains +llr and one expecting bit 1 gains -llr.
double bit_metric(double llr, std::uint8_t expected) {
  return expected ? -llr : llr;
}

constexpr std::uint8_t parity(std::uint32_t v) {
  return static_cast<std::uint8_t>(std::popcount(v) & 1);
}

// One step of the scrambler's 7-bit LFSR (x^7 + x^4 + 1): returns the
// output bit and advances the state.
constexpr std::uint8_t lfsr_step(std::uint8_t& state) {
  const std::uint8_t out =
      static_cast<std::uint8_t>(((state >> 6) ^ (state >> 3)) & 1u);
  state = static_cast<std::uint8_t>(((unsigned{state} << 1) | out) & 0x7Fu);
  return out;
}

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

}  // namespace

util::BitVec convolutional_encode_reference(std::span<const std::uint8_t> bits) {
  util::BitVec out;
  out.reserve(bits.size() * 2);
  std::uint32_t shift = 0;
  for (const std::uint8_t b : bits) {
    shift = (shift >> 1) | (static_cast<std::uint32_t>(b & 1u) << 6);
    out.push_back(parity(shift & phy::kGenPolyA));
    out.push_back(parity(shift & phy::kGenPolyB));
  }
  return out;
}

util::BitVec viterbi_reference(std::span<const double> llrs) {
  WITAG_REQUIRE(!llrs.empty() && llrs.size() % 2 == 0);
  const std::size_t n_steps = llrs.size() / 2;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  std::vector<double> metric(phy::kNumStates, kNegInf);
  std::vector<double> next_metric(phy::kNumStates, kNegInf);
  metric[0] = 0.0;  // encoder starts zeroed

  // survivor[step][state] = (previous state << 1) | input bit.
  std::vector<std::array<std::uint8_t, phy::kNumStates>> survivor(n_steps);

  for (std::size_t step = 0; step < n_steps; ++step) {
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    const double la = llrs[2 * step];
    const double lb = llrs[2 * step + 1];
    for (std::uint32_t s = 0; s < phy::kNumStates; ++s) {
      if (metric[s] == kNegInf) continue;
      for (std::uint32_t u = 0; u < 2; ++u) {
        const std::uint8_t ns = kTrellis.next[s][u];
        const double m = metric[s] + bit_metric(la, kTrellis.out_a[s][u]) +
                         bit_metric(lb, kTrellis.out_b[s][u]);
        if (m > next_metric[ns]) {
          next_metric[ns] = m;
          survivor[step][ns] = static_cast<std::uint8_t>((s << 1) | u);
        }
      }
    }
    metric.swap(next_metric);
  }

  std::uint32_t state = 0;
  if (metric[0] == kNegInf) {
    state = static_cast<std::uint32_t>(
        std::max_element(metric.begin(), metric.end()) - metric.begin());
  }

  util::BitVec bits(n_steps);
  for (std::size_t step = n_steps; step-- > 0;) {
    const std::uint8_t sv = survivor[step][state];
    bits[step] = sv & 1u;
    state = sv >> 1;
  }
  return bits;
}

util::BitVec viterbi_reference(std::span<const std::int8_t> llrs) {
  const std::vector<double> wide(llrs.begin(), llrs.end());
  return viterbi_reference(std::span<const double>(wide));
}

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
  // The SERVICE field's first 7 plain bits are zero, so the first 7
  // scrambled bits are the LFSR's own output: its state.
  std::uint8_t state = 0;
  for (unsigned i = 0; i < 7; ++i) {
    state = static_cast<std::uint8_t>(((unsigned{state} << 1) | (bits[i] & 1u)) &
                                      0x7Fu);
  }
  util::BitVec out(bits.size(), 0);
  for (std::size_t i = 7; i < bits.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((bits[i] ^ lfsr_step(state)) & 1u);
  }
  return out;
}

std::uint32_t crc32_update_bytewise(std::uint32_t state,
                                    std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    state = kCrc32Table[(state ^ byte) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace witag::oracle
