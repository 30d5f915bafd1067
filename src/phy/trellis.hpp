// Shared constexpr trellis tables for the K = 7 Viterbi decoder
// (generators 133/171 octal). Factored out of viterbi.cpp so the SIMD
// add-compare-select kernels in src/phy/simd*.cpp walk the exact same
// flattened trellis as the scalar kernel and the transition-oriented
// reference — identical outputs fall out of sharing one table.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "phy/convolutional.hpp"

namespace witag::phy::detail {

// Transition model (matches convolutional_encode): from state s (the top
// six register bits) with input u, the full 7-bit register becomes
// f = s | (u << 6); the branch outputs are the parities of f with each
// generator and the next state is f >> 1.
struct Transitions {
  // For [state][input]: next state and the two expected output bits.
  std::array<std::array<std::uint8_t, 2>, kNumStates> next{};
  std::array<std::array<std::uint8_t, 2>, kNumStates> out_a{};
  std::array<std::array<std::uint8_t, 2>, kNumStates> out_b{};
};

constexpr Transitions make_transitions() {
  Transitions t;
  for (std::uint32_t s = 0; s < kNumStates; ++s) {
    for (std::uint32_t u = 0; u < 2; ++u) {
      const std::uint32_t full = s | (u << 6);
      t.next[s][u] = static_cast<std::uint8_t>(full >> 1);
      t.out_a[s][u] =
          static_cast<std::uint8_t>(std::popcount(full & kGenPolyA) & 1);
      t.out_b[s][u] =
          static_cast<std::uint8_t>(std::popcount(full & kGenPolyB) & 1);
    }
  }
  return t;
}

inline constexpr Transitions kTrellis = make_transitions();

// Predecessor-oriented view of the same trellis: next-state ns is fed by
// exactly the two 7-bit registers f0 = 2*ns and f1 = 2*ns + 1, i.e. by
// predecessor states s0 = f0 & 63 and s1 = s0 + 1, both under the same
// input u = ns >> 5. s0 < s1 always, which is exactly the order the
// transition-oriented reference visits them in — so "prefer the s0
// branch on metric ties" reproduces its strict-> update rule bit for
// bit. The decoder therefore stores one decision bit per next state and
// step (set iff ns took s1) and recovers the input as ns >> 5.
struct Butterfly {
  std::uint8_t s0, s1;          // the two predecessor states
  std::uint8_t a0, b0, a1, b1;  // expected coded bits per branch
};

constexpr std::array<Butterfly, kNumStates> make_butterflies() {
  std::array<Butterfly, kNumStates> bs{};
  for (std::uint32_t ns = 0; ns < kNumStates; ++ns) {
    const std::uint32_t f0 = ns << 1;
    const std::uint32_t f1 = f0 | 1u;
    Butterfly& bf = bs[ns];
    bf.s0 = static_cast<std::uint8_t>(f0 & (kNumStates - 1));
    bf.s1 = static_cast<std::uint8_t>(f1 & (kNumStates - 1));
    bf.a0 = static_cast<std::uint8_t>(std::popcount(f0 & kGenPolyA) & 1);
    bf.b0 = static_cast<std::uint8_t>(std::popcount(f0 & kGenPolyB) & 1);
    bf.a1 = static_cast<std::uint8_t>(std::popcount(f1 & kGenPolyA) & 1);
    bf.b1 = static_cast<std::uint8_t>(std::popcount(f1 & kGenPolyB) & 1);
  }
  return bs;
}

inline constexpr std::array<Butterfly, kNumStates> kButterflies =
    make_butterflies();

// Both generators tap register bits 0 and 6. Bit 0 is what separates f1
// from f0, and bit 6 is what separates next state ns + 32 from ns (same
// predecessors, input 1 instead of 0), so flipping either one flips
// both expected coded bits. One (a0, b0) pair per next state ns < 32
// therefore fixes all four branches of the ns / ns + 32 butterfly:
//   ns:      s0 expects ( a0,  b0), s1 expects (!a0, !b0)
//   ns + 32: s0 expects (!a0, !b0), s1 expects ( a0,  b0)
// Every ACS kernel relies on this to derive all four branch metrics
// from one signed sum bm = ±la ± lb.
constexpr bool butterflies_symmetric() {
  constexpr std::uint32_t kHalf = kNumStates / 2;
  for (std::uint32_t ns = 0; ns < kHalf; ++ns) {
    const Butterfly& lo = kButterflies[ns];
    const Butterfly& hi = kButterflies[ns + kHalf];
    if (lo.a1 == lo.a0 || lo.b1 == lo.b0) return false;
    if (hi.s0 != lo.s0 || hi.s1 != lo.s1) return false;
    if (hi.a0 != lo.a1 || hi.b0 != lo.b1) return false;
    if (hi.a1 != lo.a0 || hi.b1 != lo.b0) return false;
  }
  return true;
}

static_assert(butterflies_symmetric(),
              "ACS kernels assume both generators tap bits 0 and 6");

}  // namespace witag::phy::detail
