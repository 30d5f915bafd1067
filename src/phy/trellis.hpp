// The constexpr butterfly table of the K = 7 Viterbi decoder
// (generators 133/171 octal), shared by every add-compare-select kernel
// in src/phy/simd*.cpp, so all tiers walk the same flattened trellis.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "phy/convolutional.hpp"

namespace witag::phy::detail {

// The trellis seen from each next state: ns is fed by exactly the two
// 7-bit registers f0 = 2*ns and f1 = 2*ns + 1, i.e. by predecessor
// states s0 = f0 & 63 and s1 = s0 + 1, both under the same input
// u = ns >> 5 (from state s with input u the register is s | (u << 6),
// the branch outputs are its parities with each generator and the next
// state is the register >> 1, as in convolutional_encode). s0 < s1
// always, which is exactly the order the transition-oriented reference
// decoder (tests/oracle) visits them in — so "prefer the s0 branch on
// metric ties" reproduces its strict-> update rule bit for bit. The
// decoder therefore stores one decision bit per next state and step
// (set iff ns took s1) and recovers the input as ns >> 5.
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
