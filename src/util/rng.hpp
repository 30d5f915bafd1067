// Deterministic pseudo-random number generation for the simulator.
//
// Every stochastic component of the testbed (noise, fading, payloads,
// backoff) draws from an explicitly seeded Rng so that experiments are
// reproducible bit-for-bit. The generator is xoshiro256++ seeded through
// splitmix64, which is fast, has a 2^256-1 period, and passes BigCrush.
#pragma once

#include <array>
#include <bit>
#include <complex>
#include <cstdint>
#include <vector>
#include <cstddef>

#include "util/ziggurat.hpp"

namespace witag::util {

/// xoshiro256++ PRNG with distribution helpers.
///
/// Not thread-safe; give each concurrent component its own instance,
/// forked via `split()` so streams stay independent.
class Rng {
 public:
  /// Seeds the state from `seed` via splitmix64 (any seed is acceptable,
  /// including 0).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[0] + state_[3], 23) +
                                 state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Derives an independent generator; deterministic given this stream.
  Rng split();

  /// Seed for task `task_index` of a sweep rooted at `base_seed`:
  /// output `task_index` of the splitmix64 stream seeded at `base_seed`
  /// (the same mixing that expands a seed into Rng state). O(1) in the
  /// index, so parallel workers can derive any task's seed directly —
  /// results depend only on (base_seed, task_index), never on worker
  /// count or completion order.
  static std::uint64_t derive_seed(std::uint64_t base_seed,
                                   std::uint64_t task_index);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Standard normal deviate: 1024-layer ziggurat (util/ziggurat.hpp).
  /// One 64-bit draw picks the layer (bits 0-9), the sign (bit 10) and a
  /// 53-bit uniform (bits 11-63); 99.57% of draws end in this inline
  /// fast path, the rest in the wedge or tail (normal_slow), which
  /// redraw. The sign is XORed into the result's sign bit: a branch on a
  /// random bit would mispredict half the time.
  double normal() {
    const std::uint64_t u = next_u64();
    const std::size_t layer = u & ziggurat::kLayerMask;
    const double x = static_cast<double>(u >> 11) * 0x1.0p-53 *
                     ziggurat::kX[layer];
    if (x < ziggurat::kX[layer + 1]) {
      return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^
                                   ((u & ziggurat::kSignBit) << 53));
    }
    return normal_slow(u);
  }

  /// The ziggurat's rejection path for the draw `u`, this generator's
  /// latest next_u64(), when it missed normal()'s fast path: the wedge
  /// test of layers 1-1023 or the tail beyond R of layer 0; a rejected
  /// point starts over with a fresh draw. normal() is next_u64() then
  /// this on a miss; phy::simd's lane kernel runs the fast path of
  /// eight generators at once and hands each miss to its lane here.
  double normal_slow(std::uint64_t u);

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Circularly-symmetric complex Gaussian with E[|z|^2] = variance:
  /// sqrt(variance / 2) times two normal() draws, real part first.
  std::complex<double> complex_normal(double variance = 1.0);

  /// Poisson-distributed count with the given mean (Knuth for small
  /// lambda, normal approximation above 30).
  unsigned poisson(double lambda);

  /// Fills `n` random bytes.
  std::vector<std::uint8_t> bytes(std::size_t n);

  /// Fills `n` random bits (0/1 values).
  std::vector<std::uint8_t> bits(std::size_t n);

  /// Two generators are equal when their states are, so they draw the
  /// same stream from here on.
  bool operator==(const Rng&) const = default;

 private:
  /// The only member, so an Rng is its four state words: phy::simd's
  /// lane kernel reads and writes eight of them in place.
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace witag::util
