#include "util/rng.hpp"

#include <cmath>
#include <cstddef>

#include "util/require.hpp"

namespace witag::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng Rng::split() { return Rng(next_u64()); }

std::uint64_t Rng::derive_seed(std::uint64_t base_seed,
                               std::uint64_t task_index) {
  // The splitmix64 state advances by a fixed gamma per draw, so stream
  // position `task_index` is reachable in O(1): jump the state there and
  // take one output.
  std::uint64_t state = base_seed + task_index * 0x9E3779B97F4A7C15ull;
  return splitmix64(state);
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  require(lo <= hi, "Rng::uniform: lo must not exceed hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  require(n > 0, "Rng::uniform_int: n must be positive");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal_slow(std::uint64_t u) {
  using ziggurat::kF;
  using ziggurat::kR;
  using ziggurat::kX;
  for (;;) {
    const std::size_t layer = u & ziggurat::kLayerMask;
    const bool negative = (u & ziggurat::kSignBit) != 0;
    const double x = static_cast<double>(u >> 11) * 0x1.0p-53 * kX[layer];
    if (x < kX[layer + 1]) return negative ? -x : x;
    if (layer == 0) {
      // Tail beyond R (Marsaglia 1964): exponential proposals accepted
      // against the Gaussian tail; 1 - uniform() is in (0, 1].
      double t = 0.0;
      double e = 0.0;
      do {
        t = -std::log(1.0 - uniform()) / kR;
        e = -std::log(1.0 - uniform());
      } while (e + e < t * t);
      return negative ? -(kR + t) : kR + t;
    }
    // Wedge: a uniform height inside the layer, under the density?
    const double y = kF[layer] + (kF[layer + 1] - kF[layer]) * uniform();
    if (y < std::exp(-0.5 * x * x)) return negative ? -x : x;
    u = next_u64();
  }
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "Rng::normal: stddev must be non-negative");
  return mean + stddev * normal();
}

std::complex<double> Rng::complex_normal(double variance) {
  require(variance >= 0.0, "Rng::complex_normal: variance must be >= 0");
  const double sigma = std::sqrt(variance / 2.0);
  const double re = sigma * normal();
  return {re, sigma * normal()};
}

unsigned Rng::poisson(double lambda) {
  require(lambda >= 0.0, "Rng::poisson: lambda must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda > 30.0) {
    const double v = normal(lambda, std::sqrt(lambda));
    return v <= 0.0 ? 0u : static_cast<unsigned>(std::lround(v));
  }
  const double threshold = std::exp(-lambda);
  unsigned k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= uniform();
  } while (p > threshold);
  return k - 1;
}

std::vector<std::uint8_t> Rng::bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(next_u64() & 0xFF);
  return out;
}

std::vector<std::uint8_t> Rng::bits(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(next_u64() & 1);
  return out;
}

}  // namespace witag::util
