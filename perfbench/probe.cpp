// Host speed probe: a fixed reference kernel owned by the benchmark.
//
// The kernel mixes the two shapes of work an exchange spends its time
// in: add-compare-select over 64 trellis states (the Viterbi decoder)
// and complex multiply-accumulate with renormalization (equalization,
// channel filtering). Nothing in src/ is called, so no change to the
// simulator can move its time; only the host's speed can.
#include <array>
#include <complex>
#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

// Keeps the kernel's results alive.
volatile std::int32_t g_metric_sink;
volatile double g_sample_sink;

constexpr std::size_t kStates = 64;
constexpr int kSteps = 1'500;
constexpr std::size_t kSamples = 1'024;
constexpr int kPasses = 12;

/// Pseudo-random branch metrics, the same on every call.
const std::vector<std::int32_t>& branch_metrics() {
  static const std::vector<std::int32_t> table = [] {
    std::vector<std::int32_t> t(4'096);
    std::uint32_t x = 1;
    for (auto& v : t) {
      x = x * 1'664'525u + 1'013'904'223u;
      v = static_cast<std::int32_t>(x >> 24);
    }
    return t;
  }();
  return table;
}

void add_compare_select() {
  const std::vector<std::int32_t>& bm = branch_metrics();
  std::array<std::int32_t, kStates> m{};
  std::array<std::int32_t, kStates> next{};
  constexpr std::size_t kHalf = kStates / 2;
  for (int step = 0; step < kSteps; ++step) {
    const std::int32_t* b =
        &bm[(static_cast<std::size_t>(step) * kStates) % bm.size()];
    for (std::size_t s = 0; s < kHalf; ++s) {
      const std::int32_t a0 = m[2 * s] + b[s];
      const std::int32_t a1 = m[2 * s + 1] + b[s + kHalf];
      const std::int32_t c0 = m[2 * s] + b[s + kHalf];
      const std::int32_t c1 = m[2 * s + 1] + b[s];
      next[s] = a0 < a1 ? a0 : a1;
      next[s + kHalf] = c0 < c1 ? c0 : c1;
    }
    std::int32_t lowest = next[0];
    for (const std::int32_t v : next) lowest = v < lowest ? v : lowest;
    for (std::size_t s = 0; s < kStates; ++s) m[s] = next[s] - lowest;
  }
  g_metric_sink = m[kStates - 1];
}

void multiply_accumulate() {
  std::vector<std::complex<double>> x(kSamples, {1.0, 0.5});
  const std::complex<double> h{0.99, -0.01};
  std::complex<double> acc{};
  for (int pass = 0; pass < kPasses; ++pass) {
    for (auto& v : x) {
      v *= h;
      acc += v;
      v /= std::abs(v);
    }
  }
  g_sample_sink = acc.real();
}

}  // namespace

double probe_us() {
  const double t0 = now_s();
  add_compare_select();
  multiply_accumulate();
  return (now_s() - t0) * 1e6;
}

}  // namespace perfbench
