// Known-bad fixture source: plants one violation per linter rule so the
// self-test can verify each fires. This file is scanned, never compiled.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace witag::fixture {

// determinism: every forbidden randomness/clock source.
int entropy() {
  std::random_device rd;
  const auto wall = std::chrono::steady_clock::now();
  (void)wall;
  const auto stamp = time(nullptr);
  (void)stamp;
  return std::rand() + static_cast<int>(rd());
}

// raw-literal: duplicates constants named in util/units.hpp.
double circle_area(double r) { return 3.14159265358979 * r * r; }
double light_ns(double m) { return m / 299792458.0 * 1e9; }
double noise(double bw) { return 1.380649e-23 * 290.0 * bw; }
double carrier() { return 2.437e9; }

// unordered-iter: range-for over an unordered container feeding stdout.
void dump_counts() {
  std::unordered_map<std::string, int> counts;
  counts["a"] = 1;
  for (const auto& entry : counts) {
    std::cout << entry.first << "," << entry.second << "\n";
  }
}

// hot-alloc: fresh container every trellis step instead of a hoisted
// workspace buffer.
double step_metrics(int n_steps) {
  double acc = 0.0;
  for (int step = 0; step < n_steps; ++step) {
    std::vector<double> metrics(64, 0.0);
    acc += metrics[static_cast<std::size_t>(step) % 64];
  }
  return acc;
}

// hot-lookup: registry lookup re-resolved on every round instead of a
// cached handle (WITAG_* macro / function-local static).
void count_rounds(int n_rounds) {
  for (int round = 0; round < n_rounds; ++round) {
    obs::counter("session.rounds").add(1);
    obs::hdr("session.latency_us").record(1.0);
  }
}

// simd-intrinsic: raw x86 and NEON intrinsics outside src/phy/simd*.
// simd-unaligned: the loadu call also lacks a justification marker.
double lane_sum(const double* p, const float* q) {
  const __m256d aligned = _mm256_load_pd(p);
  const __m256d tail = _mm256_loadu_pd(p + 1);
  const auto neon = vld1q_f32(q);
  (void)neon;
  return _mm256_cvtsd_f64(_mm256_add_pd(aligned, tail));
}

}  // namespace witag::fixture
