#include "phy/fft.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "phy/simd.hpp"
#include "util/require.hpp"
#include "util/units.hpp"

namespace witag::phy {
namespace {

using util::Cx;

void check_length(std::size_t n) {
  WITAG_REQUIRE(n >= 1 && std::has_single_bit(n));
}

/// Precomputed execution plan for one transform length: the bit-reversal
/// swap pairs and, per butterfly stage, the twiddle sequence the
/// reference recurrence would produce (so planned output is bit-identical
/// to the reference).
struct FftPlan {
  std::size_t n = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
  /// Stage twiddles concatenated (len = 2, 4, ..., n; len/2 entries per
  /// stage, n - 1 total), one table per direction.
  std::vector<Cx> fwd;
  std::vector<Cx> inv;
  double scale = 1.0;
};

std::vector<Cx> build_twiddles(std::size_t n, bool inverse) {
  std::vector<Cx> tw;
  tw.reserve(n - 1);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * util::kPi / static_cast<double>(len);
    const Cx wlen{std::cos(angle), std::sin(angle)};
    // Same incremental recurrence as the reference transform so the
    // cached values match it to the last bit.
    Cx w{1.0, 0.0};
    for (std::size_t k = 0; k < len / 2; ++k) {
      tw.push_back(w);
      w *= wlen;
    }
  }
  return tw;
}

const FftPlan* build_plan(std::size_t n) {
  WITAG_COUNT("phy.fft.plan_builds", 1);
  auto* plan = new FftPlan;  // process-lifetime; never freed
  plan->n = n;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      plan->swaps.emplace_back(static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(j));
    }
  }
  plan->fwd = build_twiddles(n, false);
  plan->inv = build_twiddles(n, true);
  plan->scale = 1.0 / std::sqrt(static_cast<double>(n));
  return plan;
}

/// Process-wide plan cache, one slot per log2(length). Lookup is a
/// single acquire load; the build path double-checks under a mutex so
/// concurrent workers agree on one plan per length.
struct PlanCache {
  std::array<std::atomic<const FftPlan*>, 64> slots{};
  std::mutex build_mu;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

const FftPlan& plan_for(std::size_t n) {
  PlanCache& cache = plan_cache();
  auto& slot = cache.slots[static_cast<std::size_t>(std::countr_zero(n))];
  const FftPlan* plan = slot.load(std::memory_order_acquire);
  if (plan) return *plan;
  std::lock_guard<std::mutex> lock(cache.build_mu);
  plan = slot.load(std::memory_order_acquire);
  if (!plan) {
    plan = build_plan(n);
    slot.store(plan, std::memory_order_release);
  }
  return *plan;
}

// Radix-4 engine: the radix-2 stage ladder (len = 2, 4, ..., n) is run
// as fused pairs of consecutive stages — a fused pass performs exactly
// the arithmetic of its two radix-2 stages, element for element (each
// output of stage L feeds exactly one butterfly of stage 2L, so fusing
// reorders operations only across independent elements), which keeps the
// result bit-identical to the reference while halving the sweeps over
// the data. The plan's concatenated twiddle tables serve both stage
// halves directly: the stage with half-length h starts at offset h - 1.
// When log2(n) is odd the leading len-2 stage runs standalone first.
// The per-pass butterflies come from phy::simd (scalar with hoisted
// twiddles, or AVX2 two-complex vectors).
void transform_tiered(std::span<Cx> data, bool inverse, simd::Tier tier) {
  const std::size_t n = data.size();
  check_length(n);
  if (n == 1) return;
  const FftPlan& plan = plan_for(n);

  for (const auto& [i, j] : plan.swaps) std::swap(data[i], data[j]);

  const simd::FftKernels& kern = simd::fft_kernels_for(tier);
  const std::vector<Cx>& twiddles = inverse ? plan.inv : plan.fwd;
  const Cx* tw = twiddles.data();
  std::size_t h = 1;
  if (static_cast<unsigned>(std::countr_zero(n)) % 2 == 1) {
    kern.len2_pass(data.data(), n);
    h = 2;
  }
  for (; 4 * h <= n; h *= 4) {
    kern.radix4_pass(data.data(), n, h, tw + (h - 1), tw + (2 * h - 1));
  }
  kern.scale(data.data(), n, plan.scale);
}

void transform(std::span<Cx> data, bool inverse) {
  transform_tiered(data, inverse, simd::active_tier());
}

}  // namespace

namespace detail {

void fft_radix4_inplace(std::span<Cx> data, bool inverse) {
  transform_tiered(data, inverse, simd::Tier::kScalar);
}

std::size_t fft_plan_count() {
  std::size_t count = 0;
  for (const auto& slot : plan_cache().slots) {
    if (slot.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

}  // namespace detail

void fft_inplace(std::span<Cx> data) {
  WITAG_COUNT("phy.fft.calls", 1);
  transform(data, false);
}

void ifft_inplace(std::span<Cx> data) {
  WITAG_COUNT("phy.ifft.calls", 1);
  transform(data, true);
}

util::CxVec fft(std::span<const Cx> data) {
  util::CxVec out(data.begin(), data.end());
  fft_inplace(out);
  return out;
}

util::CxVec ifft(std::span<const Cx> data) {
  util::CxVec out(data.begin(), data.end());
  ifft_inplace(out);
  return out;
}

}  // namespace witag::phy
