#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "phy/simd.hpp"
#include "util/ziggurat.hpp"

namespace witag::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitIsIndependentStream) {
  Rng a(7);
  Rng c = a.split();
  // The split stream must differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == c.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 9.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 9.0);
  }
}

TEST(Rng, UniformRejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIntCoversRangeWithoutBias) {
  Rng rng(6);
  std::array<int, 7> counts{};
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.uniform_int(7)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), n / 7.0, 600.0);
  }
}

TEST(Rng, UniformIntRejectsZero) {
  Rng rng(6);
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(8);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, NormalScaled) {
  Rng rng(9);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeStddev) {
  Rng rng(9);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, ComplexNormalVariance) {
  Rng rng(10);
  double power = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.complex_normal(4.0));
  EXPECT_NEAR(power / n, 4.0, 0.1);
}

TEST(Rng, PoissonMeanSmallLambda) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, PoissonMeanLargeLambda) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(100.0);
  EXPECT_NEAR(sum / n, 100.0, 1.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(14);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-1.0));
  EXPECT_TRUE(rng.bernoulli(2.0));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BytesAndBitsShapes) {
  Rng rng(16);
  const auto bytes = rng.bytes(33);
  EXPECT_EQ(bytes.size(), 33u);
  const auto bits = rng.bits(77);
  EXPECT_EQ(bits.size(), 77u);
  for (const auto b : bits) EXPECT_LE(b, 1);
}

// --- Ziggurat normal sampler ---------------------------------------------

// Recomputes both tables from the definition in util/ziggurat.hpp; every
// checked-in constant must sit within 1 ulp of the recomputed value.
TEST(Ziggurat, TablesMatchDefinition) {
  using ziggurat::kF;
  using ziggurat::kLayers;
  using ziggurat::kR;
  using ziggurat::kV;
  using ziggurat::kX;
  static_assert(kLayers == 1024 && kX.size() == kLayers + 1 &&
                kF.size() == kLayers + 1);
  std::array<double, kLayers + 1> x{};
  x[0] = kV / std::exp(-0.5 * kR * kR);
  x[1] = kR;
  for (std::size_t i = 1; i < kLayers - 1; ++i) {
    const double f = std::exp(-0.5 * x[i] * x[i]);
    x[i + 1] = std::sqrt(-2.0 * std::log(kV / x[i] + f));
  }
  x[kLayers] = 0.0;
  const auto within_ulp = [](double want, double got) {
    return got == want || got == std::nextafter(want, 0.0) ||
           got == std::nextafter(want, 1e300);
  };
  for (std::size_t i = 0; i <= kLayers; ++i) {
    EXPECT_TRUE(within_ulp(x[i], kX[i])) << "kX[" << i << "]";
    EXPECT_TRUE(within_ulp(std::exp(-0.5 * x[i] * x[i]), kF[i]))
        << "kF[" << i << "]";
  }
  // Shape: widths shrink and heights grow toward the mode, every layer
  // 1..N-2 has area V, and so (to the rounding of V's 12 digits) does
  // the top layer, closing at 0.
  for (std::size_t i = 0; i < kLayers; ++i) {
    EXPECT_GT(kX[i], kX[i + 1]) << i;
    EXPECT_LT(kF[i], kF[i + 1]) << i;
  }
  for (std::size_t i = 1; i < kLayers - 1; ++i) {
    EXPECT_NEAR(kX[i] * (kF[i + 1] - kF[i]), kV, 1e-15) << i;
  }
  EXPECT_NEAR(kX[kLayers - 1] * (1.0 - kF[kLayers - 1]), kV, 1e-8 * kV);
  // R closes the ziggurat: the base layer, rectangle plus tail, has area
  // V too (the tail integral is sqrt(pi/2) erfc(R / sqrt 2)).
  const double base = kR * std::exp(-0.5 * kR * kR) +
                      std::sqrt(std::acos(-1.0) / 2.0) *
                          std::erfc(kR / std::sqrt(2.0));
  EXPECT_NEAR(base, kV, 1e-14);
  // The draw's bit layout: layer bits 0-9, sign bit 10.
  EXPECT_EQ(ziggurat::kLayerMask, 0x3FFu);
  EXPECT_EQ(ziggurat::kSignBit, 0x400u);
}

// The first 32 draws of one seed, bit for bit: any change to the stream
// (table, bit layout, slow path) moves every figure and must show here.
TEST(Ziggurat, FirstDrawsPinned) {
  constexpr std::array<double, 32> kWant = {
      0x1.985f43715a82cp-1, 0x1.6c9146cdda667p+0, 0x1.b75f7749f988p-1,
      0x1.0ba748f247416p-3, -0x1.8e52595dbe1d9p+0, -0x1.eca64985a60ap-3,
      0x1.5ee1987e0f13p-2, 0x1.c4c7fd7cb2586p-2, -0x1.c2db9c69752b2p-1,
      0x1.1377b5ecde2e4p+0, -0x1.e08c0426ab13ap-2, -0x1.ff798f794905p-2,
      -0x1.87584de830ac6p+0, -0x1.4c63bd49cac9ep+0, 0x1.22119ea209783p-2,
      0x1.9ab08e8f57f08p-3, -0x1.9c6f9b2ec1329p+0, 0x1.15a48ff1c222ep+0,
      -0x1.04c181769ebabp-1, 0x1.b68038abf97f1p-3, 0x1.288e21d8aa8f2p-4,
      -0x1.8b8df2ead4519p-2, -0x1.006dcaeaf4768p-4, -0x1.c8fb41b333a56p-2,
      -0x1.f50e673bf3a81p-3, -0x1.04202b61bf71ap+0, -0x1.056580edd5f4bp+1,
      0x1.a47ca462fa604p-2, -0x1.d5187ac7b88ap-1, 0x1.31e1e25ff693dp-2,
      0x1.77aabb0d47533p+0, 0x1.736aad04820abp-2,
  };
  Rng rng(20181115);
  for (std::size_t i = 0; i < kWant.size(); ++i) {
    const double got = rng.normal();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", got);
    EXPECT_EQ(got, kWant[i]) << "draw " << i << " = " << buf;
  }
}

// 10^7 draws against N(0, 1): moments, tail masses and a Kolmogorov-
// Smirnov bound, each at 99.9% (|z| < 3.29; KS 1.949 / sqrt(n)). Each
// tail is also checked on its own, so a sign error confined to the
// tail sampler (beyond R = 4.04) cannot hide in P(|z| > k). The KS
// statistic is bounded from above through a 2^17-bin histogram on
// [-6, 6): within a bin both the empirical and the normal CDF are
// monotone, so the bin-edge gaps bound the supremum.
template <class Draw>
void expect_standard_normal(std::size_t draws, Draw&& draw) {
  constexpr std::size_t kBins = 1u << 17;
  constexpr double kLo = -6.0;
  constexpr double kHi = 6.0;
  const double n = static_cast<double>(draws);
  const double width = (kHi - kLo) / static_cast<double>(kBins);

  std::vector<std::uint32_t> hist(kBins, 0);
  std::size_t below = 0;
  std::size_t above = 0;
  std::array<std::size_t, 3> upper{};  // z > 2, 3, 4
  std::array<std::size_t, 3> lower{};  // z < -2, -3, -4
  double s1 = 0.0;
  double s2 = 0.0;
  double s4 = 0.0;
  for (std::size_t i = 0; i < draws; ++i) {
    const double z = draw();
    const double z2 = z * z;
    s1 += z;
    s2 += z2;
    s4 += z2 * z2;
    for (std::size_t k = 0; k < upper.size(); ++k) {
      if (z > static_cast<double>(k + 2)) ++upper[k];
      if (z < -static_cast<double>(k + 2)) ++lower[k];
    }
    if (z < kLo) {
      ++below;
    } else if (z >= kHi) {
      ++above;
    } else {
      ++hist[std::min(kBins - 1,
                      static_cast<std::size_t>((z - kLo) / width))];
    }
  }

  const double mean = s1 / n;
  const double var = s2 / n - mean * mean;
  const double kurtosis = (s4 / n) / ((s2 / n) * (s2 / n));
  EXPECT_LT(std::abs(mean), 3.29 * std::sqrt(1.0 / n)) << mean;
  EXPECT_LT(std::abs(var - 1.0), 3.29 * std::sqrt(2.0 / n)) << var;
  EXPECT_LT(std::abs(kurtosis - 3.0), 3.29 * std::sqrt(24.0 / n))
      << kurtosis;
  const auto expect_mass = [n](std::size_t count, double p,
                               const char* what, std::size_t k) {
    const double got = static_cast<double>(count) / n;
    EXPECT_LT(std::abs(got - p), 3.29 * std::sqrt(p * (1.0 - p) / n))
        << "P(" << what << k + 2 << ") = " << got << " vs " << p;
  };
  for (std::size_t k = 0; k < upper.size(); ++k) {
    const double p = std::erfc(static_cast<double>(k + 2) / std::sqrt(2.0));
    expect_mass(upper[k] + lower[k], p, "|z| > ", k);
    expect_mass(upper[k], p / 2.0, "z > ", k);
    expect_mass(lower[k], p / 2.0, "z < -", k);
  }

  const auto phi = [](double v) {
    return 0.5 * std::erfc(-v / std::sqrt(2.0));
  };
  double cum = static_cast<double>(below) / n;  // F_n just below the edge
  double ks = std::max(cum, phi(kLo));
  for (std::size_t b = 0; b < kBins; ++b) {
    const double lo_edge = kLo + width * static_cast<double>(b);
    const double next = cum + static_cast<double>(hist[b]) / n;
    ks = std::max({ks, next - phi(lo_edge), phi(lo_edge + width) - cum});
    cum = next;
  }
  ks = std::max(ks, static_cast<double>(above) / n);
  EXPECT_LT(ks, 1.949 / std::sqrt(n));
}

TEST(Ziggurat, TenMillionDrawsMatchStandardNormal) {
  Rng rng(0x5EED'2018);
  expect_standard_normal(10'000'000, [&] { return rng.normal(); });
}

// The channel's noise: eight generators split from one Rng, drawn in
// groups of eight at the best tier (phy::simd::normal_lanes_for) and
// read in that interleaved order, pass the same checks. Each lane's mean
// is checked on its own, and the correlation of every pair of lanes
// (their draws paired by group) stays below 4 / sqrt(draws per lane).
TEST(Ziggurat, TenMillionLaneDrawsMatchStandardNormal) {
  constexpr std::size_t kDraws = 10'000'000;
  constexpr std::size_t kLanes = phy::simd::kNoiseLanes;
  constexpr std::size_t kBlock = 1000;  // not a multiple of 8 groups
  Rng root(0x5EED'2019);
  phy::simd::NoiseLanes lanes;
  for (Rng& lane : lanes) lane = root.split();
  const phy::simd::NormalLanesFn fill =
      phy::simd::normal_lanes_for(phy::simd::detect_best_tier());
  // Blocks of 1,000 = 125 whole groups, so the interleave never breaks.
  std::vector<double> block(kBlock);
  std::size_t at = kBlock;
  std::array<double, kLanes> sum{};
  std::array<std::array<double, kLanes>, kLanes> cross{};
  std::array<double, kLanes> group{};
  std::size_t drawn = 0;
  expect_standard_normal(kDraws, [&] {
    if (at == kBlock) {
      fill(lanes, kBlock, block.data());
      at = 0;
    }
    const double z = block[at++];
    const std::size_t lane = drawn++ % kLanes;
    sum[lane] += z;
    group[lane] = z;
    if (lane == kLanes - 1) {
      for (std::size_t a = 0; a < kLanes; ++a) {
        for (std::size_t b = a + 1; b < kLanes; ++b) {
          cross[a][b] += group[a] * group[b];
        }
      }
    }
    return z;
  });
  const double per_lane = static_cast<double>(kDraws / kLanes);
  for (std::size_t a = 0; a < kLanes; ++a) {
    EXPECT_LT(std::abs(sum[a] / per_lane), 3.29 / std::sqrt(per_lane))
        << "lane " << a;
    for (std::size_t b = a + 1; b < kLanes; ++b) {
      EXPECT_LT(std::abs(cross[a][b] / per_lane), 4.0 / std::sqrt(per_lane))
          << "lanes " << a << ", " << b;
    }
  }
}

}  // namespace
}  // namespace witag::util
