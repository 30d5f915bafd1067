#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <vector>

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
  using ziggurat::kR;
  using ziggurat::kV;
  using ziggurat::kX;
  std::array<double, 257> x{};
  x[0] = kV / std::exp(-0.5 * kR * kR);
  x[1] = kR;
  for (std::size_t i = 1; i < 255; ++i) {
    const double f = std::exp(-0.5 * x[i] * x[i]);
    x[i + 1] = std::sqrt(-2.0 * std::log(kV / x[i] + f));
  }
  x[256] = 0.0;
  const auto within_ulp = [](double want, double got) {
    return got == want || got == std::nextafter(want, 0.0) ||
           got == std::nextafter(want, 1e300);
  };
  for (std::size_t i = 0; i < 257; ++i) {
    EXPECT_TRUE(within_ulp(x[i], kX[i])) << "kX[" << i << "]";
    EXPECT_TRUE(within_ulp(std::exp(-0.5 * x[i] * x[i]), kF[i]))
        << "kF[" << i << "]";
  }
  // Shape: widths shrink and heights grow toward the mode, and every
  // layer 1..254 has area V.
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_GT(kX[i], kX[i + 1]) << i;
    EXPECT_LT(kF[i], kF[i + 1]) << i;
  }
  for (std::size_t i = 1; i < 255; ++i) {
    EXPECT_NEAR(kX[i] * (kF[i + 1] - kF[i]), kV, 1e-15) << i;
  }
}

// The first 32 draws of one seed, bit for bit: any change to the stream
// (table, bit layout, slow path) moves every figure and must show here.
TEST(Ziggurat, FirstDrawsPinned) {
  constexpr std::array<double, 32> kWant = {
      -0x1.069af0134283ep+1, -0x1.290b307cafe73p+0, 0x1.c453cb1e6d2bap+0,
      -0x1.c0e224e7621fep-3, -0x1.372883d3a577ep+0, -0x1.da36e9c03b6dfp-2,
      -0x1.3bdb4e3161d49p-2, 0x1.26d01d89980adp-3, 0x1.adca2cb2a689ep-3,
      0x1.3b1411290c59ap-1, -0x1.5f7f7336a4e56p-1, -0x1.d37ffd13c1672p-1,
      0x1.282d701925b14p-1, -0x1.13cb2fcf0a54bp+0, -0x1.0242edcb1e603p-1,
      0x1.0d17da202aab2p-3, 0x1.25fb6882956e9p+0, -0x1.66a40480e82e6p-1,
      -0x1.d60111c2d5a61p-1, -0x1.6e8f45103b62bp-2, -0x1.0cf4a9a0723b1p-3,
      -0x1.647cb84d18ddp-1, 0x1.f2fa0cdf69e5p-6, -0x1.17ec03c59e818p-2,
      -0x1.9f5a53fbb6a1ap-2, -0x1.136546e0bb1cep-1, 0x1.434e32019adb7p+0,
      0x1.73c8375b3af1ep-3, 0x1.ac2f5c8d821e5p-2, -0x1.33496da91b32dp-1,
      0x1.6f28ec883b06bp+1, -0x1.8d542c9ba3114p-3,
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
// tail sampler (beyond R = 3.65) cannot hide in P(|z| > k). The KS
// statistic is bounded from above through a 2^17-bin histogram on
// [-6, 6): within a bin both the empirical and the normal CDF are
// monotone, so the bin-edge gaps bound the supremum.
TEST(Ziggurat, TenMillionDrawsMatchStandardNormal) {
  constexpr std::size_t kDraws = 10'000'000;
  constexpr std::size_t kBins = 1u << 17;
  constexpr double kLo = -6.0;
  constexpr double kHi = 6.0;
  const double n = static_cast<double>(kDraws);
  const double width = (kHi - kLo) / static_cast<double>(kBins);

  Rng rng(0x5EED'2018);
  std::vector<std::uint32_t> hist(kBins, 0);
  std::size_t below = 0;
  std::size_t above = 0;
  std::array<std::size_t, 3> upper{};  // z > 2, 3, 4
  std::array<std::size_t, 3> lower{};  // z < -2, -3, -4
  double s1 = 0.0;
  double s2 = 0.0;
  double s4 = 0.0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    const double z = rng.normal();
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

}  // namespace
}  // namespace witag::util
