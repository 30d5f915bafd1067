// The SIMD tiers a test can pin with phy::simd::ScopedTier on this
// host, shared by the tier-parity tests (test_simd.cpp) and the cipher's
// tier tests (test_crypto.cpp, test_rx_fuzz.cpp).
#pragma once

#include <vector>

#include "phy/simd.hpp"

namespace witag::test {

/// Every tier this machine can actually execute, in ascending order.
inline std::vector<phy::simd::Tier> runnable_tiers() {
  using phy::simd::Tier;
  std::vector<Tier> tiers{Tier::kScalar};
  if (phy::simd::detect_best_tier() >= Tier::kAvx2) {
    tiers.push_back(Tier::kAvx2);
  }
  if (phy::simd::detect_best_tier() >= Tier::kAvx512) {
    tiers.push_back(Tier::kAvx512);
  }
  return tiers;
}

}  // namespace witag::test
