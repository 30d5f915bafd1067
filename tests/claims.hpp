// Seed plumbing shared by the `claims` tests (the paper-shape checks of
// EXPERIMENTS.md). One realization of a figure is not stable, so each
// claim pools several seed sets; WITAG_CLAIMS_SEED_BASE moves every set
// to fresh, disjoint seeds, which is how a tolerance is calibrated and
// how a deliberate re-baseline is shown not to have bent the claim.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "util/rng.hpp"

namespace witag::claims {

/// WITAG_CLAIMS_SEED_BASE when set and non-empty, else `fallback`.
inline std::uint64_t seed_base(std::uint64_t fallback) {
  const char* env = std::getenv("WITAG_CLAIMS_SEED_BASE");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 0);
}

/// Seed of task `index` in seed set `set` under `base`: two splitmix64
/// fan-outs, so sets and bases never share a task seed in practice.
inline std::uint64_t set_seed(std::uint64_t base, std::uint64_t set,
                              std::uint64_t index) {
  return util::Rng::derive_seed(util::Rng::derive_seed(base, set), index);
}

}  // namespace witag::claims
