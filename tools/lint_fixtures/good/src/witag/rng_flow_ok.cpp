// Known-good fixture: the sanctioned Rng flows. References share the
// stream; split() and derive_seed fork *decorrelated* children on
// purpose; a copy-init whose initializer is a call expression is a
// deliberate fork, not a silent one. Scanned, never compiled.
#include <cstdint>

#include "util/rng.hpp"

namespace witag {

double draw_by_ref(util::Rng& rng) { return rng.uniform(0.0, 1.0); }

double fork_properly(util::Rng& rng) {
  util::Rng child = rng.split();
  const std::uint64_t seed = util::Rng::derive_seed(7u, 3u);
  util::Rng derived(seed);
  return child.uniform(0.0, 1.0) + derived.uniform(0.0, 1.0);
}

// A derive_seed on a continuation line feeds the enclosing call.
std::uint64_t nested_seed(std::uint64_t address, std::uint64_t sequence) {
  return util::Rng::derive_seed(
      util::Rng::derive_seed(0xD2'0917ull, address), sequence);
}

}  // namespace witag
