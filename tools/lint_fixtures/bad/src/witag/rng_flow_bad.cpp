// Known-bad fixture: determinism-dataflow violations around util::Rng.
// A by-value Rng parameter and a copy-init from an lvalue both fork
// the stream silently (both objects replay the same draws); a
// derive_seed result dropped on the floor means a planned sub-stream
// was never wired. Scanned, never compiled.
#include "util/rng.hpp"

namespace witag {

// rng-copy: by-value parameter replays the caller's draws.
double draw_by_value(util::Rng rng_in) { return rng_in.uniform(0.0, 1.0); }

double fork_and_discard(util::Rng& rng) {
  // rng-copy: copy-init from an lvalue forks the stream.
  util::Rng fork = rng;
  // seed-discard: the derived child seed is never used. (Its digit
  // separators must not read as character-literal quotes.)
  util::Rng::derive_seed(0x0123'4567'89AB'CDEFull, 3u);
  return fork.uniform(0.0, 1.0);
}

}  // namespace witag
