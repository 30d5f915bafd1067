// Rule registry: names and one-line descriptions, shared by the
// --expect-all-rules self-test, --rules filtering and SARIF metadata.
#include "lint.hpp"

namespace witag::lint {

const std::vector<std::string>& all_rules() {
  static const std::vector<std::string> kRules = {
      // Per-file rules (original witag_lint).
      "determinism", "unordered-iter", "pragma-once", "namespace-comment",
      "raw-literal", "hot-alloc", "hot-lookup", "simd-intrinsic",
      "simd-unaligned",
      // Whole-repo passes (the cross-TU audit).
      "layering", "include-cycle", "detail-reach", "iwyu", "guarded-by",
      "lock-order", "rng-copy", "seed-discard",
      // Marker hygiene.
      "allow-unknown"};
  return kRules;
}

const std::map<std::string, std::string>& rule_descriptions() {
  static const std::map<std::string, std::string> kDesc = {
      {"determinism",
       "No ambient randomness or wall-clock reads in simulation code; all "
       "randomness flows through util::Rng so sweeps stay byte-identical "
       "at any --jobs count."},
      {"unordered-iter",
       "No iteration over std::unordered_map/set feeding output or "
       "accumulation: element order is unspecified and silently reorders "
       "CSV/stdout or perturbs floating-point merges."},
      {"pragma-once", "Every header starts its include guard with #pragma "
                      "once."},
      {"namespace-comment",
       "Every namespace scope is closed with a '}  // namespace' comment."},
      {"raw-literal",
       "No numeric literal duplicating a constant util/units.hpp already "
       "names (pi, c, k_B, WiFi carrier frequencies)."},
      {"hot-alloc",
       "No container construction inside a for/while body in the hot "
       "decode files; hoist buffers into the workspace/scratch structs."},
      {"hot-lookup",
       "No metric-registry lookup inside a per-step loop in the hot "
       "files; cache the handle via WITAG_* macros or a local static."},
      {"simd-intrinsic",
       "No raw vector intrinsics outside src/phy/simd*; everything goes "
       "through the phy::simd dispatch table."},
      {"simd-unaligned",
       "No unaligned-load intrinsic without a marker stating why the "
       "pointer cannot be aligned."},
      {"layering",
       "Cross-module includes must follow the layer DAG (util -> obs -> "
       "phy -> mac/channel -> tag/faults -> witag -> baselines/runner "
       "-> sim); a back-edge makes the architecture cyclic."},
      {"include-cycle",
       "The src/ include graph must be acyclic at file granularity."},
      {"detail-reach",
       "No reaching into another module's detail:: namespace; detail is "
       "module-private by contract (kernel seams, plans, tables)."},
      {"iwyu",
       "Symbols from the curated map must be included directly, not "
       "relied on transitively (include-what-you-use, lite)."},
      {"guarded-by",
       "State annotated '// witag: guarded_by(mu)' may only be touched "
       "under a lock_guard/scoped_lock/unique_lock of that mutex (or in "
       "a function marked '// witag: locks_required(mu)')."},
      {"lock-order",
       "Lock-acquisition order must be globally consistent: a cycle in "
       "the cross-TU acquisition graph is a potential deadlock."},
      {"rng-copy",
       "util::Rng must not be taken by value or copy-initialized from an "
       "lvalue: a silent stream fork makes draws diverge from the "
       "documented stream. Pass by reference or call split()."},
      {"seed-discard",
       "Rng::derive_seed results must be used; a discarded derivation "
       "usually means a sub-stream was forked and forgotten."},
      {"allow-unknown",
       "Allow markers must name known rules; a typo suppresses nothing."},
  };
  return kDesc;
}

}  // namespace witag::lint
