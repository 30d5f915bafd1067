#include "phy/viterbi.hpp"

#include <array>
#include <cstddef>
#include <memory>

#include "obs/obs.hpp"
#include "phy/convolutional.hpp"
#include "phy/simd.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

// Start metric of the states the zeroed encoder cannot be in: for the
// six steps until every state is reachable from state 0, a path out of
// them trails every path out of state 0 (2 × 6 × 256 < 8192), so the
// decoder prunes exactly like the reference's -inf.
constexpr std::int16_t kUnreachableMetric = -8192;
static_assert(-kUnreachableMetric <= simd::kAcsStartBound);

// Chain B's warm-up ends right after one of its renormalizations, and
// the shortest split field has room for it before the split.
static_assert(detail::kSplitWarmup % simd::kAcsRenormPeriod == 0);
static_assert(detail::split_step(detail::kSplitMinSteps) >=
              detail::kSplitWarmup);

}  // namespace

void viterbi_decode(std::span<const std::int8_t> llrs, ViterbiWorkspace& ws,
                    util::BitVec& out) {
  WITAG_SPAN_CAT("phy.viterbi", "phy");
  WITAG_REQUIRE(!llrs.empty() && llrs.size() % 2 == 0);
  const std::size_t n_steps = llrs.size() / 2;
  WITAG_COUNT("phy.viterbi.calls", 1);
  WITAG_COUNT("phy.viterbi.bits", n_steps);

  if (ws.capacity_ >= n_steps) {
    WITAG_COUNT("phy.viterbi.workspace_reuses", 1);
  } else {
    ws.decisions_ = std::make_unique_for_overwrite<std::uint64_t[]>(n_steps);
    ws.capacity_ = n_steps;
  }
  std::uint64_t* decisions = ws.decisions_.get();

  // The whole trellis runs in one kernel call (both chains of a split
  // field in one), with the tier resolved once per decode; the kernels
  // are integer arithmetic, so every tier returns the same decisions
  // (tests/test_simd.cpp).
  const simd::Tier tier = simd::active_tier();
  std::array<std::int16_t, kNumStates> metric{};
  metric.fill(kUnreachableMetric);
  metric[0] = 0;  // encoder starts zeroed
  // A long field decodes as two half-trellises, chain A over [0, S)
  // from the start metrics and chain B from S - L to the end from
  // all-zero metrics (L = detail::kSplitWarmup). S and S - L are
  // multiples of the renormalization period, so B renormalizes where
  // the single chain would: if its metrics after the warm-up equal A's
  // at S, every later decision of B is the single chain's, and if not,
  // [S, n) is re-run from A's metrics (DESIGN.md §12.1).
  if (n_steps < detail::kSplitMinSteps) {
    simd::acs_block_for(tier)(llrs.data(), n_steps, decisions, metric.data());
  } else {
    const std::size_t split = detail::split_step(n_steps);
    std::array<std::uint64_t, detail::kSplitWarmup> warmup_decisions;
    std::array<std::int16_t, kNumStates> metric_b{};
    std::array<std::int16_t, kNumStates> snapshot;
    simd::acs_pair_for(tier)(
        llrs.data(), n_steps, decisions,
        {split, detail::kSplitWarmup, warmup_decisions.data(),
         metric.data(), metric_b.data(), snapshot.data()});
    // Counted as 0 or 1, so the metrics report the re-runs even when
    // there are none.
    const bool rerun = snapshot != metric;
    WITAG_COUNT("phy.viterbi.splits", 1);
    WITAG_COUNT("phy.viterbi.split_reruns", rerun ? 1 : 0);
    if (rerun) {
      simd::acs_block_for(tier)(llrs.data() + 2 * split, n_steps - split,
                                decisions + split, metric.data());
    }
  }

  // The tail drives the encoder back to state 0, and the all-zero input
  // path keeps state 0 reachable at every step, so the traceback starts
  // there. State ns was entered with input ns >> 5 from predecessor
  // ((2 * ns) & 63) plus its decision bit.
  out.resize(n_steps);
  simd::traceback_for(tier)(decisions, n_steps, out.data());
}

util::BitVec viterbi_decode(std::span<const std::int8_t> llrs) {
  thread_local ViterbiWorkspace ws;
  util::BitVec bits;
  viterbi_decode(llrs, ws, bits);
  return bits;
}

}  // namespace witag::phy
