#include "phy/viterbi.hpp"

#include <array>
#include <cstddef>

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

}  // namespace

void viterbi_decode(std::span<const std::int8_t> llrs, ViterbiWorkspace& ws,
                    util::BitVec& out) {
  WITAG_SPAN_CAT("phy.viterbi", "phy");
  WITAG_REQUIRE(!llrs.empty() && llrs.size() % 2 == 0);
  const std::size_t n_steps = llrs.size() / 2;
  WITAG_COUNT("phy.viterbi.calls", 1);
  WITAG_COUNT("phy.viterbi.bits", n_steps);

  if (ws.decisions_.capacity() >= n_steps) {
    WITAG_COUNT("phy.viterbi.workspace_reuses", 1);
  }
  ws.decisions_.resize(n_steps);
  std::uint64_t* decisions = ws.decisions_.data();

  // The whole trellis runs in one kernel call, with the tier resolved
  // once per decode; the kernels are integer arithmetic, so every tier
  // returns the same decisions (tests/test_simd.cpp).
  const simd::Tier tier = simd::active_tier();
  std::array<std::int16_t, kNumStates> metric{};
  metric.fill(kUnreachableMetric);
  metric[0] = 0;  // encoder starts zeroed
  simd::acs_block_for(tier)(llrs.data(), n_steps, decisions, metric.data());

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
