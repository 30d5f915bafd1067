#include "phy/viterbi.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <cstddef>

#include "obs/obs.hpp"
#include "phy/convolutional.hpp"
#include "phy/simd.hpp"
#include "phy/trellis.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

// Branch metric contribution of one coded bit: LLR > 0 favors bit 0, so a
// branch expecting bit 0 gains +llr and one expecting bit 1 gains -llr.
double bit_metric(double llr, std::uint8_t expected) {
  return expected ? -llr : llr;
}

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

namespace detail {

util::BitVec viterbi_reference(std::span<const double> llrs) {
  WITAG_REQUIRE(!llrs.empty() && llrs.size() % 2 == 0);
  const std::size_t n_steps = llrs.size() / 2;
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();

  std::vector<double> metric(kNumStates, kNegInf);
  std::vector<double> next_metric(kNumStates, kNegInf);
  metric[0] = 0.0;  // encoder starts zeroed

  // survivor[step][state] = (previous state << 1) | input bit.
  std::vector<std::array<std::uint8_t, kNumStates>> survivor(n_steps);

  for (std::size_t step = 0; step < n_steps; ++step) {
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    const double la = llrs[2 * step];
    const double lb = llrs[2 * step + 1];
    for (std::uint32_t s = 0; s < kNumStates; ++s) {
      if (metric[s] == kNegInf) continue;
      for (std::uint32_t u = 0; u < 2; ++u) {
        const std::uint8_t ns = kTrellis.next[s][u];
        const double m = metric[s] + bit_metric(la, kTrellis.out_a[s][u]) +
                         bit_metric(lb, kTrellis.out_b[s][u]);
        if (m > next_metric[ns]) {
          next_metric[ns] = m;
          survivor[step][ns] = static_cast<std::uint8_t>((s << 1) | u);
        }
      }
    }
    metric.swap(next_metric);
  }

  std::uint32_t state = 0;
  if (metric[0] == kNegInf) {
    state = static_cast<std::uint32_t>(
        std::max_element(metric.begin(), metric.end()) - metric.begin());
  }

  util::BitVec bits(n_steps);
  for (std::size_t step = n_steps; step-- > 0;) {
    const std::uint8_t sv = survivor[step][state];
    bits[step] = sv & 1u;
    state = sv >> 1;
  }
  return bits;
}

}  // namespace detail

}  // namespace witag::phy
