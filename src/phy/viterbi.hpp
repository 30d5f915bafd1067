// Soft-decision Viterbi decoder for the 802.11 rate-1/2 mother code
// (K = 7, generators 133/171 octal). Consumes int8 LLRs in the
// demapper's convention (positive = bit 0 more likely) including the
// zero erasures inserted by depuncturing, and assumes the encoder both
// starts and ends in the all-zero state (6 zero tail bits).
//
// viterbi_decode runs predecessor-oriented butterflies with int16 path
// metrics (saturating add-compare-select, renormalized, one kernel call
// per decode; a field of 2,048 steps or more runs as two half-trellises
// interleaved in that call and checked for exactness where they meet)
// and keeps one decision bit per state and step in a reusable
// ViterbiWorkspace, so steady-state decode performs zero heap
// allocations. On the same LLRs cast to double it returns exactly the
// bits of the transition-oriented reference decoder in doubles
// (tests/oracle; fuzz-tested in tests/test_viterbi_equiv.cpp and
// tests/test_simd.cpp). See DESIGN.md §12 for the correctness argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "phy/simd.hpp"
#include "util/bits.hpp"

namespace witag::phy {

/// Reusable buffers for viterbi_decode. One workspace serves any number
/// of sequential decodes; capacity grows to the largest decode seen and
/// is then reused (counted by the `phy.viterbi.workspace_reuses`
/// metric, which is how tests assert zero steady-state allocations).
/// Not thread-safe: use one workspace per thread.
class ViterbiWorkspace {
 public:
  /// Heap bytes currently reserved by the workspace (8 per trellis
  /// step of the largest decode seen).
  std::size_t capacity_bytes() const {
    return capacity_ * sizeof(std::uint64_t);
  }

 private:
  friend void viterbi_decode(std::span<const std::int8_t> llrs,
                             ViterbiWorkspace& ws, util::BitVec& out);
  // Bit ns of decisions_[step] is set iff next state ns took its odd
  // predecessor ((2 * ns) & 63) + 1 at that step. The words are not
  // initialized: a decode writes each of its words before it reads it,
  // and a vector resized from a short decode's size back to a long
  // one's would zero them all first.
  std::unique_ptr<std::uint64_t[]> decisions_;
  std::size_t capacity_ = 0;
};

/// Decodes `llrs` (two per information bit at the mother rate) into
/// `out` (resized to the information bit count, including the tail),
/// reusing `ws` and `out` capacity. Requires an even, non-zero LLR
/// count. Steady state (same or smaller size as a previous call on the
/// same buffers) performs no heap allocation.
void viterbi_decode(std::span<const std::int8_t> llrs, ViterbiWorkspace& ws,
                    util::BitVec& out);

/// Convenience wrapper returning the decoded bits. Uses a thread-local
/// workspace, so repeated calls still avoid steady-state allocations of
/// the decision storage (the returned vector is the only allocation).
util::BitVec viterbi_decode(std::span<const std::int8_t> llrs);

namespace detail {

/// viterbi_decode splits every field of at least kSplitMinSteps steps
/// at step split_step(n_steps) and starts its second chain kSplitWarmup
/// steps before the split (DESIGN.md §12.1). Constants, not options.
inline constexpr std::size_t kSplitWarmup = 512;
inline constexpr std::size_t kSplitMinSteps = 2048;

/// About halfway through the steps the two chains run, (n_steps +
/// kSplitWarmup) / 2, rounded down to the renormalization period.
constexpr std::size_t split_step(std::size_t n_steps) {
  return (n_steps + kSplitWarmup) / 2 / simd::kAcsRenormPeriod *
         simd::kAcsRenormPeriod;
}

}  // namespace detail
}  // namespace witag::phy
