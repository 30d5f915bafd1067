// Soft-decision Viterbi decoder for the 802.11 rate-1/2 mother code
// (K = 7, generators 133/171 octal). Consumes int8 LLRs in the
// demapper's convention (positive = bit 0 more likely) including the
// zero erasures inserted by depuncturing, and assumes the encoder both
// starts and ends in the all-zero state (6 zero tail bits).
//
// Two implementations, identical on integer LLRs (fuzz-tested in
// tests/test_viterbi_equiv.cpp and tests/test_simd.cpp):
//  * detail::viterbi_reference — the transition-oriented original in
//    doubles, kept as the readable specification and benchmark baseline.
//  * viterbi_decode — predecessor-oriented butterflies with int16 path
//    metrics (saturating add-compare-select, renormalized, one kernel
//    call per decode) and one decision bit per state and step in a
//    reusable ViterbiWorkspace, so steady-state decode performs zero heap
//    allocations. See DESIGN.md §12 for the correctness argument.
#pragma once

#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

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
    return decisions_.capacity() * sizeof(std::uint64_t);
  }

 private:
  friend void viterbi_decode(std::span<const std::int8_t> llrs,
                             ViterbiWorkspace& ws, util::BitVec& out);
  // Bit ns of decisions_[step] is set iff next state ns took its odd
  // predecessor ((2 * ns) & 63) + 1 at that step.
  std::vector<std::uint64_t> decisions_;
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

/// The original transition-oriented decoder (doubles, -inf pruning,
/// per-call allocations). Retained as the specification the optimized
/// path is verified against, mirroring fft_reference_inplace: on the
/// same LLRs cast to double, viterbi_decode returns exactly its bits.
util::BitVec viterbi_reference(std::span<const double> llrs);

}  // namespace detail

}  // namespace witag::phy
