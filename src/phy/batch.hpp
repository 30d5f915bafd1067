// A single-PPDU decoder: one DecodeScratch and one reused RxResult
// around phy::receive_into(), the one receive pipeline. Only the
// end-to-end benchmark's staged replay (perfbench/replay.cpp), which
// checks itself against decode_one(), and the tests still use it:
// witag::Session decodes through its per-thread exchange workspace
// (session.cpp) instead. This header goes when the benchmark's traced
// mode runs the real Session and its replay is deleted.
//
// The name is historical: this class once decoded several PPDUs in
// lockstep lanes over structure-of-arrays staging, which cost as much
// per PPDU as receive() and held ~150 KB per session (DESIGN.md §14.3).
//
// Both buffers are grow-only, so steady-state decode allocates nothing;
// receive_into() counts each decode that grew nothing in
// `phy.decode.scratch_reuses`.
#pragma once

#include <cstddef>
#include <span>

#include "phy/ppdu.hpp"

namespace witag::phy {

class BatchDecoder {
 public:
  /// Decodes one PPDU (the layout receive() expects). The returned
  /// result stays valid until the next decode_one() call.
  const RxResult& decode_one(std::span<const FreqSymbol> symbols,
                             const RxConfig& cfg) {
    receive_into(symbols, cfg, scratch_, result_);
    return result_;
  }

  /// Heap bytes reserved by the scratch and the reused result's PSDU.
  std::size_t capacity_bytes() const {
    return scratch_.capacity_bytes() + result_.psdu.capacity();
  }

 private:
  DecodeScratch scratch_;
  RxResult result_;
};

}  // namespace witag::phy
