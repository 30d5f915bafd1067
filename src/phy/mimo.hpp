// 2x2 MIMO spatial multiplexing, transmit side only (802.11n style): two
// spatial streams of constellation points, each subcarrier seen through
// a 2x2 complex channel matrix.
//
// Used by the MOXcatter baseline (MOXcatter exists because per-symbol
// phase flipping breaks under MIMO), which maps symbols and applies the
// channel; no program detects the streams, so there is no receive half.
#pragma once

#include <array>
#include <span>
#include <cstdint>

#include "phy/mcs.hpp"
#include "util/complexvec.hpp"

namespace witag::phy::mimo {

inline constexpr unsigned kStreams = 2;

/// Per-subcarrier 2x2 channel matrix, row = receive antenna.
struct Matrix2 {
  std::array<std::array<util::Cx, kStreams>, kStreams> m{};
};

/// One MIMO OFDM data symbol: per-stream constellation points for the 52
/// data subcarriers (points[stream][subcarrier]).
struct MimoSymbol {
  std::array<util::CxVec, kStreams> points;
};

/// Maps two per-stream bit chunks (each 52 * n_bpsc bits) to a MIMO symbol.
MimoSymbol map_symbol(std::span<const std::uint8_t> stream0,
                      std::span<const std::uint8_t> stream1, Modulation mod);

/// Applies per-subcarrier channel matrices and returns the received
/// per-antenna points: y = H x (+ caller-added noise).
MimoSymbol apply_channel(const MimoSymbol& tx,
                         std::span<const Matrix2> h_per_subcarrier);

}  // namespace witag::phy::mimo
