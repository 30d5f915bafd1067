#include "phy/mimo.hpp"

#include <cstddef>
#include <cstdint>

#include "phy/constellation.hpp"
#include "util/require.hpp"

namespace witag::phy::mimo {

MimoSymbol map_symbol(std::span<const std::uint8_t> stream0,
                      std::span<const std::uint8_t> stream1, Modulation mod) {
  const unsigned n_bpsc = bits_per_symbol(mod);
  WITAG_REQUIRE(stream0.size() == kDataSubcarriers * n_bpsc && stream1.size() == stream0.size());
  MimoSymbol sym;
  sym.points[0] = map_bits(stream0, mod);
  sym.points[1] = map_bits(stream1, mod);
  return sym;
}

MimoSymbol apply_channel(const MimoSymbol& tx,
                         std::span<const Matrix2> h_per_subcarrier) {
  WITAG_REQUIRE(h_per_subcarrier.size() == tx.points[0].size() && tx.points[0].size() == tx.points[1].size());
  MimoSymbol rx;
  const std::size_t n = tx.points[0].size();
  rx.points[0].resize(n);
  rx.points[1].resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& h = h_per_subcarrier[k].m;
    rx.points[0][k] = h[0][0] * tx.points[0][k] + h[0][1] * tx.points[1][k];
    rx.points[1][k] = h[1][0] * tx.points[0][k] + h[1][1] * tx.points[1][k];
  }
  return rx;
}

}  // namespace witag::phy::mimo
