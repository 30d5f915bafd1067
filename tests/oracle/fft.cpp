#include <bit>
#include <cmath>
#include <cstddef>
#include <utility>

#include "oracle/oracle.hpp"
#include "util/require.hpp"
#include "util/units.hpp"

namespace witag::oracle {

using util::Cx;

void fft_reference_inplace(std::span<Cx> data, bool inverse) {
  const std::size_t n = data.size();
  WITAG_REQUIRE(n >= 1 && std::has_single_bit(n));
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * util::kPi / static_cast<double>(len);
    const Cx wlen{std::cos(angle), std::sin(angle)};
    for (std::size_t i = 0; i < n; i += len) {
      Cx w{1.0, 0.0};
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cx u = data[i + k];
        const Cx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  const double scale = 1.0 / std::sqrt(static_cast<double>(n));
  for (Cx& x : data) x *= scale;
}

}  // namespace witag::oracle
