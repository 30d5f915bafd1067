#include "phy/constellation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <cstddef>
#include <cstdint>

#include "phy/simd.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

using util::Cx;
using util::CxVec;

// 802.11 Gray-coded PAM levels. For 16-QAM the two bits (b0 b1) select
// the I level via 00->-3, 01->-1, 11->+1, 10->+3; 64-QAM extends the
// same Gray pattern to 8 levels.
double pam2(unsigned bits) { return bits ? 1.0 : -1.0; }

double pam4(unsigned bits) {
  switch (bits & 0x3u) {
    case 0b00: return -3.0;
    case 0b01: return -1.0;
    case 0b11: return 1.0;
    default: return 3.0;  // 0b10
  }
}

double pam8(unsigned bits) {
  switch (bits & 0x7u) {
    case 0b000: return -7.0;
    case 0b001: return -5.0;
    case 0b011: return -3.0;
    case 0b010: return -1.0;
    case 0b110: return 1.0;
    case 0b111: return 3.0;
    case 0b101: return 5.0;
    default: return 7.0;  // 0b100
  }
}

// Builds the point table for a modulation; entry i is the point whose
// LSB-first bit pattern encodes i. First half of the bits selects I,
// second half selects Q (matching the standard's b0..b(N-1) split).
CxVec make_table(Modulation mod) {
  const unsigned n = bits_per_symbol(mod);
  const unsigned count = 1u << n;
  CxVec table(count);
  for (unsigned i = 0; i < count; ++i) {
    double re = 0.0;
    double im = 0.0;
    double norm = 1.0;
    switch (mod) {
      case Modulation::kBpsk:
        re = pam2(i & 1u);
        im = 0.0;
        norm = 1.0;
        break;
      case Modulation::kQpsk:
        re = pam2(i & 1u);
        im = pam2((i >> 1) & 1u);
        norm = std::sqrt(2.0);
        break;
      case Modulation::kQam16:
        re = pam4(i & 0x3u);
        im = pam4((i >> 2) & 0x3u);
        norm = std::sqrt(10.0);
        break;
      case Modulation::kQam64:
        re = pam8(i & 0x7u);
        im = pam8((i >> 3) & 0x7u);
        norm = std::sqrt(42.0);
        break;
    }
    table[i] = Cx{re / norm, im / norm};
  }
  return table;
}

const CxVec kBpskTable = make_table(Modulation::kBpsk);
const CxVec kQpskTable = make_table(Modulation::kQpsk);
const CxVec kQam16Table = make_table(Modulation::kQam16);
const CxVec kQam64Table = make_table(Modulation::kQam64);

const CxVec& table_for(Modulation mod) {
  switch (mod) {
    case Modulation::kBpsk: return kBpskTable;
    case Modulation::kQpsk: return kQpskTable;
    case Modulation::kQam16: return kQam16Table;
    case Modulation::kQam64: return kQam64Table;
  }
  WITAG_ENSURE(false);
  return kBpskTable;
}

// Per-axis view of a point table for the separable soft demap. Gray
// mapping makes the table a product set: entry i has I level
// i_levels[i & (2^i_bits - 1)] and Q level q_levels[i >> i_bits], so the
// squared distance to entry i is dI²(j) + dQ²(q). The reference's
// per-bit minimum over all entries therefore decomposes into per-axis
// minima: for an I bit, the candidate set {i : bit set} is the full
// product {j : bit set} × {all q}, rounding is monotone
// (x ≤ y ⇒ round(x) ≤ round(y)) and the joint minimizer (argmin_j,
// argmin_q) lies in the set — so min over the set of
// round(dI² + dQ²) equals round(min dI² + min dQ²) exactly, down to the
// last bit. The phy::simd demap kernels compute precisely that.
simd::DemapAxes make_axes(Modulation mod) {
  const CxVec& table = table_for(mod);
  const unsigned n = bits_per_symbol(mod);
  simd::DemapAxes ax;
  ax.n_bits = n;
  ax.i_bits = (n == 1) ? 1u : n / 2;
  ax.q_bits = n - ax.i_bits;
  for (unsigned j = 0; j < (1u << ax.i_bits); ++j) {
    ax.i_levels[j] = table[j].real();
  }
  for (unsigned q = 0; q < (1u << ax.q_bits); ++q) {
    ax.q_levels[q] = table[q << ax.i_bits].imag();  // 0.0 for BPSK
  }
  // The product holds bit for bit, signed zeros included: the transmit
  // mapping's AVX-512 kernel looks every point up as its two levels
  // (simd::TxMapPlan).
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (unsigned i = 0; i < table.size(); ++i) {
    WITAG_ENSURE(bits(table[i].real()) ==
                 bits(ax.i_levels[i & ((1u << ax.i_bits) - 1)]));
    WITAG_ENSURE(bits(table[i].imag()) == bits(ax.q_levels[i >> ax.i_bits]));
  }
  return ax;
}

}  // namespace

std::span<const Cx> constellation_points(Modulation mod) {
  return table_for(mod);
}

const simd::DemapAxes& demap_axes(Modulation mod) {
  static const std::array<simd::DemapAxes, 4> axes{
      make_axes(Modulation::kBpsk), make_axes(Modulation::kQpsk),
      make_axes(Modulation::kQam16), make_axes(Modulation::kQam64)};
  switch (mod) {
    case Modulation::kBpsk: return axes[0];
    case Modulation::kQpsk: return axes[1];
    case Modulation::kQam16: return axes[2];
    case Modulation::kQam64: return axes[3];
  }
  WITAG_ENSURE(false);
  return axes[0];
}

CxVec map_bits(std::span<const std::uint8_t> bits, Modulation mod) {
  const unsigned n = bits_per_symbol(mod);
  WITAG_REQUIRE(bits.size() % n == 0);
  const CxVec& table = table_for(mod);
  CxVec points(bits.size() / n);
  for (std::size_t p = 0; p < points.size(); ++p) {
    unsigned index = 0;
    for (unsigned b = 0; b < n; ++b) {
      index |= static_cast<unsigned>(bits[p * n + b] & 1u) << b;
    }
    points[p] = table[index];
  }
  return points;
}

util::BitVec demap_hard(std::span<const Cx> points, Modulation mod) {
  const unsigned n = bits_per_symbol(mod);
  const CxVec& table = table_for(mod);
  util::BitVec bits;
  bits.reserve(points.size() * n);
  for (const Cx& y : points) {
    unsigned best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (unsigned i = 0; i < table.size(); ++i) {
      const double d = std::norm(y - table[i]);
      if (d < best_dist) {
        best_dist = d;
        best = i;
      }
    }
    for (unsigned b = 0; b < n; ++b) {
      bits.push_back(static_cast<std::uint8_t>((best >> b) & 1u));
    }
  }
  return bits;
}

}  // namespace witag::phy
