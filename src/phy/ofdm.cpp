#include "phy/ofdm.hpp"

#include <algorithm>
#include <cstddef>

#include "obs/obs.hpp"
#include "phy/fft.hpp"
#include "phy/scrambler.hpp"
#include "util/require.hpp"

namespace witag::phy {
namespace {

using util::Cx;

constexpr std::array<int, kNumPilots> kPilots{-21, -7, 7, 21};
constexpr std::array<double, kNumPilots> kPilotBase{1.0, 1.0, 1.0, -1.0};

std::array<int, 52> make_data_subcarriers() {
  std::array<int, 52> out{};
  std::size_t idx = 0;
  for (int k = -28; k <= 28; ++k) {
    if (k == 0) continue;
    if (std::find(kPilots.begin(), kPilots.end(), k) != kPilots.end()) continue;
    out[idx++] = k;
  }
  return out;
}

const std::array<int, 52> kDataSc = make_data_subcarriers();

// FFT bins of the data and pilot subcarriers, in logical order.
template <std::size_t N>
std::array<unsigned, N> bins_of(const std::array<int, N>& subcarriers) {
  std::array<unsigned, N> bins{};
  for (std::size_t i = 0; i < N; ++i) bins[i] = bin_index(subcarriers[i]);
  return bins;
}

const std::array<unsigned, 52> kDataBins = bins_of(kDataSc);
const std::array<unsigned, kNumPilots> kPilotBins = bins_of(kPilots);

}  // namespace

unsigned bin_index(int subcarrier) {
  WITAG_REQUIRE(subcarrier >= -32 && subcarrier <= 31);
  return subcarrier >= 0 ? static_cast<unsigned>(subcarrier)
                         : static_cast<unsigned>(subcarrier + 64);
}

std::span<const int> data_subcarriers() { return kDataSc; }

std::span<const int> pilot_subcarriers() { return kPilots; }

std::array<Cx, kNumPilots> pilot_values(std::size_t symbol_index) {
  const auto& polarity = pilot_polarity_sequence();
  const int p = polarity[(symbol_index + 1) % polarity.size()];
  std::array<Cx, kNumPilots> out{};
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    out[i] = Cx{kPilotBase[i] * p, 0.0};
  }
  return out;
}

std::span<const unsigned> data_bins() { return kDataBins; }

void set_pilots(FreqSymbol& symbol, std::size_t symbol_index) {
  const auto pilots = pilot_values(symbol_index);
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    symbol[kPilotBins[i]] = pilots[i];
  }
}

FreqSymbol assemble_data_symbol(std::span<const Cx> points,
                                std::size_t symbol_index) {
  WITAG_REQUIRE(points.size() == kDataBins.size());
  FreqSymbol symbol{};
  for (std::size_t i = 0; i < kDataBins.size(); ++i) {
    symbol[kDataBins[i]] = points[i];
  }
  set_pilots(symbol, symbol_index);
  return symbol;
}

util::CxVec extract_data(const FreqSymbol& symbol) {
  util::CxVec out(kDataBins.size());
  for (std::size_t i = 0; i < kDataBins.size(); ++i) {
    out[i] = symbol[kDataBins[i]];
  }
  return out;
}

std::array<Cx, kNumPilots> extract_pilots(const FreqSymbol& symbol) {
  std::array<Cx, kNumPilots> out{};
  for (std::size_t i = 0; i < kNumPilots; ++i) {
    out[i] = symbol[kPilotBins[i]];
  }
  return out;
}

util::CxVec to_time(const FreqSymbol& symbol) {
  util::CxVec work;
  util::CxVec samples(kSamplesPerSymbol);
  to_time_into(symbol, work, samples);
  return samples;
}

void to_time_into(const FreqSymbol& symbol, util::CxVec& work,
                  std::span<Cx> out) {
  WITAG_COUNT("phy.ofdm.to_time.calls", 1);
  WITAG_REQUIRE(out.size() == kSamplesPerSymbol);
  work.assign(symbol.begin(), symbol.end());
  ifft_inplace(work);
  // Cyclic prefix: last kCpLen samples first.
  std::copy(work.end() - kCpLen, work.end(), out.begin());
  std::copy(work.begin(), work.end(), out.begin() + kCpLen);
}

}  // namespace witag::phy
