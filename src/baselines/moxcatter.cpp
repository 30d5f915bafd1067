#include "baselines/moxcatter.hpp"

#include <cmath>
#include <cstddef>
#include <vector>

#include "phy/constellation.hpp"
#include "phy/mimo.hpp"
#include "util/units.hpp"
#include "util/bits.hpp"

namespace witag::baselines {

MoxcatterResult run_moxcatter(const MoxcatterConfig& cfg,
                              std::size_t n_packets, util::Rng& rng) {
  MoxcatterResult result;
  if (!cfg.modified_ap) {
    result.works = false;
    result.failure = "unmodified AP drops CRC-broken backscatter packets";
    return result;
  }
  if (cfg.encrypted) {
    result.works = false;
    result.failure = "per-packet translation still corrupts ciphertext";
    return result;
  }
  const double cfo_hz = 0.006 * cfg.temperature_offset_c *
                        kChannelShiftOscillatorHz;
  if (std::abs(cfo_hz) > kReceiverCfoToleranceHz) {
    result.works = false;
    result.failure = "ring-oscillator drift pushed the shifted channel "
                     "outside the receiver's lock range";
    return result;
  }

  const BackscatterLink link =
      two_ap_link(cfg.geometry, cfg.tag_strength, cfg.carrier_hz);
  const double p_tx = util::to_watts(cfg.tx_power_dbm).value();
  const double amp = link.backscatter_amp * std::sqrt(p_tx / 112.0);  // 2 streams
  const double noise_var =
      util::thermal_noise(util::Hertz{312'500.0}).value() *
      util::db_to_linear(cfg.noise_figure_db);

  // Random 2x2 channel per packet (the backscatter hop decorrelates the
  // streams); detection integrates over the whole packet.
  for (std::size_t pkt = 0; pkt < n_packets; ++pkt) {
    const std::uint8_t tag_bit =
        static_cast<std::uint8_t>(rng.bits(1)[0] & 1u);
    const double flip = tag_bit ? -1.0 : 1.0;

    // Per-subcarrier 2x2 channels for this packet.
    std::vector<phy::mimo::Matrix2> h(phy::kDataSubcarriers);
    for (auto& m : h) {
      for (auto& row : m.m) {
        for (auto& e : row) e = rng.complex_normal(1.0);
      }
    }

    util::Cx corr{};
    for (std::size_t s = 0; s < cfg.symbols_per_packet; ++s) {
      // Known QPSK pilots on both streams (the host reconstructs the
      // clean transmission from AP1's decode).
      util::BitVec bits = rng.bits(2 * 2 * phy::kDataSubcarriers);
      phy::mimo::MimoSymbol tx = phy::mimo::map_symbol(
          std::span(bits).subspan(0, 2 * phy::kDataSubcarriers),
          std::span(bits).subspan(2 * phy::kDataSubcarriers),
          phy::Modulation::kQpsk);
      phy::mimo::MimoSymbol rx = phy::mimo::apply_channel(tx, h);
      for (unsigned stream = 0; stream < phy::mimo::kStreams; ++stream) {
        for (std::size_t k = 0; k < phy::kDataSubcarriers; ++k) {
          const util::Cx clean = rx.points[stream][k] * amp;
          const util::Cx noisy =
              clean * flip + rng.complex_normal(noise_var);
          corr += noisy * std::conj(clean);
        }
      }
    }
    const std::uint8_t detected = corr.real() < 0.0 ? 1 : 0;
    result.tag_bits += 1;
    result.bit_errors += (detected != tag_bit) ? 1 : 0;
  }
  result.ber = result.tag_bits == 0
                   ? 1.0
                   : static_cast<double>(result.bit_errors) /
                         static_cast<double>(result.tag_bits);
  result.instantaneous_rate_kbps = 1e3 / cfg.packet_airtime_us;
  return result;
}  // namespace witag::baselines

}  // namespace witag::baselines
