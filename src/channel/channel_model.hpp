// The composed wireless channel between one transmitter and one receiver,
// optionally carrying a WiTAG tag as a modulated reflector.
//
// The channel frequency response per OFDM subcarrier is
//
//   h(f, t, level) = a_block(t) * direct(f) + sum_static reflected_i(f)
//                  + sum_moving reflected_j(f, t)
//                  + gamma(mode, level) * tag_coupling(f)
//
// with every term following the geometric path models in pathloss.hpp.
// Transmit power is folded into the response (symbols are assumed to have
// unit average power per used subcarrier), and the additive noise is
// thermal noise over one subcarrier spacing times the receiver noise
// figure — so post-equalization SNR comes out in physical units.
//
// Time advances between PPDUs (coherence time >> A-MPDU duration, paper
// footnote 2). Within a PPDU only the tag's switch level changes, which
// is exactly WiTAG's communication mechanism.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>
#include <cstddef>

#include "channel/fading.hpp"
#include "channel/geometry.hpp"
#include "channel/tag_path.hpp"
#include "phy/ofdm.hpp"
#include "phy/simd.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace witag::channel {

struct RadioConfig {
  util::Hertz carrier_hz = util::kWifi24GHz;  ///< Channel 6.
  util::Dbm tx_power_dbm{15.0};  ///< Commodity NIC transmit power.
  util::Db noise_figure_db{7.0};
  double temperature_k = 290.0;
};

struct LinkGeometry {
  Point2 tx;
  Point2 rx;
  FloorPlan plan;
  std::vector<StaticReflector> reflectors;
};

/// Adds a default set of room reflectors around a link so the channel is
/// frequency-selective (walls/furniture specular points).
std::vector<StaticReflector> default_room_reflectors(Point2 tx, Point2 rx);

class ChannelModel {
 public:
  /// `tag` is absent for links without a tag (plain WiFi). `fading` may
  /// have n_scatterers == 0 and blocking_rate_hz == 0 for a static
  /// channel. Additional tags (multi-tag deployments) are added with
  /// add_tag(); tag index 0 is the one the single-tag API addresses.
  ChannelModel(const RadioConfig& radio, LinkGeometry geometry,
               std::optional<TagPathConfig> tag, const FadingConfig& fading,
               std::uint64_t seed);

  /// Adds another modulated reflector; returns its tag index.
  std::size_t add_tag(const TagPathConfig& tag);
  std::size_t tag_count() const { return tags_.size(); }

  /// Advances simulated time (fading evolves; the in-PPDU channel is
  /// frozen apart from the tag level).
  void advance(util::Seconds dt);

  /// Per-bin channel response (including sqrt(tx power) scaling) for a
  /// tag switch level. Unused bins are zero. `tag_asserted` is ignored
  /// when no tag is configured.
  phy::FreqSymbol cfr(bool tag_asserted) const;

  /// Complex noise variance per subcarrier sample.
  util::Watts noise_variance() const;

  /// Ambient co-channel noise floor [W per subcarrier] added on top of
  /// thermal noise — the city simulator's epoch-boundary interference
  /// hook (src/sim/): neighbouring cells' airtime raises this floor.
  /// A pure parameter change: the noise lanes draw the same normals at
  /// any variance (their count depends only on which bins carry signal
  /// or channel), so every random stream stays aligned whatever the
  /// floor (determinism contract, DESIGN.md sections 17 and 18.4).
  void set_ambient_noise(util::Watts w) { ambient_noise_w_ = w.value(); }
  util::Watts ambient_noise() const { return util::Watts{ambient_noise_w_}; }

  /// Applies the channel to a symbol timeline. `tag_level` gives tag 0's
  /// switch level during each symbol (empty = tag never asserted;
  /// otherwise size must match). Noise is drawn from the eight noise
  /// lanes (phy::simd::channel_mix_for); co-channel interference bursts
  /// (FadingConfig, drawn from the internal RNG) raise the noise on the
  /// symbols they overlap.
  std::vector<phy::FreqSymbol> apply(std::span<const phy::FreqSymbol> tx,
                                     std::span<const std::uint8_t> tag_level);

  /// Multi-tag variant: `levels_per_tag[t]` is tag t's per-symbol level
  /// schedule (empty = that tag stays deasserted). Requires
  /// levels_per_tag.size() <= tag_count().
  std::vector<phy::FreqSymbol> apply_multi(
      std::span<const phy::FreqSymbol> tx,
      std::span<const std::vector<std::uint8_t>> levels_per_tag);

  /// Like apply_multi, with an additional per-symbol noise-variance term
  /// [W per subcarrier] added on top of thermal noise and drawn
  /// interference — the hook external fault injectors (Gilbert-Elliott
  /// co-channel bursts) use to raise the floor for the symbols they
  /// cover. `extra_noise` may be empty (no extra noise, byte-identical
  /// to the plain overload) or sized to `tx`.
  std::vector<phy::FreqSymbol> apply_multi(
      std::span<const phy::FreqSymbol> tx,
      std::span<const std::vector<std::uint8_t>> levels_per_tag,
      std::span<const double> extra_noise);

  /// apply_multi into `rx`, resized to `tx` and reusing its capacity;
  /// every bin is written, the ones carrying neither signal nor channel
  /// with zero. `rx` must not alias `tx`.
  void apply_multi_into(
      std::span<const phy::FreqSymbol> tx,
      std::span<const std::vector<std::uint8_t>> levels_per_tag,
      std::span<const double> extra_noise, std::vector<phy::FreqSymbol>& rx);

  /// Mean received SNR per subcarrier with the tag deasserted.
  util::Db mean_snr_db() const;

  /// Mean over used subcarriers of |h_asserted - h_deasserted|^2 /
  /// |h_deasserted|^2 — the tag's relative channel perturbation
  /// (Figure 3's vector length, squared and normalized). Requires a tag.
  util::Db tag_perturbation_db() const;

  const LinkGeometry& geometry() const { return geometry_; }
  /// Primary tag configuration, if any.
  std::optional<TagPathConfig> tag() const;

  /// Replaces the primary tag configuration (position sweeps in
  /// benches); nullopt removes every tag.
  void set_tag(std::optional<TagPathConfig> tag);

 private:
  void rebuild_cache() const;
  /// Adds tag t's asserted delta, amp_scale * (gamma_on - gamma_off) *
  /// coupling, to the used bins of `h`.
  void add_tag_delta(std::size_t t, phy::FreqSymbol& h) const;
  /// Per-symbol extra noise variance from interference bursts over a
  /// PPDU of `n_symbols` symbols.
  std::vector<double> draw_interference(std::size_t n_symbols);

  RadioConfig radio_;
  LinkGeometry geometry_;
  std::vector<TagPathConfig> tags_;
  FadingConfig fading_cfg_;
  FadingProcess fading_;
  util::Rng rng_;
  /// The per-bin noise: eight generators split from rng_ at
  /// construction, lane 0 first.
  phy::simd::NoiseLanes noise_lanes_;
  double amp_scale_ = 1.0;  ///< sqrt(tx power per subcarrier).
  double ambient_noise_w_ = 0.0;  ///< Cross-cell interference floor [W].

  mutable bool cache_valid_ = false;
  /// Static channel (direct + reflectors + fading + every tag resting).
  mutable phy::FreqSymbol h_base_{};
  /// Unscaled direct path + room reflectors, built at direct-path loss
  /// factor static_factor_ (NaN: not yet), and each tag's two-hop
  /// coupling, rebuilt after add_tag()/set_tag().
  mutable phy::FreqSymbol h_static_{};
  mutable double static_factor_ = std::numeric_limits<double>::quiet_NaN();
  mutable bool tags_valid_ = false;
  mutable std::vector<phy::FreqSymbol> tag_coupling_;
};

}  // namespace witag::channel
