#include "channel/channel_model.hpp"

#include <array>
#include <cmath>
#include <cstddef>

#include "channel/pathloss.hpp"
#include "obs/obs.hpp"
#include "phy/simd.hpp"
#include "util/require.hpp"
#include "util/units.hpp"

namespace witag::channel {
namespace {

using util::Cx;

/// Subcarrier spacing of the 20 MHz OFDM PHY.
constexpr util::Hertz kSubcarrierSpacing{312'500.0};

/// Number of used subcarriers (52 data + 4 pilots).
constexpr unsigned kUsedSubcarriers = 56;

// The used FFT bins (subcarriers -28..-1 and 1..28) in bin order.
const std::array<unsigned, kUsedSubcarriers>& used_bins() {
  static const std::array<unsigned, kUsedSubcarriers> kBins = [] {
    std::array<unsigned, kUsedSubcarriers> bins{};
    std::size_t n = 0;
    for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
      const int k =
          bin < 32 ? static_cast<int>(bin) : static_cast<int>(bin) - 64;
      if (k != 0 && k >= -28 && k <= 28) bins[n++] = bin;
    }
    return bins;
  }();
  return kBins;
}

// Adds `factor` times a path's gain to every used bin of `h`. The phase
// is linear in the subcarrier, so two polar() calls give the gain at the
// carrier and the rotation of one subcarrier spacing, and complex
// multiplies walk outward from DC: bin k holds subcarrier +k and bin
// 64 - k subcarrier -k. Every path the CFR sums goes through here.
void add_path(phy::FreqSymbol& h, const PathTerms& terms, double factor,
              util::Hertz fc) {
  const double coeff = terms.phase_coeff;
  const Cx step =
      std::polar(1.0, coeff * kSubcarrierSpacing.value() / util::kSpeedOfLight);
  const Cx step_down = std::conj(step);
  Cx up = std::polar(terms.amp * factor,
                     coeff * fc.value() / util::kSpeedOfLight);
  Cx down = up;
  for (unsigned k = 1; k <= kUsedSubcarriers / 2; ++k) {
    up *= step;
    down *= step_down;
    h[k] += up;
    h[phy::kFftSize - k] += down;
  }
}

}  // namespace

std::vector<StaticReflector> default_room_reflectors(Point2 tx, Point2 rx) {
  // Specular points roughly where walls/furniture would sit relative to
  // the link: offset to the sides and beyond each endpoint. Strengths are
  // modest so the direct path dominates (Rician-like channel) but the
  // response stays frequency-selective across the 20 MHz band.
  const Point2 mid{(tx.x + rx.x) / 2.0, (tx.y + rx.y) / 2.0};
  return {
      {{mid.x + 1.1, mid.y + 2.7}, 3.0},   // side wall
      {{mid.x - 0.8, mid.y - 3.1}, 2.5},   // opposite wall
      {{tx.x + 1.4, tx.y - 1.9}, 2.0},     // furniture near tx
      {{rx.x - 1.6, rx.y + 1.3}, 2.0},     // furniture near rx
      {{mid.x + 4.2, mid.y + 0.9}, 1.5},   // far cabinet
  };
}

ChannelModel::ChannelModel(const RadioConfig& radio, LinkGeometry geometry,
                           std::optional<TagPathConfig> tag,
                           const FadingConfig& fading, std::uint64_t seed)
    : radio_(radio),
      geometry_(std::move(geometry)),
      fading_cfg_(fading),
      fading_(fading, util::Rng(seed)),
      rng_(util::Rng(seed).split()) {
  for (util::Rng& lane : noise_lanes_) lane = rng_.split();
  if (tag) tags_.push_back(*tag);
  const util::Watts p_tx = util::to_watts(radio_.tx_power_dbm);
  amp_scale_ = std::sqrt(p_tx.value() / kUsedSubcarriers);
}

std::size_t ChannelModel::add_tag(const TagPathConfig& tag) {
  tags_.push_back(tag);
  cache_valid_ = false;
  tags_valid_ = false;
  return tags_.size() - 1;
}

void ChannelModel::advance(util::Seconds dt) {
  WITAG_COUNT("channel.advance.calls", 1);
  WITAG_EVENT1("channel.advance", "dt_s", dt.value());
  fading_.advance(dt);
  cache_valid_ = false;
}

std::optional<TagPathConfig> ChannelModel::tag() const {
  if (tags_.empty()) return std::nullopt;
  return tags_.front();
}

void ChannelModel::set_tag(std::optional<TagPathConfig> tag) {
  if (!tag) {
    tags_.clear();
  } else if (tags_.empty()) {
    tags_.push_back(*tag);
  } else {
    tags_.front() = *tag;
  }
  cache_valid_ = false;
  tags_valid_ = false;
}

void ChannelModel::rebuild_cache() const {
  WITAG_SPAN_CAT("channel.cfr_rebuild", "channel");
  WITAG_COUNT("channel.cfr_rebuild.calls", 1);
  WITAG_EVENT("channel.estimate_invalidated");
  const util::Hertz fc = radio_.carrier_hz;
  const Point2 tx = geometry_.tx;
  const Point2 rx = geometry_.rx;
  const util::Db direct_loss =
      util::Db{geometry_.plan.penetration_loss_db(tx, rx)} +
      fading_.direct_excess_loss_db();

  // Each path's distances, amplitude and wall-loss factors are computed
  // once here, and add_path lays its gain over the used bins. Every bin
  // sums the paths in the same order (direct, room reflectors,
  // scatterers, tags). Only the scatterers move: the direct-plus-
  // reflector prefix is recomputed when the direct path's loss factor
  // changes (blocked or clear), and each tag's coupling when the tags do.
  const auto add_paths = [&](phy::FreqSymbol& h,
                             std::span<const StaticReflector> paths) {
    for (const StaticReflector& r : paths) {
      const TwoHopPath path =
          two_hop_path(tx, r.position, rx, r.strength, geometry_.plan, fc);
      add_path(h, path.terms, path.loss_in * path.loss_out, fc);
    }
  };
  const double direct_factor = loss_factor(direct_loss);
  if (direct_factor != static_factor_) {
    h_static_ = {};
    add_path(h_static_, direct_terms(util::Meters{distance(tx, rx)}, fc),
             direct_factor, fc);
    add_paths(h_static_, geometry_.reflectors);
    static_factor_ = direct_factor;
  }
  if (!tags_valid_) {
    tag_coupling_.assign(tags_.size(), phy::FreqSymbol{});
    for (std::size_t t = 0; t < tags_.size(); ++t) {
      const TagPathConfig& tag = tags_[t];
      const TwoHopPath path =
          two_hop_path(tx, tag.position, rx, tag.strength, geometry_.plan, fc);
      add_path(tag_coupling_[t], path.terms, path.loss_in * path.loss_out,
               fc);
    }
    tags_valid_ = true;
  }
  h_base_ = h_static_;
  add_paths(h_base_, fading_.scatterers());
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    const Cx gamma_off = tag_gamma(tags_[t].mode, false);
    for (const unsigned bin : used_bins()) {
      h_base_[bin] += gamma_off * tag_coupling_[t][bin];
    }
  }
  for (const unsigned bin : used_bins()) {
    h_base_[bin] = amp_scale_ * h_base_[bin];
  }
  cache_valid_ = true;
}

void ChannelModel::add_tag_delta(std::size_t t, phy::FreqSymbol& h) const {
  const Cx delta_gamma =
      tag_gamma(tags_[t].mode, true) - tag_gamma(tags_[t].mode, false);
  for (const unsigned bin : used_bins()) {
    h[bin] += amp_scale_ * delta_gamma * tag_coupling_[t][bin];
  }
}

phy::FreqSymbol ChannelModel::cfr(bool tag_asserted) const {
  if (!cache_valid_) rebuild_cache();
  phy::FreqSymbol h = h_base_;
  if (tag_asserted && !tags_.empty()) add_tag_delta(0, h);
  return h;
}

util::Watts ChannelModel::noise_variance() const {
  return util::Watts{
      (util::thermal_noise(kSubcarrierSpacing, radio_.temperature_k) *
       util::db_to_linear(radio_.noise_figure_db))
          .value() +
      ambient_noise_w_};
}

std::vector<double> ChannelModel::draw_interference(std::size_t n_symbols) {
  std::vector<double> extra(n_symbols, 0.0);
  if (fading_cfg_.interference_rate_hz <= util::Hertz{0.0}) return extra;
  const double sym_us = 4.0;
  const double ppdu_us = static_cast<double>(n_symbols) * sym_us;
  const double mean_us = fading_cfg_.interference_mean_us.value();
  // Bursts that started up to one mean duration before the PPDU can
  // still overlap it.
  const double window_s =
      util::to_seconds(util::Micros{ppdu_us + mean_us}).value();
  const unsigned bursts =
      rng_.poisson(fading_cfg_.interference_rate_hz.value() * window_s);
  if (bursts == 0) return extra;
  const double power =
      util::to_watts(fading_cfg_.interference_power_dbm).value();
  // The interferer's 20 MHz energy spreads over all 64 bins.
  const double per_subcarrier = power / 64.0;
  for (unsigned b = 0; b < bursts; ++b) {
    const double start = rng_.uniform(-mean_us, ppdu_us);
    double u = rng_.uniform();
    while (u <= 0.0) u = rng_.uniform();
    const double duration = -mean_us * std::log(u);
    const auto first = static_cast<std::size_t>(
        std::max(0.0, std::floor(start / sym_us)));
    const auto last = static_cast<std::size_t>(
        std::max(0.0, std::ceil((start + duration) / sym_us)));
    for (std::size_t s = first; s < std::min(last, n_symbols); ++s) {
      extra[s] += per_subcarrier;
    }
  }
  return extra;
}

std::vector<phy::FreqSymbol> ChannelModel::apply(
    std::span<const phy::FreqSymbol> tx,
    std::span<const std::uint8_t> tag_level) {
  WITAG_REQUIRE(tag_level.empty() || tag_level.size() == tx.size());
  std::vector<std::vector<std::uint8_t>> levels;
  if (!tag_level.empty()) {
    levels.emplace_back(tag_level.begin(), tag_level.end());
  }
  return apply_multi(tx, levels);
}

std::vector<phy::FreqSymbol> ChannelModel::apply_multi(
    std::span<const phy::FreqSymbol> tx,
    std::span<const std::vector<std::uint8_t>> levels_per_tag) {
  return apply_multi(tx, levels_per_tag, {});
}

std::vector<phy::FreqSymbol> ChannelModel::apply_multi(
    std::span<const phy::FreqSymbol> tx,
    std::span<const std::vector<std::uint8_t>> levels_per_tag,
    std::span<const double> extra_noise) {
  std::vector<phy::FreqSymbol> rx;
  apply_multi_into(tx, levels_per_tag, extra_noise, rx);
  return rx;
}

void ChannelModel::apply_multi_into(
    std::span<const phy::FreqSymbol> tx,
    std::span<const std::vector<std::uint8_t>> levels_per_tag,
    std::span<const double> extra_noise, std::vector<phy::FreqSymbol>& rx) {
  WITAG_SPAN_CAT("channel.apply", "channel");
  WITAG_COUNT("channel.apply.calls", 1);
  WITAG_COUNT("channel.apply.symbols", tx.size());
  WITAG_REQUIRE(levels_per_tag.size() <= tags_.size() || (tags_.empty() && levels_per_tag.empty()));
  for (const auto& row : levels_per_tag) {
    WITAG_REQUIRE(row.empty() || row.size() == tx.size());
  }
  WITAG_REQUIRE(levels_per_tag.size() <= 64);
  WITAG_REQUIRE(extra_noise.empty() || extra_noise.size() == tx.size());
  if (!cache_valid_) rebuild_cache();
  const double noise_var = noise_variance().value();
  const std::vector<double> interference = draw_interference(tx.size());

  // Compose the channel once per distinct tag-assert mask instead of
  // once per symbol: across a query only a handful of masks occur (no
  // tag asserted, one tag asserted, ...), so the 64-bin delta adds hoist
  // out of the symbol loop. Mask 0 is pre-seeded with the base CFR.
  std::vector<std::uint64_t> composed_masks{0};
  std::vector<phy::FreqSymbol> composed{h_base_};

  const phy::simd::ChannelMixFn mix =
      phy::simd::channel_mix_for(phy::simd::active_tier());
  rx.resize(tx.size());
  for (std::size_t s = 0; s < tx.size(); ++s) {
    std::uint64_t mask = 0;
    for (std::size_t t = 0; t < levels_per_tag.size(); ++t) {
      const auto& row = levels_per_tag[t];
      if (!row.empty() && (row[s] & 1u) != 0) mask |= std::uint64_t{1} << t;
    }
    std::size_t slot = 0;
    while (slot < composed_masks.size() && composed_masks[slot] != mask) {
      ++slot;
    }
    if (slot == composed_masks.size()) {
      phy::FreqSymbol h = h_base_;
      for (std::size_t t = 0; t < levels_per_tag.size(); ++t) {
        if ((mask >> t & 1u) != 0) add_tag_delta(t, h);
      }
      composed_masks.push_back(mask);
      composed.push_back(h);
    }
    const phy::FreqSymbol& h = composed[slot];
    const double var = noise_var + interference[s] +
                       (extra_noise.empty() ? 0.0 : extra_noise[s]);
    WITAG_REQUIRE(var >= 0.0);
    // Per-axis deviation of the circular complex Gaussian noise, once per
    // symbol. Every bin carrying signal or channel gets h * tx plus
    // sigma times two lane normals (real part first); every other bin
    // reads 0, whatever `rx` held before.
    mix(noise_lanes_, h, tx[s], std::sqrt(var / 2.0), rx[s]);
  }
}

util::Db ChannelModel::mean_snr_db() const {
  if (!cache_valid_) rebuild_cache();
  double acc = 0.0;
  for (const unsigned bin : used_bins()) acc += std::norm(h_base_[bin]);
  return util::linear_to_db(acc / kUsedSubcarriers /
                            noise_variance().value());
}

util::Db ChannelModel::tag_perturbation_db() const {
  WITAG_REQUIRE(!tags_.empty());
  if (!cache_valid_) rebuild_cache();
  phy::FreqSymbol delta{};
  add_tag_delta(0, delta);
  double acc = 0.0;
  unsigned used = 0;
  for (const unsigned bin : used_bins()) {
    const double denom = std::norm(h_base_[bin]);
    if (denom <= 0.0) continue;
    acc += std::norm(delta[bin]) / denom;
    ++used;
  }
  return util::linear_to_db(acc / used);
}

}  // namespace witag::channel
