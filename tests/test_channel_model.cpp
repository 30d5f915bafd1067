#include "channel/channel_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "phy/ppdu.hpp"
#include "phy/simd.hpp"
#include "tiers.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace witag::channel {
namespace {

RadioConfig radio() { return RadioConfig{}; }

LinkGeometry los_link() {
  LinkGeometry geo;
  geo.tx = {0.0, 0.0};
  geo.rx = {8.0, 0.0};
  geo.reflectors = default_room_reflectors(geo.tx, geo.rx);
  return geo;
}

FadingConfig no_fading() {
  FadingConfig f;
  f.n_scatterers = 0;
  f.blocking_rate_hz = util::Hertz{0.0};
  f.interference_rate_hz = util::Hertz{0.0};
  return f;
}

TagPathConfig mid_tag() {
  return TagPathConfig{{4.0, 0.0}, 7.0, TagMode::kPhaseFlip};
}

TEST(ChannelModel, SnrIsPlausibleForEightMeterLosLink) {
  ChannelModel ch(radio(), los_link(), std::nullopt, no_fading(), 1);
  const double snr = ch.mean_snr_db().value();
  // Commodity WiFi at 8 m LOS: tens of dB.
  EXPECT_GT(snr, 35.0);
  EXPECT_LT(snr, 70.0);
}

TEST(ChannelModel, CfrIsFrequencySelective) {
  ChannelModel ch(radio(), los_link(), std::nullopt, no_fading(), 2);
  const phy::FreqSymbol h = ch.cfr(false);
  double min_mag = 1e9;
  double max_mag = 0.0;
  for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
    const double m = std::abs(h[bin]);
    if (m == 0.0) continue;
    min_mag = std::min(min_mag, m);
    max_mag = std::max(max_mag, m);
  }
  EXPECT_GT(max_mag / min_mag, 1.01);  // multipath ripple exists
}

TEST(ChannelModel, UnusedBinsAreZero) {
  ChannelModel ch(radio(), los_link(), std::nullopt, no_fading(), 3);
  const phy::FreqSymbol h = ch.cfr(false);
  EXPECT_EQ(h[0], util::Cx{});                       // DC
  EXPECT_EQ(h[phy::bin_index(29)], util::Cx{});      // beyond +28
  EXPECT_EQ(h[phy::bin_index(-29)], util::Cx{});
}

TEST(ChannelModel, TagTogglesChannel) {
  ChannelModel ch(radio(), los_link(), mid_tag(), no_fading(), 4);
  const phy::FreqSymbol off = ch.cfr(false);
  const phy::FreqSymbol on = ch.cfr(true);
  double delta = 0.0;
  for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
    delta += std::abs(on[bin] - off[bin]);
  }
  EXPECT_GT(delta, 0.0);
}

TEST(ChannelModel, NoTagMeansNoToggle) {
  ChannelModel ch(radio(), los_link(), std::nullopt, no_fading(), 5);
  const phy::FreqSymbol off = ch.cfr(false);
  const phy::FreqSymbol on = ch.cfr(true);
  for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
    EXPECT_EQ(on[bin], off[bin]);
  }
}

TEST(ChannelModel, PerturbationFollowsTagPosition) {
  // Mid-link tag perturbs least (radar 1/(Ds Dr) law).
  auto perturb_at = [&](double x) {
    TagPathConfig tag{{x, 0.0}, 7.0, TagMode::kPhaseFlip};
    ChannelModel ch(radio(), los_link(), tag, no_fading(), 6);
    return ch.tag_perturbation_db().value();
  };
  const double mid = perturb_at(4.0);
  EXPECT_GT(perturb_at(1.0), mid);
  EXPECT_GT(perturb_at(7.0), mid);
}

TEST(ChannelModel, PhaseFlipBeatsOpenShort) {
  TagPathConfig os = mid_tag();
  os.mode = TagMode::kOpenShort;
  ChannelModel ch_os(radio(), los_link(), os, no_fading(), 7);
  ChannelModel ch_pf(radio(), los_link(), mid_tag(), no_fading(), 7);
  // 2x the channel change = ~+6 dB perturbation. The normalization
  // differs slightly between modes (the phase-flip tag's resting
  // reflection is part of its baseline channel), so allow some slack.
  const double gain_db =
      ch_pf.tag_perturbation_db().value() - ch_os.tag_perturbation_db().value();
  EXPECT_GT(gain_db, 4.0);
  EXPECT_LT(gain_db, 8.0);
}

TEST(ChannelModel, AdvanceEvolvesChannelOnlyWithFading) {
  FadingConfig moving = no_fading();
  moving.n_scatterers = 3;
  ChannelModel ch(radio(), los_link(), std::nullopt, moving, 8);
  const phy::FreqSymbol before = ch.cfr(false);
  ch.advance(util::Seconds{0.5});
  const phy::FreqSymbol after = ch.cfr(false);
  double delta = 0.0;
  for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
    delta += std::abs(after[bin] - before[bin]);
  }
  EXPECT_GT(delta, 0.0);

  ChannelModel still(radio(), los_link(), std::nullopt, no_fading(), 9);
  const phy::FreqSymbol b2 = still.cfr(false);
  still.advance(util::Seconds{0.5});
  const phy::FreqSymbol a2 = still.cfr(false);
  for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
    EXPECT_EQ(a2[bin], b2[bin]);
  }
}

TEST(ChannelModel, ApplyAddsCalibratedNoise) {
  ChannelModel ch(radio(), los_link(), std::nullopt, no_fading(), 10);
  // Send zero symbols: output is pure noise with the advertised variance.
  std::vector<phy::FreqSymbol> tx(200);
  const auto rx = ch.apply(tx, {});
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& sym : rx) {
    for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
      const auto k = bin < 32 ? static_cast<int>(bin)
                              : static_cast<int>(bin) - 64;
      if (k == 0 || k < -28 || k > 28) continue;
      acc += std::norm(sym[bin]);
      ++n;
    }
  }
  EXPECT_NEAR(acc / static_cast<double>(n), ch.noise_variance().value(),
              ch.noise_variance().value() * 0.1);
}

TEST(ChannelModel, ApplyRespectsTagLevels) {
  ChannelModel ch(radio(), los_link(), mid_tag(), no_fading(), 11);
  // Unit impulses on one subcarrier over 2 symbols, tag asserted on the
  // second only.
  std::vector<phy::FreqSymbol> tx(2);
  const unsigned bin = phy::bin_index(7);
  tx[0][bin] = util::Cx{1.0, 0.0};
  tx[1][bin] = util::Cx{1.0, 0.0};
  const std::vector<std::uint8_t> levels{0, 1};
  const auto rx = ch.apply(tx, levels);
  const util::Cx expected_off = ch.cfr(false)[bin];
  const util::Cx expected_on = ch.cfr(true)[bin];
  // Noise floor is ~120 dB below signal here, so direct compare works.
  EXPECT_NEAR(std::abs(rx[0][bin] - expected_off), 0.0,
              std::abs(expected_off) * 1e-2);
  EXPECT_NEAR(std::abs(rx[1][bin] - expected_on), 0.0,
              std::abs(expected_on) * 1e-2);
  EXPECT_GT(std::abs(rx[1][bin] - rx[0][bin]), 0.0);
}

TEST(ChannelModel, InterferenceRaisesSymbolNoise) {
  FadingConfig noisy = no_fading();
  noisy.interference_rate_hz = util::Hertz{1e6};  // essentially always on
  noisy.interference_mean_us = util::Micros{1000.0};
  noisy.interference_power_dbm = util::Dbm{-50.0};
  ChannelModel ch(radio(), los_link(), std::nullopt, noisy, 12);
  std::vector<phy::FreqSymbol> tx(50);
  const auto rx = ch.apply(tx, {});
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& sym : rx) {
    for (unsigned bin = 1; bin < 29; ++bin) {
      acc += std::norm(sym[bin]);
      ++n;
    }
  }
  EXPECT_GT(acc / static_cast<double>(n), ch.noise_variance().value() * 100.0);
}

TEST(ChannelModel, SetTagInvalidatesCache) {
  ChannelModel ch(radio(), los_link(), mid_tag(), no_fading(), 13);
  const util::Db before = ch.tag_perturbation_db();
  TagPathConfig close{{1.0, 0.0}, 7.0, TagMode::kPhaseFlip};
  ch.set_tag(close);
  EXPECT_GT(ch.tag_perturbation_db(), before);
  ch.set_tag(std::nullopt);
  EXPECT_THROW(ch.tag_perturbation_db(), std::invalid_argument);
}

// Oracle for ChannelModel::cfr: every path's gains laid over the used
// bins from scratch, with the path-loss formulas written out here so the
// check does not run the code it checks. A path's phase is linear in the
// subcarrier: its gain at the carrier (amplitude and wall-loss factors
// folded in) and the rotation of one subcarrier spacing are two polar()
// calls, and the gains walk outward from DC by complex multiplies. With
// `polar_per_bin`, each bin's gain is instead its own polar() call, the
// exact phase the recurrence approximates.
using util::Cx;

void add_path_gains(phy::FreqSymbol& h, double amp, double path_m,
                    util::Hertz fc, bool polar_per_bin) {
  const double coeff = -2.0 * util::kPi * path_m;
  const Cx step = std::polar(1.0, coeff * 312'500.0 / util::kSpeedOfLight);
  Cx up = std::polar(amp, coeff * fc.value() / util::kSpeedOfLight);
  Cx down = up;
  for (int k = 1; k <= 28; ++k) {
    up *= step;
    down *= std::conj(step);
    if (polar_per_bin) {
      const auto at = [&](int sc) {
        const double f = fc.value() + sc * 312'500.0;
        return std::polar(amp, coeff * f / util::kSpeedOfLight);
      };
      up = at(k);
      down = at(-k);
    }
    h[phy::bin_index(k)] += up;
    h[phy::bin_index(-k)] += down;
  }
}

double wall_factor(double loss_db) { return std::pow(10.0, -loss_db / 20.0); }

void add_two_hop(phy::FreqSymbol& h, Point2 via, double strength, Point2 tx,
                 Point2 rx, const FloorPlan& plan, util::Hertz fc,
                 bool polar_per_bin) {
  const double ds = distance(tx, via);
  const double dr = distance(via, rx);
  const double lambda = util::wavelength(fc).value();
  const double amp = strength * lambda * lambda /
                     (std::pow(4.0 * util::kPi, 1.5) * ds * dr);
  add_path_gains(h,
                 amp * (wall_factor(plan.penetration_loss_db(tx, via)) *
                        wall_factor(plan.penetration_loss_db(via, rx))),
                 ds + dr, fc, polar_per_bin);
}

struct PerBinCfr {
  phy::FreqSymbol base{};
  std::vector<phy::FreqSymbol> delta;
};

PerBinCfr per_bin_cfr(const RadioConfig& radio, const LinkGeometry& geo,
                      const FadingProcess& fading,
                      const std::vector<TagPathConfig>& tags,
                      bool polar_per_bin = false) {
  const util::Hertz fc = radio.carrier_hz;
  const double amp_scale =
      std::sqrt(util::to_watts(radio.tx_power_dbm).value() / 56);
  const util::Db direct_loss =
      util::Db{geo.plan.penetration_loss_db(geo.tx, geo.rx)} +
      fading.direct_excess_loss_db();
  const double d_direct = distance(geo.tx, geo.rx);
  const double lambda = util::wavelength(fc).value();
  phy::FreqSymbol h{};
  add_path_gains(h,
                 lambda / (4.0 * util::kPi * d_direct) *
                     wall_factor(direct_loss.value()),
                 d_direct, fc, polar_per_bin);
  for (const StaticReflector& r : geo.reflectors) {
    add_two_hop(h, r.position, r.strength, geo.tx, geo.rx, geo.plan, fc,
                polar_per_bin);
  }
  for (const StaticReflector& r : fading.scatterers()) {
    add_two_hop(h, r.position, r.strength, geo.tx, geo.rx, geo.plan, fc,
                polar_per_bin);
  }
  PerBinCfr out;
  out.delta.assign(tags.size(), phy::FreqSymbol{});
  for (std::size_t t = 0; t < tags.size(); ++t) {
    phy::FreqSymbol coupling{};
    add_two_hop(coupling, tags[t].position, tags[t].strength, geo.tx, geo.rx,
                geo.plan, fc, polar_per_bin);
    for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
      if (coupling[bin] == Cx{}) continue;
      h[bin] += tag_gamma(tags[t].mode, false) * coupling[bin];
      out.delta[t][bin] = amp_scale *
                          (tag_gamma(tags[t].mode, true) -
                           tag_gamma(tags[t].mode, false)) *
                          coupling[bin];
    }
  }
  for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
    if (h[bin] != Cx{}) out.base[bin] = amp_scale * h[bin];
  }
  return out;
}

void expect_bit_exact(const phy::FreqSymbol& got, const phy::FreqSymbol& want,
                      const char* what, int advances) {
  for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
    EXPECT_EQ(got[bin].real(), want[bin].real())
        << what << " bin " << bin << " after " << advances << " advances";
    EXPECT_EQ(got[bin].imag(), want[bin].imag())
        << what << " bin " << bin << " after " << advances << " advances";
  }
}

TEST(ChannelModel, CfrMatchesPerBinPathLoopBitExact) {
  // Figure-4 location B: the direct path, every room reflector and both
  // tags cross walls, so both wall-loss factors of the two-hop paths are
  // exercised (their order matters in the last bit).
  const TestbedLayout layout = figure4_testbed();
  LinkGeometry geo;
  geo.tx = layout.location_b;
  geo.rx = layout.ap;
  geo.plan = layout.plan;
  geo.reflectors = default_room_reflectors(geo.tx, geo.rx);
  const std::vector<TagPathConfig> tags{
      {{6.5, 2.0}, 7.0, TagMode::kPhaseFlip},
      {{3.5, 4.5}, 5.0, TagMode::kOpenShort}};
  ASSERT_GT(geo.plan.penetration_loss_db(geo.tx, geo.rx), 0.0);
  for (const StaticReflector& r : geo.reflectors) {
    ASSERT_GT(geo.plan.penetration_loss_db(geo.tx, r.position) +
                  geo.plan.penetration_loss_db(r.position, geo.rx),
              0.0);
  }
  for (const TagPathConfig& tag : tags) {
    ASSERT_GT(geo.plan.penetration_loss_db(geo.tx, tag.position), 0.0);
    ASSERT_GT(geo.plan.penetration_loss_db(tag.position, geo.rx), 0.0);
  }

  // The default 3 moving scatterers, with blocking frequent enough that
  // the direct path toggles between blocked and clear across the run,
  // so the model's cached direct-plus-reflector sum is rebuilt both ways.
  FadingConfig fading;
  ASSERT_EQ(fading.n_scatterers, 3u);
  fading.blocking_rate_hz = util::Hertz{1.0};
  fading.blocking_mean_s = util::Seconds{0.5};
  const std::uint64_t seed = 21;
  ChannelModel ch(radio(), geo, tags[0], fading, seed);
  ASSERT_EQ(ch.add_tag(tags[1]), 1u);
  // The model's fading process, replayed in step from the same seed.
  FadingProcess replay(fading, util::Rng(seed));

  const auto expect_cfr = [&](const std::vector<TagPathConfig>& want_tags,
                              const char* what, int advances) {
    const PerBinCfr want = per_bin_cfr(radio(), geo, replay, want_tags);
    expect_bit_exact(ch.cfr(false), want.base, what, advances);
    // The recurrence stays within 1e-12 of per-bin phases.
    const PerBinCfr exact = per_bin_cfr(radio(), geo, replay, want_tags,
                                        /*polar_per_bin=*/true);
    for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
      EXPECT_LE(std::abs(want.base[bin] - exact.base[bin]),
                1e-12 * std::abs(exact.base[bin]))
          << what << " bin " << bin << " after " << advances << " advances";
    }
    phy::FreqSymbol asserted = want.base;
    for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
      asserted[bin] += want.delta[0][bin];
    }
    expect_bit_exact(ch.cfr(true), asserted, what, advances);
  };
  int blocked = 0;
  int clear = 0;
  for (int advances = 0; advances <= 12; ++advances) {
    if (advances > 0) {
      ch.advance(util::Seconds{0.7});
      replay.advance(util::Seconds{0.7});
    }
    ++(replay.direct_excess_loss_db().value() > 0.0 ? blocked : clear);
    expect_cfr(tags, "cfr", advances);
  }
  EXPECT_GE(blocked, 1);
  EXPECT_GE(clear, 1);

  // Moving tag 0 rebuilds the tag terms.
  std::vector<TagPathConfig> moved = tags;
  moved[0].position = {5.0, 3.0};
  ch.set_tag(moved[0]);
  expect_cfr(moved, "cfr after set_tag", 12);
}

TEST(ChannelModel, ApplyMultiIntoOverwritesEveryBinOfAReusedTimeline) {
  // Two channels in the same state: one writes a fresh timeline, the
  // other into a longer one full of garbage, as a reused buffer would be.
  ChannelModel fresh(radio(), los_link(), mid_tag(), no_fading(), 15);
  ChannelModel reused(radio(), los_link(), mid_tag(), no_fading(), 15);
  util::Rng rng(16);
  const phy::TxPpdu ppdu = phy::transmit(rng.bytes(120), phy::TxConfig{});
  const std::vector<std::vector<std::uint8_t>> levels{
      std::vector<std::uint8_t>(ppdu.size(), 1)};
  std::vector<phy::FreqSymbol> rx(ppdu.size() + 7);
  for (auto& symbol : rx) symbol.fill(util::Cx{3.0, -5.0});
  reused.apply_multi_into(ppdu.symbols, levels, {}, rx);
  const auto want = fresh.apply_multi(ppdu.symbols, levels, {});
  ASSERT_EQ(rx.size(), want.size());
  for (std::size_t s = 0; s < rx.size(); ++s) {
    for (unsigned bin = 0; bin < phy::kFftSize; ++bin) {
      ASSERT_EQ(rx[s][bin], want[s][bin]) << "symbol " << s << " bin " << bin;
    }
  }
}

// A link_long-sized timeline: one 6,656-byte MCS5 PSDU (64 subframes,
// 262 symbols), the tag toggling every few symbols, interference bursts
// on, and extra noise on a third of the symbols. Every tier gives the
// scalar tier's output bit for bit, over two applies in a row (the
// second starts from the lanes the first left).
TEST(ChannelModel, ApplyMultiIntoEveryTierBitIdentical) {
  util::Rng rng(0x11AB);
  phy::TxConfig cfg;
  cfg.mcs_index = 5;
  const phy::TxPpdu ppdu = phy::transmit(rng.bytes(6656), cfg);
  ASSERT_EQ(ppdu.size(), 262u);
  std::vector<std::vector<std::uint8_t>> levels{
      std::vector<std::uint8_t>(ppdu.size())};
  std::vector<double> extra(ppdu.size(), 0.0);
  for (std::size_t s = 0; s < ppdu.size(); ++s) {
    levels[0][s] = static_cast<std::uint8_t>((s / 3) % 2);
    if (s % 3 == 1) extra[s] = rng.uniform(0.0, 1e-10);
  }
  FadingConfig fading;  // three scatterers, blocking, interference
  fading.interference_rate_hz = util::Hertz{2e3};
  const auto run = [&](phy::simd::Tier t) {
    const phy::simd::ScopedTier pin(t);
    ChannelModel ch(radio(), los_link(), mid_tag(), fading, 31);
    std::vector<phy::FreqSymbol> rx;
    std::vector<phy::FreqSymbol> out;
    for (int round = 0; round < 2; ++round) {
      ch.apply_multi_into(ppdu.symbols, levels, extra, rx);
      out.insert(out.end(), rx.begin(), rx.end());
      ch.advance(util::Seconds{0.01});
    }
    return out;
  };
  const std::vector<phy::FreqSymbol> want = run(phy::simd::Tier::kScalar);
  for (const phy::simd::Tier t : test::runnable_tiers()) {
    const std::vector<phy::FreqSymbol> got = run(t);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      ASSERT_EQ(std::memcmp(got[s].data(), want[s].data(), sizeof got[s]), 0)
          << phy::simd::tier_name(t) << " symbol " << s;
    }
  }
}

// The ambient floor scales the noise and draws nothing: after one apply
// at two different floors the channels' streams (the noise lanes and the
// burst RNG) stand at the same place, so a second apply at equal floors
// gives equal outputs.
TEST(ChannelModel, NoiseStreamsIndependentOfAmbientFloor) {
  util::Rng rng(0x11AC);
  const phy::TxPpdu ppdu = phy::transmit(rng.bytes(600), phy::TxConfig{});
  FadingConfig fading = no_fading();
  fading.interference_rate_hz = util::Hertz{2e3};
  ChannelModel quiet(radio(), los_link(), mid_tag(), fading, 32);
  ChannelModel loud(radio(), los_link(), mid_tag(), fading, 32);
  loud.set_ambient_noise(util::Watts{1e-9});
  const auto a = quiet.apply(ppdu.symbols, {});
  const auto b = loud.apply(ppdu.symbols, {});
  EXPECT_NE(a[3][5], b[3][5]);
  loud.set_ambient_noise(util::Watts{0.0});
  const auto a2 = quiet.apply(ppdu.symbols, {});
  const auto b2 = loud.apply(ppdu.symbols, {});
  ASSERT_EQ(a2.size(), b2.size());
  for (std::size_t s = 0; s < a2.size(); ++s) {
    ASSERT_EQ(std::memcmp(a2[s].data(), b2[s].data(), sizeof a2[s]), 0)
        << "symbol " << s;
  }
}

// The noise's seeding and draw order, written out: the channel RNG is
// Rng(seed).split(), the eight lanes are its next eight splits in lane
// order, and each symbol's active bins (those with h or tx nonzero)
// take two lane normals each from ceil(2n / 8) whole groups. A symbol
// with a signal on DC (h = 0 there) has 57 active bins: 114 draws, a
// partial 15th group whose last six draws are dropped.
TEST(ChannelModel, NoiseLanesSplitFromChannelRngInLaneOrder) {
  const std::uint64_t seed = 33;
  ChannelModel ch(radio(), los_link(), std::nullopt, no_fading(), seed);
  util::Rng root = util::Rng(seed).split();
  phy::simd::NoiseLanes lanes;
  for (util::Rng& lane : lanes) lane = root.split();

  util::Rng rng(0x11AD);
  std::vector<phy::FreqSymbol> tx(6);
  for (std::size_t s = 0; s < tx.size(); ++s) {
    for (int k = -28; k <= 28; ++k) {
      if (k != 0) tx[s][phy::bin_index(k)] = rng.complex_normal(1.0);
    }
  }
  tx[2][0] = util::Cx{0.5, -0.25};
  const phy::FreqSymbol h = ch.cfr(false);
  const double sigma = std::sqrt(ch.noise_variance().value() / 2.0);
  const auto rx = ch.apply(tx, {});
  for (std::size_t s = 0; s < tx.size(); ++s) {
    std::vector<unsigned> active;
    for (unsigned b = 0; b < phy::kFftSize; ++b) {
      if (h[b] != util::Cx{} || tx[s][b] != util::Cx{}) active.push_back(b);
    }
    ASSERT_EQ(active.size(), s == 2 ? 57u : 56u);
    std::vector<double> z((2 * active.size() + 7) / 8 * 8);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] = lanes[i % 8].normal();
    for (std::size_t k = 0; k < active.size(); ++k) {
      const unsigned b = active[k];
      const double hr = h[b].real();
      const double hi = h[b].imag();
      const double tr = tx[s][b].real();
      const double ti = tx[s][b].imag();
      EXPECT_EQ(rx[s][b].real(), (hr * tr - hi * ti) + sigma * z[2 * k])
          << "symbol " << s << " bin " << b;
      EXPECT_EQ(rx[s][b].imag(), (hr * ti + hi * tr) + sigma * z[2 * k + 1])
          << "symbol " << s << " bin " << b;
    }
  }
}

TEST(ChannelModel, ApplyChecksLevelSize) {
  ChannelModel ch(radio(), los_link(), mid_tag(), no_fading(), 14);
  std::vector<phy::FreqSymbol> tx(3);
  const std::vector<std::uint8_t> levels{0, 1};
  EXPECT_THROW(ch.apply(tx, levels), std::invalid_argument);
}

}  // namespace
}  // namespace witag::channel
