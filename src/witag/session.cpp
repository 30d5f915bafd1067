#include "witag/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>
#include <cstddef>

#include "channel/pathloss.hpp"
#include "obs/obs.hpp"
#include "mac/airtime.hpp"
#include "phy/ofdm.hpp"
#include "phy/ppdu.hpp"
#include "tag/envelope.hpp"
#include "util/complexvec.hpp"
#include "util/require.hpp"
#include "util/units.hpp"

namespace witag::core {
namespace {

constexpr double kIdleNoisePrefixUs = 20.0;  // quiet air before the PPDU

// Every buffer of an exchange whose size grows with the PPDU, one set per
// thread like phy::transmit's workspace: each grows to the largest
// exchange the thread has run and is then reused by every Session on that
// thread. A city worker runs hundreds of sessions round-robin, so a
// per-Session copy would be paid once per session and stay cold between
// its exchanges. Nothing in here outlives the exchange that filled it.
struct ExchangeWorkspace {
  QueryFrame frame;                    ///< The query and its tx timeline.
  std::vector<phy::FreqSymbol> rx;     ///< The channel's received timeline.
  phy::DecodeScratch decode;
  phy::RxResult decoded;
  util::CxVec rendered;   ///< Header + trigger region at 20 Msps.
  util::CxVec fft_work;   ///< to_time_into's transform buffer.
  util::CxVec heard;      ///< `rendered` as one tag hears it, with noise.
  std::vector<double> envelope;
  std::vector<std::uint8_t> comparator_bits;
};

ExchangeWorkspace& exchange_workspace() {
  thread_local ExchangeWorkspace ws;
  return ws;
}

}  // namespace

Session::Session(SessionConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      // The fault sub-streams hang off a dedicated derived seed so the
      // schedule is a pure function of (plan, session seed) and never
      // perturbs — or is perturbed by — the session's own draws.
      faults_(cfg_.faults, util::Rng::derive_seed(cfg_.seed, 0xFA017ull)),
      client_(mac::make_address(0x01), mac::make_address(0x02),
              cfg_.security),
      ap_(mac::make_address(0x02), cfg_.security) {
  channel::LinkGeometry geo;
  geo.tx = cfg_.client_pos;
  geo.rx = cfg_.ap_pos;
  geo.plan = cfg_.plan;
  geo.reflectors = cfg_.reflectors.empty()
                       ? channel::default_room_reflectors(geo.tx, geo.rx)
                       : cfg_.reflectors;

  channel::TagPathConfig tag_path;
  tag_path.position = cfg_.tag_pos;
  tag_path.strength = cfg_.tag_strength;
  tag_path.mode = cfg_.tag_mode;

  channel_ = std::make_unique<channel::ChannelModel>(
      cfg_.radio, std::move(geo), tag_path, cfg_.fading, rng_.next_u64());

  // Primary tag.
  tags_.push_back(TagUnit{tag::TagDevice(cfg_.tag_device), cfg_.tag_address,
                          link_amp_to(cfg_.tag_pos)});
  // Extra tags share the primary's device configuration.
  for (const auto& extra : cfg_.extra_tags) {
    channel::TagPathConfig path;
    path.position = extra.position;
    path.strength = extra.strength;
    path.mode = cfg_.tag_mode;
    channel_->add_tag(path);
    tags_.push_back(TagUnit{tag::TagDevice(cfg_.tag_device), extra.address,
                            link_amp_to(extra.position)});
  }

  tag_noise_var_ =
      util::thermal_noise(util::kBandwidth20MHz, cfg_.radio.temperature_k)
          .value() *
      util::db_to_linear(cfg_.tag_detector_nf_db);

  layout_ = plan_query(cfg_.query, cfg_.query.mcs_index, cfg_.security.mode,
                       util::Micros{tags_[0].device.clock().tick_period_us()},
                       util::Micros{cfg_.tag_device.guard_us});

  // Default payloads: deterministic pseudo-random bits per tag.
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    tags_[t].device.set_payload(
        util::Rng(cfg_.seed ^ (0x7461677331ull + t)).bits(4096));
  }
}

double Session::link_amp_to(channel::Point2 tag_pos) const {
  const util::Meters d{channel::distance(cfg_.client_pos, tag_pos)};
  const util::Db wall_loss{
      cfg_.plan.penetration_loss_db(cfg_.client_pos, tag_pos)};
  const double gain = std::abs(channel::attenuate(
      channel::direct_gain(d, cfg_.radio.carrier_hz), wall_loss));
  return gain *
         std::sqrt(util::to_watts(cfg_.radio.tx_power_dbm).value() / 56.0);
}

util::Micros Session::draw_backoff_us() {
  return mac::kSlotUs * static_cast<double>(rng_.uniform_int(mac::kCwMin + 1));
}

std::size_t Session::tag_index(unsigned address) const {
  for (std::size_t t = 0; t < tags_.size(); ++t) {
    if (tags_[t].address == address) return t;
  }
  util::require(false, "Session::tag_index: no tag carries this address");
  return 0;
}

const QueryLayout& Session::layout_for(unsigned address) {
  if (address == cfg_.query.trigger_code) return layout_;
  if (layout_cache_.size() <= address) layout_cache_.resize(address + 1);
  if (!layout_cache_[address]) {
    QueryConfig qcfg = cfg_.query;
    qcfg.trigger_code = address;
    qcfg.n_trigger = std::max(qcfg.n_trigger, 5 + address);
    // layout_.mcs_index tracks set_mcs()'s choice.
    layout_cache_[address] =
        plan_query(qcfg, layout_.mcs_index, cfg_.security.mode,
                   util::Micros{tags_[0].device.clock().tick_period_us()},
                   util::Micros{cfg_.tag_device.guard_us});
  }
  return *layout_cache_[address];
}

std::optional<tag::QueryTiming> Session::tag_timing(
    const QueryFrame& frame, const TagUnit& unit,
    std::span<const util::Cx> rendered) {
  if (cfg_.trigger_mode == TriggerMode::kIdeal) {
    // A real tag only reacts to queries carrying its address; the ideal
    // mode applies the same filter without the envelope render.
    if (frame.layout.trigger_code != unit.address) return std::nullopt;
    return frame.layout.ideal_timing();
  }

  // Envelope path: scale the pre-rendered header + trigger region as
  // seen by this tag (flat client->tag gain), run the envelope detector
  // + comparator + correlator with the tag's address filter.
  const std::size_t prefix =
      static_cast<std::size_t>(kIdleNoisePrefixUs * phy::kSampleRateHz / 1e6);

  ExchangeWorkspace& ws = exchange_workspace();
  util::CxVec& heard = ws.heard;
  heard.clear();
  heard.reserve(prefix + rendered.size());
  // Per-axis deviation of the detector's input noise, once per render;
  // each sample adds sigma times two normals, real part first, as
  // Rng::complex_normal(tag_noise_var_) would.
  const double sigma = std::sqrt(tag_noise_var_ / 2.0);
  const auto noise = [&] {
    const double re = sigma * rng_.normal();
    return util::Cx{re, sigma * rng_.normal()};
  };
  for (std::size_t i = 0; i < prefix; ++i) heard.push_back(noise());
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    const double scale = frame.slot_scale[i / phy::kSamplesPerSymbol];
    heard.push_back(rendered[i] * scale * unit.link_amp + noise());
  }

  tag::EnvelopeConfig env_cfg;
  env_cfg.sample_rate_hz = util::Hertz{phy::kSampleRateHz};
  tag::EnvelopeDetector detector(env_cfg);
  tag::Comparator comparator(env_cfg);
  detector.process_into(heard, ws.envelope);
  comparator.process_into(ws.envelope, ws.comparator_bits);

  tag::TriggerConfig trig_cfg;
  trig_cfg.n_trigger_subframes = frame.layout.n_trigger;
  trig_cfg.accept_code = static_cast<int>(unit.address);
  auto timing =
      tag::detect_trigger(ws.comparator_bits, phy::kSampleRateHz, trig_cfg);
  if (!timing) return std::nullopt;
  // Re-reference from stream start to PPDU start.
  timing->align_edge_us -= kIdleNoisePrefixUs;
  timing->data_start_us -= kIdleNoisePrefixUs;
  return timing;
}

Session::RoundResult Session::exchange(bool tag_active, unsigned address) {
  WITAG_COUNT("session.exchanges", 1);
  ExchangeWorkspace& ws = exchange_workspace();
  QueryFrame& frame = ws.frame;
  build_query_into(layout_for(address), client_,
                   cfg_.query.trigger_low_scale, frame);

  RoundResult result;

  // Fault hook 1 (per-round draws, fixed order): MAC fate, brownout
  // state and the clock walk are drawn before anything depends on them,
  // so the schedule never shifts with round outcomes.
  faults::MacFault mac_fault;
  faults::ClockFault clock_fault;
  bool browned_out = false;
  if (faults_.active()) {
    mac_fault = faults_.draw_mac_fault();
    browned_out = tag_active && faults_.brownout_now();
    if (browned_out) {
      ++faults_.counts().brownout_rounds;
      WITAG_COUNT("faults.brownout_rounds", 1);
      WITAG_EVENT("faults.brownout", "faults");
    }
    if (tag_active) {
      clock_fault = faults_.draw_clock_fault();
      for (auto& unit : tags_) {
        unit.device.set_clock_drift(clock_fault.drift_frac);
      }
    }
  }

  // Tag side: every tag hears the query; each plans its own schedule
  // (only the addressed one should detect/respond).
  std::vector<std::vector<std::uint8_t>> levels(tags_.size());
  bool addressed_tag_heard = false;
  if (tag_active) {
    // The tag stage, one span per exchange: the render, each tag's
    // trigger detection and fault draws, and its response plan (the
    // `tag.respond` span nests inside).
    WITAG_SPAN_CAT("tag.trigger", "tag");
    // One time-domain render of the header + trigger region, shared by
    // every tag's envelope detector (hoisted out of tag_timing: the
    // per-tag link gain applies per sample, not per render).
    ws.rendered.clear();
    if (cfg_.trigger_mode == TriggerMode::kEnvelope) {
      const std::size_t slots_needed =
          phy::kHeaderSlots +
          static_cast<std::size_t>(frame.layout.n_trigger + 1) *
              frame.layout.symbols_per_subframe;
      const std::size_t count =
          std::min(slots_needed, frame.ppdu.symbols.size());
      ws.rendered.resize(count * phy::kSamplesPerSymbol);
      for (std::size_t s = 0; s < count; ++s) {
        phy::to_time_into(frame.ppdu.symbols[s], ws.fft_work,
                          std::span(ws.rendered)
                              .subspan(s * phy::kSamplesPerSymbol,
                                       phy::kSamplesPerSymbol));
      }
    }
    for (std::size_t t = 0; t < tags_.size(); ++t) {
      auto timing = tag_timing(frame, tags_[t], ws.rendered);
      // Fault hook 2 (trigger + clock): exactly one trigger-stream draw
      // per tag per round, then brownout vetoes any response.
      if (faults_.active()) {
        if (tags_[t].address == address) {
          const bool miss = faults_.draw_trigger_miss();
          if (miss && timing) {
            timing.reset();
            ++faults_.counts().triggers_suppressed;
            WITAG_COUNT("faults.triggers_suppressed", 1);
            WITAG_EVENT("faults.trigger_suppressed", "faults");
          }
        } else {
          const bool wake = faults_.draw_false_wakeup();
          if (wake && !timing && !browned_out) {
            // The foreign tag convinces itself the query was its own:
            // it answers with its payload over the same data region.
            timing = frame.layout.ideal_timing();
            ++faults_.counts().false_wakeups;
            WITAG_COUNT("faults.false_wakeups", 1);
            WITAG_EVENT("faults.false_wakeup", "faults");
          }
        }
        if (browned_out) timing.reset();
        if (timing) {
          timing->align_edge_us += clock_fault.jitter_us;
          timing->data_start_us += clock_fault.jitter_us;
        }
      }
      if (!timing) continue;
      tag::TagDevice::Plan plan =
          tags_[t].device.respond(*timing, frame.layout.n_data_subframes);
      levels[t] = plan.control.slot_levels(frame.ppdu.symbols.size());
      if (tags_[t].address == address) {
        result.sent = std::move(plan.bits);
        addressed_tag_heard = true;
      }
    }
    if (!addressed_tag_heard) {
      result.trigger_detected = false;
      result.lost = true;
      WITAG_COUNT("session.triggers_missed", 1);
      WITAG_EVENT("session.trigger_missed", "session");
    } else {
      WITAG_EVENT("session.trigger_detected", "session");
    }
  }

  // Air: per-symbol channel application with the trigger envelope scale,
  // applied in place; nothing reads the unscaled timeline after.
  const util::Micros ppdu_us{frame.ppdu.duration_us()};
  std::vector<phy::FreqSymbol>& tx = frame.ppdu.symbols;
  for (std::size_t s = 0; s < tx.size(); ++s) {
    if (frame.slot_scale[s] == 1.0) continue;
    for (auto& bin : tx[s]) bin *= frame.slot_scale[s];
  }

  // Fault hook 3 (MAC abort): the client's transmitter cuts out
  // mid-A-MPDU — the PHY header still goes out, but symbols past the cut
  // never hit the air, so their subframes FCS-fail at the AP.
  if (faults_.active() && mac_fault.abort_ampdu) {
    const auto keep = std::max<std::size_t>(
        phy::kHeaderSlots,
        static_cast<std::size_t>(mac_fault.abort_frac *
                                 static_cast<double>(tx.size())));
    if (keep < tx.size()) {
      for (std::size_t s = keep; s < tx.size(); ++s) tx[s] = phy::FreqSymbol{};
      ++faults_.counts().ampdu_aborted;
      WITAG_COUNT("faults.ampdu_aborted", 1);
      WITAG_EVENT1("faults.ampdu_abort", "kept_symbols",
                   static_cast<double>(keep), "faults");
    }
  }

  // Fault hook 4 (interference): the Gilbert-Elliott chain walks the
  // PPDU symbol by symbol; Bad-state symbols get the burst power added
  // to their noise floor inside the channel.
  std::vector<double> extra_noise;
  if (faults_.active()) {
    const std::uint64_t before = faults_.counts().interference_symbols;
    extra_noise = faults_.interference_noise(tx.size());
    const std::uint64_t hit = faults_.counts().interference_symbols - before;
    if (hit > 0) {
      WITAG_COUNT("faults.interference_symbols", hit);
      WITAG_EVENT1("faults.interference", "symbols",
                   static_cast<double>(hit), "faults");
    }
  }
  channel_->apply_multi_into(tx, levels, extra_noise, ws.rx);

  // AP side: PHY receive, deaggregate, FCS-check, block ack.
  phy::RxConfig rx_cfg;
  rx_cfg.cpe_correction = cfg_.cpe_correction;
  phy::receive_into(ws.rx, rx_cfg, ws.decode, ws.decoded);
  const phy::RxResult& rx = ws.decoded;

  std::optional<mac::BlockAck> ba;
  if (rx.sig_ok) {
    const auto psdu_result = ap_.receive_psdu(rx.psdu);
    result.subframes_valid = psdu_result.subframes_valid;
    ba = psdu_result.block_ack;
  }

  // Fault hook 5 (block ack): the BA dies on the return path, or its
  // bitmap tail is lost — trailing subframes then read as unacked, i.e.
  // as tag zeros, regardless of what the tag did.
  if (faults_.active() && ba) {
    if (mac_fault.lose_ba) {
      ba.reset();
      ++faults_.counts().ba_lost;
      WITAG_COUNT("faults.ba_lost", 1);
      WITAG_EVENT("faults.ba_lost", "faults");
    } else if (mac_fault.truncate_ba) {
      const auto keep = static_cast<unsigned>(mac_fault.truncate_frac * 64.0);
      ba->bitmap &= keep >= 64 ? ~0ull : (std::uint64_t{1} << keep) - 1;
      ++faults_.counts().ba_truncated;
      WITAG_COUNT("faults.ba_truncated", 1);
      WITAG_EVENT1("faults.ba_truncated", "kept_bits",
                   static_cast<double>(keep), "faults");
    }
  }
  if (ba) {
    WITAG_COUNT("session.blockacks_decoded", 1);
    WITAG_EVENT1("session.blockack_decoded", "subframes_valid",
                 static_cast<double>(result.subframes_valid), "session");
  } else {
    WITAG_COUNT("session.blockacks_lost", 1);
    WITAG_EVENT("session.blockack_lost", "session");
  }

  // Client side: read the tag bits out of the block ack.
  const auto outcomes = client_.subframe_outcomes(ba);
  result.received.assign(
      outcomes.begin() + frame.layout.n_trigger, outcomes.end());
  if (!ba) result.lost = true;

  // Airtime accounting for the exchange.
  const auto airtime = mac::ampdu_exchange(ppdu_us, draw_backoff_us());
  result.airtime_us = airtime.total_us() + cfg_.inter_query_gap_us;

  // Simulated airtime, not wall time: identical across --jobs, so the
  // exported latency quantiles stay deterministic.
  WITAG_HDR("session.latency_us", result.airtime_us.value());
  // Channel and fault processes share one simulated clock: brownout
  // windows and interference sojourns elapse with the same dilated
  // airtime the fading does.
  const util::Seconds dt =
      util::to_seconds(result.airtime_us * cfg_.time_dilation);
  channel_->advance(dt);
  faults_.advance(dt);
  return result;
}

Session::RoundResult Session::run_round() {
  WITAG_SPAN_CAT("session.round", "session");
  WITAG_COUNT("session.rounds", 1);
  return exchange(true, cfg_.query.trigger_code);
}

Session::RoundResult Session::run_round_addressed(unsigned address) {
  WITAG_SPAN_CAT("session.round", "session");
  WITAG_COUNT("session.rounds", 1);
  return exchange(true, address);
}

double Session::probe_subframe_success() {
  WITAG_SPAN_CAT("session.probe", "session");
  const RoundResult r = exchange(false, cfg_.query.trigger_code);
  std::size_t ok = 0;
  for (const bool b : r.received) ok += b ? 1 : 0;
  if (r.received.empty()) return 0.0;
  return static_cast<double>(ok) / static_cast<double>(r.received.size());
}

void Session::set_mcs(unsigned mcs) {
  // plan_query throws (and nothing is assigned) when the MCS cannot
  // carry a valid query, so the current layout survives a bad request.
  layout_ = plan_query(cfg_.query, mcs, cfg_.security.mode,
                       util::Micros{tags_[0].device.clock().tick_period_us()},
                       util::Micros{cfg_.tag_device.guard_us});
  layout_cache_.clear();  // cached layouts used the old MCS
  WITAG_COUNT("session.set_mcs", 1);
  WITAG_EVENT1("session.set_mcs", "mcs", static_cast<double>(mcs), "session");
}

util::Micros Session::skip_round(unsigned address) {
  WITAG_COUNT("session.rounds_skipped", 1);
  WITAG_EVENT("session.round_skipped", "session");
  const QueryLayout& layout = layout_for(address);
  // The PPDU the client would have sent: header region plus every
  // subframe slot. Using the layout (not a built frame) keeps the skip
  // allocation-free and rng-free.
  const util::Micros ppdu_us =
      layout.subframes_start_us() +
      static_cast<double>(layout.n_subframes) * layout.subframe_duration_us();
  const auto airtime =
      mac::ampdu_exchange(ppdu_us, mac::expected_backoff_us());
  const util::Micros total = airtime.total_us() + cfg_.inter_query_gap_us;
  const util::Seconds dt = util::to_seconds(total * cfg_.time_dilation);
  channel_->advance(dt);
  faults_.advance(dt);
  return total;
}

void Session::idle_wait(util::Micros us) {
  WITAG_REQUIRE(us >= util::Micros{0.0});
  WITAG_COUNT("session.idle_wait.calls", 1);
  WITAG_EVENT1("session.idle_wait", "us", us.value(), "session");
  const util::Seconds dt = util::to_seconds(us * cfg_.time_dilation);
  channel_->advance(dt);
  faults_.advance(dt);
}

Session::RunStats Session::run(std::size_t rounds) {
  WITAG_SPAN_CAT("session.run", "session");
  RunStats stats;
  for (std::size_t i = 0; i < rounds; ++i) {
    const RoundResult r = run_round();
    if (!r.trigger_detected) ++stats.triggers_missed;
    if (r.lost) {
      stats.metrics.record_round(r.sent, {}, true, r.airtime_us);
    } else {
      stats.metrics.record_round(r.sent, r.received, false, r.airtime_us);
    }
    // One instant per scheduled tag bit so a trace shows exactly which
    // subframe flipped: ok = 1 delivered, 0 flipped, -1 round lost.
    if (obs::trace_enabled()) {
      for (std::size_t b = 0; b < r.sent.size(); ++b) {
        const bool sent_one = (r.sent[b] & 1u) != 0;
        const double ok =
            r.lost ? -1.0 : (r.received[b] == sent_one ? 1.0 : 0.0);
        obs::instant_arg2("session.subframe", "index",
                          static_cast<double>(b), "ok", ok, "session");
      }
    }
  }
  stats.mean_snr_db = channel_->mean_snr_db();
  stats.tag_perturbation_db = channel_->tag_perturbation_db();
  return stats;
}

}  // namespace witag::core
