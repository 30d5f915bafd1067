// Traced replay: one query/block-ack exchange rebuilt stage by stage
// from public calls, with a span around every call into a layer.
//
// The stages follow core::Session::exchange in order — Client::build_ampdu
// and phy::transmit (what build_query does), the tag's trigger and
// response, the channel's CFR rebuild and application, the AP's PHY
// decode split into its front half and Viterbi, AccessPoint::receive_psdu
// and Client::subframe_outcomes — so the spans form a per-layer ledger of
// one exchange. The channel, tag device and query layout are a real
// Session's (reached through its accessors); the replay owns the client,
// AP and decoders. Fault injection is not replayed.
//
// Spans stay in memory and are written as JSON lines when the replay
// ends. Untraced replay exchanges (timed only as a whole) alternate with
// the traced ones; their difference is the tracing overhead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "channel/pathloss.hpp"
#include "mac/airtime.hpp"
#include "mac/mac_header.hpp"
#include "mac/station.hpp"
#include "phy/batch.hpp"
#include "phy/channel_est.hpp"
#include "phy/plcp.hpp"
#include "phy/ppdu.hpp"
#include "phy/scrambler.hpp"
#include "tag/envelope.hpp"
#include "tag/trigger.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "witag/query.hpp"
#include "witag/session.hpp"

namespace perfbench {
namespace {

using namespace witag;

/// In-memory span log. Every span carries its exchange id and parent
/// (0 = a root); a disabled log takes no timestamps at all.
class SpanLog {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint64_t exchange = 0;
    const char* name = "";
    double t0_us = 0.0;
    double t1_us = 0.0;
  };

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (log_.enabled) id_ = log_.open(name);
    }
    ~Scope() {
      if (id_ != 0) log_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::uint32_t id_ = 0;
  };

  bool enabled = false;
  std::uint64_t exchange = 0;

  const std::vector<Span>& spans() const { return spans_; }

  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"exchange\":" << s.exchange << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.t0_us << ",\"dur_us\":"
          << s.t1_us - s.t0_us << "}\n";
    }
  }

 private:
  static double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::uint32_t open(const char* name) {
    Span s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.exchange = exchange;
    s.name = name;
    spans_.push_back(s);
    stack_.push_back(s.id);
    spans_.back().t0_us = now_us();  // last, so set-up is not timed
    return s.id;
  }

  void close(std::uint32_t id) {
    spans_[id - 1].t1_us = now_us();
    stack_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

constexpr double kIdleNoisePrefixUs = 20.0;  // quiet air before the PPDU
constexpr std::size_t kServiceBits = 16;
constexpr std::size_t kTailBits = 6;

/// Outcome of one replayed exchange, for the checks and the counts.
struct ExchangeOutcome {
  bool staged_matches_reference = true;
  bool sig_ok = false;
  std::size_t subframes_valid = 0;
  std::size_t viterbi_bits = 0;
  double stages_us = 0.0;  ///< Host time of the exchange's stages.
};

/// One link rebuilt from a Session's parts plus a client, an AP and the
/// receive pipeline split at its public seams.
class ReplayLink {
 public:
  ReplayLink(const core::SessionConfig& cfg, double ambient_w)
      : session_(cfg),
        client_(mac::make_address(0x01), mac::make_address(0x02),
                cfg.security),
        ap_(mac::make_address(0x02), cfg.security),
        rng_(util::Rng::derive_seed(cfg.seed, 0x5E1A7ull)) {
    session_.channel().set_ambient_noise(util::Watts{ambient_w});
    // Same detector noise and client->tag amplitude the session derives.
    tag_noise_var_ =
        util::thermal_noise(util::kBandwidth20MHz, cfg.radio.temperature_k)
            .value() *
        util::db_to_linear(cfg.tag_detector_nf_db);
    const util::Meters d{channel::distance(cfg.client_pos, cfg.tag_pos)};
    const util::Db wall{cfg.plan.penetration_loss_db(cfg.client_pos,
                                                     cfg.tag_pos)};
    link_amp_ = std::abs(channel::attenuate(
                    channel::direct_gain(d, cfg.radio.carrier_hz), wall)) *
                std::sqrt(util::to_watts(cfg.radio.tx_power_dbm).value() /
                          56.0);
  }

  core::Session& session() { return session_; }

  /// Runs one exchange; spans go to `log` when it is enabled.
  ExchangeOutcome exchange(SpanLog& log) {
    const core::SessionConfig& cfg = session_.config();
    ExchangeOutcome out;
    std::vector<phy::FreqSymbol> rx;
    util::ByteVec rx_psdu;
    phy::RxConfig rx_cfg;
    rx_cfg.cpe_correction = cfg.cpe_correction;
    const double t0 = now_s();
    {
      SpanLog::Scope root(log, "witag.exchange");
      stages(log, rx, rx_psdu, rx_cfg, out);
    }
    out.stages_us = (now_s() - t0) * 1e6;
    // Reference decode outside the exchange span: the production
    // single-PPDU path must agree with the staged one bit for bit.
    SpanLog::Scope s(log, "phy.decode");
    const phy::RxResult& ref = decoder_.decode_one(rx, rx_cfg);
    if (ref.sig_ok != out.sig_ok || (ref.sig_ok && ref.psdu != rx_psdu)) {
      out.staged_matches_reference = false;
    }
    return out;
  }

  /// Tag-idle, noise-free check: the transmitted PSDU through the clean
  /// CFR must decode back to itself on both receive paths.
  bool clean_roundtrip() {
    const core::QueryLayout& layout = session_.layout();
    std::vector<util::ByteVec> payloads(layout.n_subframes);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      payloads[i].assign(layout.payload_bytes,
                         static_cast<std::uint8_t>(0x3C ^ (i & 0xFF)));
    }
    const util::ByteVec psdu = client_.build_ampdu(payloads);
    phy::TxConfig tx_cfg;
    tx_cfg.mcs_index = layout.mcs_index;
    const phy::TxPpdu ppdu = phy::transmit(psdu, tx_cfg);
    const phy::FreqSymbol h = session_.channel().cfr(false);
    std::vector<phy::FreqSymbol> rx = ppdu.symbols;
    for (auto& sym : rx) {
      for (std::size_t b = 0; b < sym.size(); ++b) sym[b] *= h[b];
    }
    SpanLog off;
    ExchangeOutcome unused;
    util::ByteVec staged;
    const phy::RxConfig rx_cfg;
    const bool ok = staged_receive(off, rx, rx_cfg, staged, unused);
    const phy::RxResult& ref = decoder_.decode_one(rx, rx_cfg);
    return ok && staged == psdu && ref.sig_ok && ref.psdu == psdu;
  }

 private:
  /// Every stage of one exchange, in Session::exchange's order.
  void stages(SpanLog& log, std::vector<phy::FreqSymbol>& rx,
              util::ByteVec& rx_psdu, const phy::RxConfig& rx_cfg,
              ExchangeOutcome& out) {
    const core::SessionConfig& cfg = session_.config();
    const core::QueryLayout& layout = session_.layout();

    // Query build (build_query): filler payloads, A-MPDU, PPDU, then the
    // trigger envelope pattern.
    std::vector<util::ByteVec> payloads(layout.n_subframes);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      payloads[i].assign(layout.payload_bytes,
                         static_cast<std::uint8_t>(0xA5 ^ (i & 0xFF)));
    }
    util::ByteVec psdu;
    {
      SpanLog::Scope s(log, "mac.build_ampdu");
      psdu = client_.build_ampdu(payloads);
    }
    phy::TxPpdu ppdu;
    {
      SpanLog::Scope s(log, "phy.transmit");
      phy::TxConfig tx_cfg;
      tx_cfg.mcs_index = layout.mcs_index;
      ppdu = phy::transmit(psdu, tx_cfg);
    }
    std::vector<double> slot_scale(ppdu.symbols.size(), 1.0);
    auto set_low = [&](unsigned subframe) {
      const std::size_t first =
          phy::kHeaderSlots +
          static_cast<std::size_t>(subframe) * layout.symbols_per_subframe;
      for (unsigned s = 0; s < layout.symbols_per_subframe; ++s) {
        slot_scale[first + s] = cfg.query.trigger_low_scale;
      }
    };
    set_low(1);
    for (unsigned k = 0; k <= layout.trigger_code; ++k) set_low(3 + k);

    // Tag: trigger detection, then the reflector plan.
    std::optional<tag::QueryTiming> timing;
    if (cfg.trigger_mode == core::TriggerMode::kEnvelope) {
      SpanLog::Scope s(log, "tag.trigger");
      timing = envelope_trigger(ppdu, slot_scale, layout);
    } else {
      timing = layout.ideal_timing();
    }
    std::vector<std::vector<std::uint8_t>> levels(1);
    if (timing) {
      SpanLog::Scope s(log, "tag.respond");
      const tag::TagDevice::Plan plan =
          session_.tag_device().respond(*timing, layout.n_data_subframes);
      levels[0] = plan.control.slot_levels(ppdu.symbols.size());
    }

    // Air.
    std::vector<phy::FreqSymbol> tx = ppdu.symbols;
    for (std::size_t s = 0; s < tx.size(); ++s) {
      if (slot_scale[s] == 1.0) continue;
      for (auto& bin : tx[s]) bin *= slot_scale[s];
    }
    channel::ChannelModel& chan = session_.channel();
    {
      // The first cfr() call after advance() rebuilds the cached CFR.
      SpanLog::Scope s(log, "channel.cfr_rebuild");
      (void)chan.cfr(false);
    }
    {
      SpanLog::Scope s(log, "channel.apply");
      rx = chan.apply_multi(tx, levels);
    }

    // AP PHY: the receive pipeline at its public seams.
    {
      SpanLog::Scope s(log, "phy.rx");
      out.sig_ok = staged_receive(log, rx, rx_cfg, rx_psdu, out);
    }

    // AP MAC, then the client reads the block ack.
    std::optional<mac::BlockAck> ba;
    if (out.sig_ok) {
      SpanLog::Scope s(log, "mac.receive_psdu");
      const auto res = ap_.receive_psdu(rx_psdu);
      out.subframes_valid = res.subframes_valid;
      ba = res.block_ack;
    }
    {
      SpanLog::Scope s(log, "mac.read_block_ack");
      const std::vector<bool> outcomes = client_.subframe_outcomes(ba);
      if (outcomes.size() != layout.n_subframes) {
        out.staged_matches_reference = false;
      }
    }

    // Airtime, then simulated time passes for the channel.
    const auto airtime = mac::ampdu_exchange(
        util::Micros{ppdu.duration_us()}, mac::expected_backoff_us());
    const util::Micros total = airtime.total_us() + cfg.inter_query_gap_us;
    {
      SpanLog::Scope s(log, "channel.advance");
      chan.advance(util::to_seconds(total * cfg.time_dilation));
    }
  }

  /// The tag's envelope front end on the rendered header + trigger
  /// region, as Session::tag_timing runs it.
  std::optional<tag::QueryTiming> envelope_trigger(
      const phy::TxPpdu& ppdu, const std::vector<double>& slot_scale,
      const core::QueryLayout& layout) {
    const std::size_t slots_needed =
        phy::kHeaderSlots +
        static_cast<std::size_t>(layout.n_trigger + 1) *
            layout.symbols_per_subframe;
    const std::size_t count = std::min(slots_needed, ppdu.symbols.size());
    const auto prefix = static_cast<std::size_t>(
        kIdleNoisePrefixUs * phy::kSampleRateHz / 1e6);
    util::CxVec samples;
    samples.reserve(prefix + count * phy::kSamplesPerSymbol);
    for (std::size_t i = 0; i < prefix; ++i) {
      samples.push_back(rng_.complex_normal(tag_noise_var_));
    }
    for (std::size_t s = 0; s < count; ++s) {
      for (const util::Cx& x : phy::to_time(ppdu.symbols[s])) {
        samples.push_back(x * slot_scale[s] * link_amp_ +
                          rng_.complex_normal(tag_noise_var_));
      }
    }
    tag::EnvelopeConfig env_cfg;
    env_cfg.sample_rate_hz = util::Hertz{phy::kSampleRateHz};
    tag::EnvelopeDetector detector(env_cfg);
    tag::Comparator comparator(env_cfg);
    const auto bits = comparator.process(detector.process(samples));
    tag::TriggerConfig trig_cfg;
    trig_cfg.n_trigger_subframes = layout.n_trigger;
    trig_cfg.accept_code = static_cast<int>(layout.trigger_code);
    auto timing = tag::detect_trigger(bits, phy::kSampleRateHz, trig_cfg);
    if (!timing) return std::nullopt;
    timing->align_edge_us -= kIdleNoisePrefixUs;
    timing->data_start_us -= kIdleNoisePrefixUs;
    return timing;
  }

  /// phy::receive's steps through its public seams: channel estimate,
  /// SIG and the data field's front half (equalize, demap, deinterleave)
  /// in one span, depuncture + Viterbi in the next, then descramble.
  bool staged_receive(SpanLog& log, const std::vector<phy::FreqSymbol>& rx,
                      const phy::RxConfig& rx_cfg, util::ByteVec& psdu,
                      ExchangeOutcome& out) {
    const std::span<const phy::FreqSymbol> syms(rx);
    phy::HtSig sig;
    std::size_t n_sym = 0;
    std::size_t field_bits = 0;
    const phy::McsParams* m = nullptr;
    {
      SpanLog::Scope s(log, "phy.rx_front");
      const phy::ChannelEstimate est =
          phy::estimate_channel(syms.subspan(phy::kStfSlots, phy::kLtfSlots));
      phy::detail::field_llrs_into(
          syms.subspan(phy::kPreambleSlots, phy::kSigSymbols), est,
          phy::Modulation::kBpsk, 0, rx_cfg.cpe_correction, scratch_);
      phy::detail::field_bits_from_llrs(phy::CodeRate::kHalf, 0, scratch_);
      const auto decoded = phy::decode_sig(scratch_.bits);
      if (!decoded || decoded->mcs_index >= phy::kNumMcs ||
          decoded->length == 0) {
        return false;
      }
      sig = *decoded;
      m = &phy::mcs(sig.mcs_index);
      n_sym = phy::data_symbols_for(sig.length, *m);
      if (syms.size() < phy::kHeaderSlots + n_sym) return false;
      field_bits = kServiceBits + 8 * sig.length + kTailBits;
      phy::detail::field_llrs_into(syms.subspan(phy::kHeaderSlots, n_sym),
                                   est, m->modulation, phy::kSigSymbols,
                                   rx_cfg.cpe_correction, scratch_);
    }
    {
      SpanLog::Scope s(log, "phy.viterbi");
      phy::detail::field_bits_from_llrs(m->rate, field_bits, scratch_);
    }
    out.viterbi_bits = field_bits;
    phy::descramble_recover_into(scratch_.bits, scratch_.plain);
    const std::span<const std::uint8_t> payload(
        scratch_.plain.data() + kServiceBits, 8 * sig.length);
    util::bits_to_bytes_into(payload, psdu);
    return true;
  }

  core::Session session_;
  mac::Client client_;
  mac::AccessPoint ap_;
  util::Rng rng_;
  phy::DecodeScratch scratch_;
  phy::BatchDecoder decoder_;
  double tag_noise_var_ = 0.0;
  double link_amp_ = 0.0;
};

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

}  // namespace

void run_replay(const core::SessionConfig& cfg, double ambient_w,
                double budget_s, std::size_t min_exchanges,
                double untraced_exchange_us, const std::string& spans_out,
                Report& report) {
  core::SessionConfig replay_cfg = cfg;
  replay_cfg.faults = {};
  ReplayLink link(replay_cfg, ambient_w);
  report.check(link.clean_roundtrip(),
               "tag-idle noise-free decode returns the transmitted PSDU");

  SpanLog log;
  std::vector<double> untraced_us;
  std::vector<double> traced_us;
  std::size_t traced = 0;
  std::size_t mismatches = 0;
  std::size_t sig_ok = 0;
  std::size_t subframes_valid = 0;
  std::size_t viterbi_bits = 0;
  const double t_end = now_s() + budget_s;
  // Warm-up: first-call scratch growth stays out of the ledger.
  for (int i = 0; i < 2; ++i) (void)link.exchange(log);
  while (traced < min_exchanges || untraced_us.size() < min_exchanges ||
         now_s() < t_end) {
    // Untraced: the same code with the span log off.
    log.enabled = false;
    const ExchangeOutcome u = link.exchange(log);
    untraced_us.push_back(u.stages_us);
    mismatches += u.staged_matches_reference ? 0 : 1;

    log.enabled = true;
    ++log.exchange;
    const ExchangeOutcome t = link.exchange(log);
    ++traced;
    traced_us.push_back(t.stages_us);
    mismatches += t.staged_matches_reference ? 0 : 1;
    sig_ok += t.sig_ok ? 1 : 0;
    subframes_valid += t.subframes_valid;
    viterbi_bits += t.viterbi_bits;
  }
  report.check(mismatches == 0,
               "staged receive matches BatchDecoder::decode_one on every "
               "replayed exchange");

  // Self time per span: its duration minus its children's.
  const auto& spans = log.spans();
  std::vector<double> child_us(spans.size() + 1, 0.0);
  for (const auto& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.t1_us - s.t0_us;
  }
  // Per-name totals over the traced exchanges (the decode_one reference
  // is a separate root and stays out of the exchange ledger).
  std::map<std::string, double> total_us;
  std::map<std::string, double> layer_self_us;
  std::vector<double> exchange_us;
  std::vector<double> attributed_us;
  for (const auto& s : spans) {
    const double dur = s.t1_us - s.t0_us;
    const double self = dur - child_us[s.id];
    const std::string name = s.name;
    total_us[name] += dur;
    if (name == "witag.exchange") {
      exchange_us.push_back(dur);
      attributed_us.push_back(child_us[s.id]);
    } else if (name != "phy.decode") {
      layer_self_us[name.substr(0, name.find('.'))] += self;
    }
  }
  const double n = static_cast<double>(traced);
  auto per_exchange = [&](const char* name) { return total_us[name] / n; };
  report.set("phy.viterbi_us", per_exchange("phy.viterbi"));
  report.set("phy.viterbi_kbits_per_exchange",
             static_cast<double>(viterbi_bits) / n / 1e3);
  report.set("phy.rx_front_us", per_exchange("phy.rx_front"));
  report.set("phy.decode_us", per_exchange("phy.decode"));
  report.set("phy.transmit_us", per_exchange("phy.transmit"));
  report.set("phy.sig_ok_frac", static_cast<double>(sig_ok) / n);
  report.set("channel.cfr_rebuild_us", per_exchange("channel.cfr_rebuild"));
  report.set("channel.apply_us", per_exchange("channel.apply"));
  report.set("tag.trigger_us", per_exchange("tag.trigger"));
  report.set("tag.respond_us", per_exchange("tag.respond"));
  report.set("mac.build_ampdu_us", per_exchange("mac.build_ampdu"));
  report.set("mac.receive_psdu_us", per_exchange("mac.receive_psdu"));
  report.set("mac.fcs_valid_frac",
             static_cast<double>(subframes_valid) /
                 (n * static_cast<double>(
                          link.session().layout().n_subframes)));
  for (const char* layer : {"phy", "channel", "tag", "mac"}) {
    report.set(std::string(layer) + ".self_us", layer_self_us[layer] / n);
  }
  report.set("witag.exchange_us", mean(exchange_us));
  report.set("witag.unattributed_us", mean(exchange_us) - mean(attributed_us));
  report.set("witag.span_coverage_frac",
             untraced_exchange_us > 0.0
                 ? quantile(attributed_us, 0.5) / untraced_exchange_us
                 : 0.0);
  const double untraced_med = quantile(untraced_us, 0.5);
  report.set("obs.tracing_overhead_frac",
             untraced_med > 0.0
                 ? quantile(traced_us, 0.5) / untraced_med - 1.0
                 : 0.0);
  if (!spans_out.empty()) log.write_jsonl(spans_out);
}

}  // namespace perfbench
