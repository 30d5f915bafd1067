#include "witag/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <cstddef>

#include "obs/obs.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/bits.hpp"
#include "util/units.hpp"
#include "witag/rateless.hpp"

namespace witag::core {
namespace {

/// One FEC step up the robustness ladder (no step from the strongest).
/// kRateless is a fixed point: the fountain already adapts its rate
/// droplet by droplet, so there is no stronger code to jump to — the
/// learned overhead ratio absorbs what FEC escalation did for
/// repetition.
TagFec stronger_fec(TagFec fec) {
  switch (fec) {
    case TagFec::kNone:
      return TagFec::kRepetition3;
    case TagFec::kRepetition3:
    case TagFec::kHamming74:
      return TagFec::kRepetition5;
    case TagFec::kRepetition5:
      return TagFec::kRepetition5;
    case TagFec::kRateless:
      return TagFec::kRateless;
  }
  return TagFec::kRepetition5;
}

/// One FEC step back down, never below `floor`.
TagFec weaker_fec(TagFec fec, TagFec floor) {
  if (fec == floor) return fec;
  switch (fec) {
    case TagFec::kRepetition5:
      return floor == TagFec::kHamming74 ? TagFec::kHamming74
                                         : TagFec::kRepetition3;
    case TagFec::kRepetition3:
      return floor;
    case TagFec::kNone:
    case TagFec::kHamming74:
    case TagFec::kRateless:
      return fec;
  }
  return fec;
}

}  // namespace

double LinkSupervisor::Stats::goodput_kbps() const {
  const util::Micros total = airtime_us + backoff_us;
  if (total <= util::Micros{0.0}) return 0.0;
  const double bits = static_cast<double>(payload_bytes_ok * 8);
  return bits / (total.value() / 1e6) / 1e3;
}

BurstPredictor::BurstPredictor(double alpha, double skip_threshold,
                               std::size_t max_consecutive_skips)
    : alpha_(alpha),
      threshold_(skip_threshold),
      max_skips_(max_consecutive_skips) {
  WITAG_REQUIRE(alpha > 0.0 && alpha <= 1.0);
  WITAG_REQUIRE(skip_threshold > 0.0 && skip_threshold < 1.0);
  WITAG_REQUIRE(max_consecutive_skips > 0);
}

void BurstPredictor::observe(bool lost) {
  const double x = lost ? 1.0 : 0.0;
  p_loss_ += alpha_ * (x - p_loss_);
  if (prev_lost_) {
    // This transition started from a lost round: it is exactly one
    // sample of the burst-persistence statistic.
    p_continue_ += alpha_ * (x - p_continue_);
  }
  prev_lost_ = lost;
  skips_in_row_ = 0;
}

bool BurstPredictor::should_skip() {
  // Skip only while the last *observed* round was lost and bursts are
  // sticky enough that the next one probably is too. The consecutive-
  // skip cap forces a probe round that discovers the burst's end —
  // without it a persistent estimate would starve the link forever.
  if (!prev_lost_ || p_continue_ <= threshold_ ||
      skips_in_row_ >= max_skips_) {
    return false;
  }
  ++skips_in_row_;
  ++skips_total_;
  WITAG_COUNT("supervisor.skips", 1);
  // Distribution of skip-run lengths: p99 near max_consecutive_skips
  // means the cap binds (bursts outlast the patience).
  WITAG_HDR("supervisor.skip_predictions",
            static_cast<double>(skips_in_row_));
  return true;
}

LinkSupervisor::LinkSupervisor(Reader& reader, SupervisorConfig cfg)
    : reader_(reader),
      cfg_(cfg),
      payload_bytes_(cfg.payload_bytes),
      overhead_(cfg.overhead_init),
      top_mcs_(reader.session().current_mcs()),
      base_fec_(reader.fec()),
      entry_budget_(reader.config().max_rounds_per_frame) {
  WITAG_REQUIRE(cfg.payload_bytes >= cfg.min_payload_bytes);
  WITAG_REQUIRE(cfg.min_payload_bytes > 0);
  WITAG_REQUIRE(cfg.window > 0);
  WITAG_REQUIRE(cfg.escalate_fail_rate > 0.0 && cfg.escalate_fail_rate <= 1.0);
  WITAG_REQUIRE(cfg.recover_fail_rate >= 0.0 &&
                cfg.recover_fail_rate <= cfg.escalate_fail_rate);
  WITAG_REQUIRE(cfg.backoff_base_us > util::Micros{0.0});
  WITAG_REQUIRE(cfg.backoff_factor >= 1.0);
  WITAG_REQUIRE(cfg.probe_period > 0);
  WITAG_REQUIRE(cfg.overhead_alpha > 0.0 && cfg.overhead_alpha <= 1.0);
  WITAG_REQUIRE(cfg.overhead_init >= 1.0);
  if (cfg.predictive && reader.fec() == TagFec::kRateless) {
    predictor_.emplace(cfg.predict_alpha, cfg.skip_threshold,
                       cfg.max_consecutive_skips);
    reader_.set_scheduler(&*predictor_);
  }
  retune_budget();
}

LinkSupervisor::~LinkSupervisor() {
  if (predictor_) reader_.set_scheduler(nullptr);
}

unsigned LinkSupervisor::mcs() const {
  return reader_.session().current_mcs();
}

double LinkSupervisor::window_fail_rate() const {
  if (window_.empty()) return 0.0;
  std::size_t failed = 0;
  for (const bool ok : window_) failed += ok ? 0 : 1;
  return static_cast<double>(failed) / static_cast<double>(window_.size());
}

void LinkSupervisor::record_outcome(bool ok) {
  window_.push_back(ok);
  while (window_.size() > cfg_.window) window_.pop_front();
}

util::ByteVec LinkSupervisor::next_payload(unsigned address) {
  // Payload content depends only on (address, sequence), never on the
  // ladder state, so supervised and unsupervised runs move comparable
  // data.
  util::Rng rng(util::Rng::derive_seed(0x70AD'0000ull + address, sequence_));
  return rng.bytes(payload_bytes_);
}

std::size_t LinkSupervisor::expected_frame_bits(
    TagFec fec, std::size_t payload_bytes) const {
  if (fec != TagFec::kRateless) return tag_frame_bits(payload_bytes, fec);
  // A rateless delivery needs about K * overhead droplets, where the
  // overhead ratio is learned from decode feedback instead of fixed by
  // a repetition count.
  const RatelessConfig rcfg;
  const auto droplets = static_cast<std::size_t>(std::ceil(
      static_cast<double>(rateless_symbols(payload_bytes, rcfg)) *
      overhead_));
  return droplets * droplet_frame_bits(rcfg);
}

bool LinkSupervisor::frame_fits(TagFec fec, std::size_t payload_bytes) const {
  const std::size_t per_round =
      reader_.session().layout().n_data_subframes;
  // A frame must fit in well under the caller's poll budget or lost
  // rounds leave the poll no room to ever complete it: cap at 3/4.
  return expected_frame_bits(fec, payload_bytes) * 4 <=
         entry_budget_ * per_round * 3;
}

void LinkSupervisor::retune_budget() {
  // Size the per-poll budget to the frame actually in flight: twice the
  // nominal round count (hostile channels lose about half the rounds)
  // plus slack. Without this, a poll that will fail burns a budget
  // sized for the largest frame the caller ever planned — the dominant
  // airtime sink under heavy faults. For kRateless the nominal round
  // count tracks the learned overhead, so the budget tightens as the
  // channel proves cheap and relaxes as decodes get expensive.
  const std::size_t per_round =
      reader_.session().layout().n_data_subframes;
  const std::size_t frame_rounds =
      (expected_frame_bits(reader_.fec(), payload_bytes_) + per_round - 1) /
      per_round;
  const std::size_t budget =
      std::min(entry_budget_, std::max<std::size_t>(2 * frame_rounds + 2, 4));
  reader_.set_max_rounds(budget);
}

double LinkSupervisor::probe_rate_health(unsigned address) {
  constexpr int kProbeRounds = 2;  // per side; averaged so one burst
                                   // round can't fake either verdict
  Session& session = reader_.session();
  // Clean side: with the tag idle every subframe should ack.
  double clean = 0.0;
  for (int i = 0; i < kProbeRounds; ++i) {
    clean += session.probe_subframe_success();
  }
  clean /= kProbeRounds;
  // Corrupt side: the tag asserts through every data subframe; each one
  // must FCS-fail or bit 0 is unreadable at this rate. The app payload
  // is reloaded by the next deliver().
  tag::TagDevice& device = session.tag_device(session.tag_index(address));
  device.set_payload(util::BitVec(512, 0));
  double corrupt = 0.0;
  for (int i = 0; i < kProbeRounds; ++i) {
    const auto round = session.run_round_addressed(address);
    // Probes are not free: charge the corrupt round and once more as a
    // stand-in for the clean round (probe_subframe_success does not
    // report its airtime).
    stats_.airtime_us += round.airtime_us + round.airtime_us;
    if (round.lost || round.received.empty()) continue;
    std::size_t corrupted = 0;
    for (const bool b : round.received) corrupted += b ? 0 : 1;
    corrupt += static_cast<double>(corrupted) /
               static_cast<double>(round.received.size());
  }
  corrupt /= kProbeRounds;
  return std::min(clean, corrupt);
}

bool LinkSupervisor::escalate(unsigned address) {
  Session& session = reader_.session();
  // Rung 1: MCS fallback, probe-verified. WiTAG's usable rate band is
  // two-sided (see SupervisorConfig::mcs_probe_threshold), so a
  // candidate rung must pass a clean round AND an all-corrupt round
  // before the ladder steps onto it; a rejected rung is remembered —
  // corruption physics, not channel state, blocks it. Slower rates also
  // must keep a frame inside the poll budget.
  const unsigned entry = session.current_mcs();
  if (entry > cfg_.min_mcs && mcs_blocked_at_ != entry) {
    unsigned mcs = entry;
    while (mcs > cfg_.min_mcs) {
      --mcs;
      try {
        session.set_mcs(mcs);
      } catch (const std::invalid_argument&) {
        // This MCS cannot form a valid query layout; try the next one.
        continue;
      }
      if (!frame_fits(reader_.fec(), payload_bytes_) ||
          probe_rate_health(address) < cfg_.mcs_probe_threshold) {
        session.set_mcs(entry);  // entry rate was valid; restore it
        mcs_blocked_at_ = entry;
        break;
      }
      ++stats_.mcs_fallbacks;
      window_.clear();
      retune_budget();
      WITAG_COUNT("supervisor.mcs_fallbacks", 1);
      WITAG_EVENT1("supervisor.escalate_mcs", "mcs", static_cast<double>(mcs),
                   "supervisor");
      return true;
    }
  }
  // Rung 2: frame shrink. Hostile channels here lose whole rounds
  // (bursts over the PLCP, lost block acks, brownouts), so the winning
  // move is a frame short enough to complete between loss clusters —
  // measured, this beats stronger FEC at every intensity.
  if (payload_bytes_ > cfg_.min_payload_bytes) {
    payload_bytes_ = std::max(cfg_.min_payload_bytes, payload_bytes_ / 2);
    ++stats_.frame_shrinks;
    window_.clear();
    retune_budget();
    WITAG_COUNT("supervisor.frame_shrinks", 1);
    WITAG_EVENT1("supervisor.escalate_shrink", "payload_bytes",
                 static_cast<double>(payload_bytes_), "supervisor");
    return true;
  }
  // Rung 3: FEC escalation, the last resort — majority over 5 copies
  // only pays once frames are already minimal, because the extra copies
  // stretch the frame back across more rounds.
  const TagFec next = stronger_fec(reader_.fec());
  if (next != reader_.fec() && frame_fits(next, payload_bytes_)) {
    reader_.set_fec(next);
    ++stats_.fec_escalations;
    window_.clear();
    retune_budget();
    WITAG_COUNT("supervisor.fec_escalations", 1);
    WITAG_EVENT1("supervisor.escalate_fec", "fec", static_cast<double>(next),
                 "supervisor");
    return true;
  }
  return false;  // bottom of the ladder; keep grinding
}

bool LinkSupervisor::recover(unsigned address) {
  ++stats_.probes;
  WITAG_COUNT("supervisor.probes", 1);
  Session& session = reader_.session();
  // Undo degradations in reverse escalation order: FEC first (it was
  // applied last), then frame size, the rate last.
  bool stepped = false;
  if (reader_.fec() != base_fec_) {
    reader_.set_fec(weaker_fec(reader_.fec(), base_fec_));
    stepped = true;
  } else if (payload_bytes_ < cfg_.payload_bytes &&
             frame_fits(reader_.fec(),
                        std::min(cfg_.payload_bytes, payload_bytes_ * 2))) {
    payload_bytes_ = std::min(cfg_.payload_bytes, payload_bytes_ * 2);
    stepped = true;
  } else if (session.current_mcs() < top_mcs_) {
    const unsigned entry = session.current_mcs();
    try {
      session.set_mcs(entry + 1);
    } catch (const std::invalid_argument&) {
      return false;
    }
    // Stepping back up must re-pass the two-sided probe: the burst that
    // forced the fallback may still be alive.
    if (probe_rate_health(address) < cfg_.mcs_probe_threshold) {
      session.set_mcs(entry);
      return false;
    }
    mcs_blocked_at_.reset();  // the band moved; allow downward probes again
    stepped = true;
  }
  if (stepped) {
    ++stats_.recoveries;
    window_.clear();
    retune_budget();
    WITAG_COUNT("supervisor.recoveries", 1);
    WITAG_EVENT2("supervisor.recover", "mcs",
                 static_cast<double>(session.current_mcs()), "payload_bytes",
                 static_cast<double>(payload_bytes_), "supervisor");
  }
  return stepped;
}

LinkSupervisor::DeliveryResult LinkSupervisor::deliver(unsigned address) {
  WITAG_SPAN_CAT("supervisor.deliver", "supervisor");
  Session& session = reader_.session();
  const util::ByteVec payload = next_payload(address);
  // Per-delivery droplet stream seed (kRateless; ignored by classic
  // FEC): two-level derive_seed fan-out keeps every (address, sequence)
  // stream independent and worker-count invariant, and the seed-derived
  // droplet CRC salt makes any buffered droplets of the previous
  // delivery visibly stale.
  const std::uint64_t stream_seed = util::Rng::derive_seed(
      util::Rng::derive_seed(0xD2'0917ull, address), sequence_);
  ++sequence_;
  reader_.load_tag(session.tag_index(address), payload, stream_seed);

  DeliveryResult result;
  for (std::size_t attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) {
      // Capped exponential backoff: idle simulated time lets a burst or
      // brownout window expire before the retry spends airtime.
      const double scale =
          std::pow(cfg_.backoff_factor, static_cast<double>(attempt - 1));
      const util::Micros wait =
          std::min(cfg_.backoff_base_us * scale, cfg_.backoff_cap_us);
      session.idle_wait(wait);
      stats_.backoff_us += wait;
      ++result.retries;
      ++stats_.retries;
      WITAG_COUNT("supervisor.retries", 1);
      WITAG_EVENT1("supervisor.backoff", "us", wait.value(), "supervisor");
    }
    Reader::PollResult poll = reader_.poll_frame(address);
    result.rounds += poll.rounds;
    result.airtime_us += poll.airtime_us;
    result.rounds_skipped += poll.rounds_skipped;
    stats_.rounds_skipped += poll.rounds_skipped;
    result.droplets_used += poll.droplets_used;
    stats_.droplets_used += poll.droplets_used;
    if (poll.ok && reader_.fec() == TagFec::kRateless &&
        poll.k_symbols > 0) {
      // Online overhead learning: droplets this delivery consumed per
      // source symbol, folded into the EWMA that sizes future budgets.
      const double ratio = static_cast<double>(poll.droplets_used) /
                           static_cast<double>(poll.k_symbols);
      overhead_ += cfg_.overhead_alpha * (ratio - overhead_);
      static obs::Gauge& overhead_gauge =
          obs::gauge("link.rateless.overhead_ratio");
      overhead_gauge.set(overhead_);
      retune_budget();
    }
    if (poll.ok) {
      // The supervisor loaded the tag, so it can audit the content: a
      // CRC-valid frame that is not the loaded payload is a false
      // accept (CRC-8 collides ~2^-16 per offset on hostile streams)
      // and must not count as a delivery.
      if (poll.payload != payload) {
        ++stats_.false_frames;
        WITAG_COUNT("supervisor.false_frames", 1);
        continue;
      }
      result.ok = true;
      result.payload = std::move(poll.payload);
      break;
    }
  }

  stats_.airtime_us += result.airtime_us;
  record_outcome(result.ok);
  if (result.ok) {
    ++stats_.deliveries_ok;
    stats_.payload_bytes_ok += result.payload.size();
    ++ok_streak_;
    WITAG_COUNT("supervisor.deliveries_ok", 1);
    if (ok_streak_ >= cfg_.probe_period &&
        window_fail_rate() <= cfg_.recover_fail_rate) {
      ok_streak_ = 0;
      recover(address);
    }
  } else {
    ++stats_.deliveries_failed;
    ok_streak_ = 0;
    WITAG_COUNT("supervisor.deliveries_failed", 1);
    if (window_fail_rate() >= cfg_.escalate_fail_rate &&
        window_.size() >= std::min<std::size_t>(cfg_.window, 2)) {
      escalate(address);
    }
  }
  return result;
}

}  // namespace witag::core
