// Adaptive link supervision: graceful degradation under hostile channels.
//
// The paper's reader picks a rate once (section 4.1) and then trusts the
// channel. The LinkSupervisor closes the loop: it watches the decoded-
// frame error rate over a sliding window and walks a degradation ladder
// when the link sours — MCS fallback first (longer subframes tolerate
// clock drift and raise per-subcarrier energy against interference),
// then FEC escalation (kRepetition3 -> kRepetition5), then frame
// shrinking (shorter frames need fewer consecutive good rounds). Failed
// polls are retried with capped exponential backoff, which spends
// simulated idle time — exactly what outlasts an interference burst or a
// harvester brownout. A periodic probe poll at the next-better rung
// recovers the ladder when the channel heals.
//
// Determinism: the supervisor adds no randomness of its own; every
// decision is a pure function of poll outcomes, so a (config, seed) pair
// reproduces the identical escalation history.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <cstddef>

#include "witag/reader.hpp"
#include "util/bits.hpp"
#include "util/units.hpp"

namespace witag::core {

struct SupervisorConfig {
  /// Application payload carried per frame at the top of the ladder
  /// [bytes]; frame shrinking halves this (never below
  /// min_payload_bytes).
  std::size_t payload_bytes = 8;
  std::size_t min_payload_bytes = 2;

  /// Sliding window of recent poll outcomes the health estimate uses.
  std::size_t window = 8;
  /// Escalate when more than this fraction of the window failed.
  double escalate_fail_rate = 0.5;
  /// Probe recovery only when the window is at least this healthy.
  double recover_fail_rate = 0.125;

  /// Lowest MCS the fallback may reach (MCS 0 = BPSK 1/2).
  unsigned min_mcs = 0;
  /// An MCS rung is accepted only when probe rounds show clean
  /// subframes passing AND the tag's corruption still failing FCS at at
  /// least this rate. WiTAG's link breaks in both directions: too fast
  /// and noise corrupts idle subframes, too slow and the decoder rides
  /// through the tag's perturbation (bit 0 reads as 1) — the paper's
  /// section 4.1 rule (the highest MCS with near-zero subframe errors)
  /// checks only the clean side. The threshold separates
  /// the corruption cliff (corrupt-read rates collapse to ~0 outside
  /// the band) from transient channel noise during the probe round, so
  /// it sits well below 1 but far above the cliff.
  double mcs_probe_threshold = 0.6;

  /// Retries per delivery attempt after the first failed poll.
  std::size_t max_retries = 2;
  /// Backoff before retry r: min(base * factor^r, cap). Backoff burns
  /// simulated idle time (dilated like airtime), so a few ms outlasts
  /// an interference burst or brownout window without dominating the
  /// goodput denominator.
  util::Micros backoff_base_us{4'000.0};
  double backoff_factor = 3.0;
  util::Micros backoff_cap_us{64'000.0};

  /// Successful polls between recovery probes of the next-better rung.
  std::size_t probe_period = 8;

  /// --- kRateless policy ---------------------------------------------
  /// Under TagFec::kRateless the FEC rung of the ladder is a fixed
  /// point: instead of stepping between repetition factors, the
  /// supervisor learns the droplet overhead ratio (droplets consumed
  /// per source symbol on successful deliveries, >= 1.0) by EWMA and
  /// sizes poll budgets from it — the code rate adapts continuously
  /// where repetition could only jump 3x -> 5x.
  double overhead_alpha = 0.25;
  /// Overhead assumed before the first successful decode.
  double overhead_init = 1.35;

  /// Traffic-predictive scheduling (kRateless only): watch the round
  /// loss process, estimate the Gilbert-Elliott burst persistence
  /// P(lost | previous lost), and have the tag sit out rounds predicted
  /// to land inside a burst. Skipped airtime is still charged to
  /// goodput — the win must come from droplets not wasted, not from
  /// pretending the air was free.
  bool predictive = false;
  /// EWMA weight for the loss/burst estimates.
  double predict_alpha = 0.3;
  /// Skip only while the burst-persistence estimate exceeds this.
  double skip_threshold = 0.55;
  /// Forced transmit after this many consecutive skips (the probe that
  /// discovers the burst ended).
  std::size_t max_consecutive_skips = 3;
};

/// EWMA loss/burst predictor over recent round outcomes, installed as
/// the Reader's RoundScheduler when predictive scheduling is on. Skips
/// are decided from two online estimates: the stationary loss rate and
/// the burst persistence P(this round lost | previous round lost) — the
/// Gilbert-Elliott channel's defining statistic. Purely deterministic
/// in the outcome sequence.
class BurstPredictor : public RoundScheduler {
 public:
  BurstPredictor(double alpha, double skip_threshold,
                 std::size_t max_consecutive_skips);

  bool should_skip() override;
  void observe(bool lost) override;

  double loss_rate() const { return p_loss_; }
  double burst_persistence() const { return p_continue_; }
  std::size_t skips() const { return skips_total_; }

 private:
  double alpha_;
  double threshold_;
  std::size_t max_skips_;
  double p_loss_ = 0.0;
  /// P(lost | previous lost); 0.5 start = "no burst evidence yet".
  double p_continue_ = 0.5;
  bool prev_lost_ = false;
  std::size_t skips_in_row_ = 0;
  std::size_t skips_total_ = 0;
};

/// Wraps a Reader (which wraps a Session) and delivers application
/// payloads across a faulty link. One supervisor per polled tag address.
class LinkSupervisor {
 public:
  /// The reader must outlive the supervisor. The supervisor drives the
  /// reader's FEC and the session's MCS; callers should not mutate
  /// either behind its back.
  LinkSupervisor(Reader& reader, SupervisorConfig cfg);

  /// Clears the reader's scheduler hook if this supervisor installed one.
  ~LinkSupervisor();
  LinkSupervisor(const LinkSupervisor&) = delete;
  LinkSupervisor& operator=(const LinkSupervisor&) = delete;

  struct DeliveryResult {
    bool ok = false;
    util::ByteVec payload;
    std::size_t rounds = 0;    ///< Query rounds across all attempts.
    std::size_t retries = 0;   ///< Extra attempts beyond the first.
    std::size_t rounds_skipped = 0;  ///< Predictive-scheduler skips.
    std::size_t droplets_used = 0;   ///< Droplets consumed (kRateless).
    util::Micros airtime_us{};  ///< On-air time (excludes backoff).
  };

  /// Delivers the next application payload from tag `address`: loads the
  /// tag, polls, and on failure retries with backoff before adapting the
  /// ladder. Payload content is deterministic per (address, sequence
  /// number) so runs are comparable across supervisor policies.
  DeliveryResult deliver(unsigned address = 0);

  struct Stats {
    std::size_t deliveries_ok = 0;
    std::size_t deliveries_failed = 0;
    std::size_t payload_bytes_ok = 0;  ///< Application bytes delivered.
    /// CRC-valid frames whose content was not the loaded payload: with
    /// an 8-bit preamble and CRC-8, hostile channels produce occasional
    /// false accepts (~2^-16 per stream offset). Counted as failures.
    std::size_t false_frames = 0;
    std::size_t retries = 0;
    std::size_t mcs_fallbacks = 0;
    std::size_t fec_escalations = 0;
    std::size_t frame_shrinks = 0;
    std::size_t recoveries = 0;        ///< Ladder steps back up.
    std::size_t probes = 0;            ///< Recovery probes attempted.
    std::size_t rounds_skipped = 0;    ///< Predictive-scheduler skips.
    std::size_t droplets_used = 0;     ///< Droplets consumed (kRateless).
    util::Micros airtime_us{};         ///< On-air time across deliveries.
    util::Micros backoff_us{};         ///< Simulated idle time burned.

    /// Delivered application bits per second of airtime [Kbps]. Backoff
    /// idle time counts against the link: waiting is not free.
    double goodput_kbps() const;
  };
  const Stats& stats() const { return stats_; }

  /// Current rung, exposed for tests and the robustness bench.
  unsigned mcs() const;
  TagFec fec() const { return reader_.fec(); }
  std::size_t payload_bytes() const { return payload_bytes_; }
  /// Learned droplet overhead ratio (kRateless; overhead_init until the
  /// first successful decode updates it).
  double overhead_ratio() const { return overhead_; }
  /// The installed burst predictor, or nullptr (not predictive /
  /// classic FEC).
  const BurstPredictor* predictor() const {
    return predictor_ ? &*predictor_ : nullptr;
  }

 private:
  bool escalate(unsigned address);
  bool recover(unsigned address);
  void record_outcome(bool ok);
  double window_fail_rate() const;
  util::ByteVec next_payload(unsigned address);
  /// Two-sided rate probe at the session's current MCS: one idle round
  /// (clean subframes must ack) and one all-corrupt round (the tag's
  /// perturbation must fail FCS). Returns min(clean, corrupt) success;
  /// probe airtime is charged to the supervisor's stats.
  double probe_rate_health(unsigned address);
  /// True when a frame of `payload_bytes` under `fec` still decodes
  /// comfortably inside the caller's per-poll round budget at the
  /// session's current layout — the guard that keeps the ladder from
  /// walking onto rungs where no poll can ever finish.
  bool frame_fits(TagFec fec, std::size_t payload_bytes) const;
  /// Resizes the reader's per-poll budget to the frame currently in
  /// flight (capped at the caller's original budget), so failed polls
  /// stop paying for frames the ladder no longer sends.
  void retune_budget();

  /// Channel bits one delivery is expected to need under the current
  /// frame shape — learned-overhead droplets for kRateless, the fixed
  /// encoding expansion otherwise. frame_fits/retune_budget run on it.
  std::size_t expected_frame_bits(TagFec fec,
                                  std::size_t payload_bytes) const;

  Reader& reader_;
  SupervisorConfig cfg_;
  std::size_t payload_bytes_;
  double overhead_;  ///< Learned droplet overhead (kRateless).
  std::optional<BurstPredictor> predictor_;
  unsigned top_mcs_;  ///< The rate rung the ladder recovers toward.
  TagFec base_fec_;   ///< The FEC rung the ladder recovers toward.
  std::size_t entry_budget_;  ///< The caller's per-poll round budget.
  std::deque<bool> window_;
  std::size_t ok_streak_ = 0;
  std::uint64_t sequence_ = 0;
  /// MCS at which a downward probe was rejected: corruption physics, not
  /// channel state, blocks the rung, so don't re-probe from here.
  std::optional<unsigned> mcs_blocked_at_;
  Stats stats_;
};

}  // namespace witag::core
