// End-to-end WiTAG session: client STA -> (channel + tag) -> AP STA ->
// block ack -> client, exactly the two-step exchange of the paper's
// Figure 2. The session owns every component and advances simulated time
// from standards airtime, so BER and throughput come from the same
// mechanics the paper measures.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <cstddef>
#include <vector>

#include "channel/channel_model.hpp"
#include "faults/injectors.hpp"
#include "mac/station.hpp"
#include "phy/ppdu.hpp"
#include "util/complexvec.hpp"
#include "tag/device.hpp"
#include "util/rng.hpp"
#include "witag/config.hpp"
#include "witag/metrics.hpp"
#include "witag/query.hpp"
#include "util/units.hpp"
#include "util/bits.hpp"

namespace witag::core {

class Session {
 public:
  explicit Session(SessionConfig cfg);

  /// Outcome of one query/block-ack exchange.
  struct RoundResult {
    util::BitVec sent;           ///< Bits the tag scheduled.
    std::vector<bool> received;  ///< Client's reading per data subframe.
    bool lost = false;           ///< No usable block ack / missed trigger.
    bool trigger_detected = true;
    util::Micros airtime_us{};
    std::size_t subframes_valid = 0;  ///< FCS-valid subframes at the AP.
  };

  /// Runs one exchange with the tag(s) active, addressing the tag whose
  /// address matches cfg.query.trigger_code.
  RoundResult run_round();

  /// Addresses a specific tag (multi-tag extension): the query's trigger
  /// pattern carries `address`, so only the matching tag answers and
  /// RoundResult::sent holds that tag's bits.
  RoundResult run_round_addressed(unsigned address);

  /// Runs `rounds` exchanges and accumulates metrics.
  struct RunStats {
    LinkMetrics metrics;
    std::size_t triggers_missed = 0;
    util::Db mean_snr_db{};
    util::Db tag_perturbation_db{};
  };
  RunStats run(std::size_t rounds);

  /// Runs one exchange with the tag idle and reports the fraction of
  /// subframes the AP acked: the clean side of the LinkSupervisor's
  /// two-sided rate probe.
  double probe_subframe_success();

  /// Re-plans the query layout for `mcs` without probing (the
  /// LinkSupervisor's closed-loop fallback). Throws
  /// std::invalid_argument when the MCS cannot form a valid query
  /// layout, leaving the current layout in place.
  void set_mcs(unsigned mcs);
  unsigned current_mcs() const { return layout_.mcs_index; }

  /// Lets simulated time pass with no exchange on the air: the channel
  /// and the fault processes (interference chain, brownout windows)
  /// advance by the dilated duration. The supervisor's retry backoff
  /// rides on this, which is why waiting out a burst genuinely helps.
  void idle_wait(util::Micros us);

  /// The tag sits out one addressed query: the client's A-MPDU still
  /// occupies the air (its airtime is charged — the returned duration —
  /// and the channel/fault clocks advance by it), but the tag spends no
  /// harvested energy and no bits move. The predictive scheduler uses
  /// this to skip rounds it expects to land inside an interference
  /// burst. Deterministic: the backoff is the CWmin expectation, not a
  /// draw, so skipping never perturbs the session's random stream.
  util::Micros skip_round(unsigned address);

  /// Realized fault events so far (all zero when no plan is active).
  const faults::FaultCounts& fault_counts() const { return faults_.counts(); }

  tag::TagDevice& tag_device() { return tags_[0].device; }
  /// Device of tag `i` (0 = primary, then extra tags in config order).
  tag::TagDevice& tag_device(std::size_t i) { return tags_.at(i).device; }
  std::size_t tag_count() const { return tags_.size(); }
  /// Index of the tag answering trigger code `address`. Throws when no
  /// configured tag carries that address.
  std::size_t tag_index(unsigned address) const;
  channel::ChannelModel& channel() { return *channel_; }
  const QueryLayout& layout() const { return layout_; }
  const SessionConfig& config() const { return cfg_; }

 private:
  struct TagUnit {
    tag::TagDevice device;
    unsigned address = 0;
    double link_amp = 0.0;  ///< Client->tag amplitude for envelope mode.
  };

  /// One query/block-ack exchange. Its PPDU-sized buffers (query
  /// timeline, received timeline, decode scratch, envelope render) live
  /// in a per-thread workspace in session.cpp, not in the Session.
  RoundResult exchange(bool tag_active, unsigned address);
  util::Micros draw_backoff_us();
  /// `rendered` holds the query's header+trigger region in time domain,
  /// 80 samples per slot, rendered once per exchange (the render is
  /// tag-independent; each tag applies its own flat link gain per
  /// sample), so multi-tag envelope runs share a single render.
  std::optional<tag::QueryTiming> tag_timing(
      const QueryFrame& frame, const TagUnit& unit,
      std::span<const util::Cx> rendered);
  const QueryLayout& layout_for(unsigned address);
  double link_amp_to(channel::Point2 tag_pos) const;

  SessionConfig cfg_;
  util::Rng rng_;
  faults::FaultSet faults_;
  std::unique_ptr<channel::ChannelModel> channel_;
  mac::Client client_;
  mac::AccessPoint ap_;
  std::vector<TagUnit> tags_;
  QueryLayout layout_;
  /// Layout cache for addressed queries (index = trigger code).
  std::vector<std::optional<QueryLayout>> layout_cache_;
  double tag_noise_var_ = 0.0;      ///< Noise at the tag detector [W].
};

}  // namespace witag::core
