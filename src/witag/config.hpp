// One configuration tree for the whole WiTAG testbed. Defaults reproduce
// the paper's LOS experiment: AP and client 8 m apart in the Figure-4
// lab, tag mid-link, CCMP off, prototype-grade tag timer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "channel/channel_model.hpp"
#include "channel/geometry.hpp"
#include "faults/fault_plan.hpp"
#include "mac/station.hpp"
#include "tag/device.hpp"
#include "util/units.hpp"

namespace witag::core {

/// Query A-MPDU shape.
struct QueryConfig {
  /// Total subframes per A-MPDU including trigger subframes (<= 64).
  unsigned n_subframes = 64;
  /// Trigger subframes at the head (>= 5). The pattern is HIGH LOW HIGH
  /// LOW ... HIGH: the leading HIGH subframe keeps the PHY SERVICE field
  /// (scrambler sync) at full power and the trailing HIGH subframe
  /// buffers the data region from decoder smear out of the last LOW one.
  unsigned n_trigger = 5;
  /// OFDM symbols per subframe; 0 = auto (smallest duration the tag's
  /// clock granularity and guards allow at the chosen MCS).
  unsigned symbols_per_subframe = 0;
  /// MCS for query PPDUs.
  unsigned mcs_index = 5;
  /// Envelope amplitude scale of the LOW trigger subframes. Low enough
  /// that the tag comparator's release threshold (0.4 of peak) is
  /// crossed briskly rather than asymptotically.
  double trigger_low_scale = 0.25;
  /// Tag address carried by the trigger pattern: the second LOW region
  /// spans (1 + code) subframes, so only the tag configured with this
  /// address answers. Requires n_trigger >= 5 + code.
  unsigned trigger_code = 0;
};

/// How the session gives the tag its timing.
enum class TriggerMode {
  /// The session hands the tag exact query timing (upper bound;
  /// trigger-detection errors are studied separately).
  kIdeal,
  /// The tag runs its envelope detector + comparator + correlator on
  /// rendered time-domain samples; a missed trigger loses the round.
  kEnvelope,
};

struct SessionConfig {
  channel::RadioConfig radio;
  channel::Point2 ap_pos{17.2, 3.5};
  channel::Point2 client_pos{9.2, 3.5};
  channel::Point2 tag_pos{13.2, 3.5};
  channel::FloorPlan plan;
  /// Static environment reflectors; empty = default room set.
  std::vector<channel::StaticReflector> reflectors;
  channel::FadingConfig fading;

  channel::TagMode tag_mode = channel::TagMode::kPhaseFlip;
  /// Tag antenna coupling strength (see DESIGN.md calibration).
  double tag_strength = 7.1;
  tag::TagDeviceConfig tag_device;
  /// Trigger-code address of the primary tag (multi-tag extension).
  unsigned tag_address = 0;

  /// Additional tags sharing the link (multi-tag extension): each
  /// answers only queries whose trigger code matches its address.
  struct ExtraTag {
    channel::Point2 position;
    unsigned address = 1;
    double strength = 7.1;
  };
  std::vector<ExtraTag> extra_tags;
  TriggerMode trigger_mode = TriggerMode::kIdeal;
  /// Receiver noise figure of the tag's envelope detector.
  util::Db tag_detector_nf_db{15.0};

  mac::SecurityConfig security;
  QueryConfig query;
  bool cpe_correction = true;

  /// Idle gap the client leaves between exchanges (application loop
  /// turnaround).
  util::Micros inter_query_gap_us{20.0};

  /// Fault-injection plan (src/faults/). The default (all injectors
  /// off) leaves every exchange bit-identical to a build without the
  /// fault framework; see DESIGN.md section 11 for the determinism
  /// contract.
  faults::FaultPlan faults;

  /// Measurement compression: the paper's one-minute measurements cover
  /// ~40k exchanges; the simulator samples far fewer rounds, so channel
  /// time (people walking, blocking, interference exposure happens per
  /// round anyway) advances by dilation * airtime to sample the same
  /// minute-scale channel process sparsely. 1 = real time.
  double time_dilation = 1.0;

  std::uint64_t seed = 1;
};

/// Session defaults for the paper's LOS testbed (Figure 4/5): AP and
/// client 8 m apart, tag `tag_to_client` from the client on the line
/// between them. The prototype's MCU timer (1 MHz tick) is used for
/// tag switching, as in the paper's AT91SAM3X8E-based tag.
SessionConfig los_testbed_config(util::Meters tag_to_client,
                                 std::uint64_t seed);

/// Session defaults for the NLOS experiment (Figure 4/6): client at
/// location A or B with the tag 1 m away, AP fixed, people walking.
SessionConfig nlos_testbed_config(bool location_b, std::uint64_t seed);

}  // namespace witag::core
