// Deterministic fault-injection plans for the WiTAG testbed.
//
// The paper evaluates WiTAG in a benign lab; real deployments live with
// bursty co-channel interference, trigger false alarms/misses, tag
// clocks wandering off spec, lost block acks and harvester brownouts
// (GuardRider, FlexScatter). A FaultPlan describes those hostile-channel
// processes declaratively; the runtime state machines in injectors.hpp
// realize them from dedicated util::Rng sub-streams, so a fixed session
// seed reproduces the identical fault schedule at any --jobs count.
//
// Every injector at zero intensity is a no-op: the session's outputs are
// bit-identical to a run without a FaultPlan at all (golden-tested).
#pragma once

#include "util/units.hpp"

namespace witag::faults {

/// Bursty co-channel interference modeled as a Gilbert-Elliott good/bad
/// chain with exponential sojourns. While the chain sits in Bad, the
/// noise floor rises by `bad_power_dbm` (received burst power, spread
/// over the 64 FFT bins) for every OFDM symbol the state covers — so a
/// burst corrupts a contiguous run of subframes, exactly the error
/// pattern repetition FEC struggles with and MCS fallback survives.
struct InterferenceFaultConfig {
  /// Long-run fraction of time spent in the Bad state (0 disables).
  double bad_duty = 0.0;
  /// Mean Bad-state sojourn; the Good mean follows from the duty.
  util::Seconds mean_bad_s{0.002};
  /// Received interferer power while Bad.
  util::Dbm bad_power_dbm{-52.0};

  bool enabled() const { return bad_duty > 0.0; }
};

/// Trigger-detection faults at the tag: the addressed tag misses a real
/// query (comparator noise, envelope fade) or a non-addressed tag
/// falsely wakes and corrupts subframes that were never its to claim.
struct TriggerFaultConfig {
  /// P(addressed tag misses a query it should have detected) per round.
  double miss_rate = 0.0;
  /// P(a non-addressed tag falsely detects the query) per round per tag.
  double false_rate = 0.0;

  bool enabled() const { return miss_rate > 0.0 || false_rate > 0.0; }
};

/// Tag clock drift/jitter beyond the crystal spec: the fractional
/// frequency error random-walks round to round (temperature swings,
/// aging) and the detected trigger edge jitters (comparator noise), so
/// subframe boundaries smear into their neighbours.
struct ClockFaultConfig {
  /// Per-round random-walk step of the fractional frequency error.
  double drift_sigma = 0.0;
  /// Clamp on the accumulated |drift| (fractional).
  double drift_max = 0.008;
  /// Std-dev of the per-round trigger-edge timing jitter.
  util::Micros jitter_sigma_us{0.0};

  bool enabled() const {
    return drift_sigma > 0.0 || jitter_sigma_us > util::Micros{0.0};
  }
};

/// MAC-layer faults on the AP<->client exchange: the block ack dies on
/// the air (client reads nothing), its bitmap is truncated (trailing
/// subframes read as unacked), or the client's transmitter aborts the
/// A-MPDU mid-flight (trailing subframes never reach the AP).
struct MacFaultConfig {
  double ba_loss_rate = 0.0;
  double ba_truncate_rate = 0.0;
  double ampdu_abort_rate = 0.0;

  bool enabled() const {
    return ba_loss_rate > 0.0 || ba_truncate_rate > 0.0 ||
           ampdu_abort_rate > 0.0;
  }
};

/// Harvester starvation: brownout windows during which the tag can
/// neither detect triggers nor switch its reflector — every round that
/// starts inside a window is lost, and waiting (the supervisor's
/// backoff) genuinely helps because the window expires in simulated
/// time.
struct BrownoutFaultConfig {
  /// Long-run fraction of time the tag is browned out (0 disables).
  double duty = 0.0;
  /// Mean brownout window duration.
  util::Seconds mean_off_s{0.25};

  bool enabled() const { return duty > 0.0; }
};

/// The full fault plan a SessionConfig carries. Default-constructed =
/// everything off = pre-fault-framework behavior, bit for bit.
struct FaultPlan {
  InterferenceFaultConfig interference;
  TriggerFaultConfig trigger;
  ClockFaultConfig clock;
  MacFaultConfig mac;
  BrownoutFaultConfig brownout;

  bool any() const {
    return interference.enabled() || trigger.enabled() || clock.enabled() ||
           mac.enabled() || brownout.enabled();
  }
};

/// Every injector bit of hostile_plan()'s `enabled` mask: interference
/// (1), trigger (2), clock (4), mac (8) and brownout (16). A mask with
/// any other bit set names no injector.
inline constexpr unsigned kAllInjectors = 0x1F;

/// Canonical hostile-channel preset used by fig_robustness and the
/// robustness tests: every injector's rate scaled by one `intensity`
/// knob in [0, 1]. 0 = benign (plan.any() == false), 1 = the harshest
/// channel the supervisor is expected to degrade gracefully under.
/// `enabled` bit i gates injector i in the fixed order interference,
/// trigger, clock, mac, brownout (kAllInjectors = all).
FaultPlan hostile_plan(double intensity, unsigned enabled = kAllInjectors);

}  // namespace witag::faults
