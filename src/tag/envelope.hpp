// Envelope detector + comparator front end (paper section 7).
//
// The tag cannot decode WiFi; it watches the RF envelope through a diode
// detector (modeled as |x| followed by a one-pole RC low-pass) and slices
// it with a comparator whose threshold adapts to the long-term average.
// The resulting binary waveform is all the tag sees of the channel — the
// trigger correlator turns it into "a query packet started, subframes
// are D microseconds long".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/complexvec.hpp"
#include "util/units.hpp"

namespace witag::tag {

struct EnvelopeConfig {
  util::Hertz sample_rate_hz{20e6};  ///< Rate of the incoming samples.
  util::Hertz rc_cutoff_hz{150e3};   ///< Detector RC low-pass cutoff.
  /// Comparator rise threshold as a fraction of the tracked peak. OFDM
  /// envelopes ripple hard (high PAPR), so the comparator is a Schmitt
  /// trigger: it rises above `threshold_fraction * peak` and only falls
  /// back below `release_fraction * peak`.
  double threshold_fraction = 0.5;
  double release_fraction = 0.4;
  /// Peak tracker decay time constant.
  util::Seconds peak_decay_s{1e-3};
};

/// Streaming envelope detector: feeds |x| through the RC filter.
class EnvelopeDetector {
 public:
  explicit EnvelopeDetector(const EnvelopeConfig& cfg);

  /// Filters a block of baseband samples to envelope values, one per
  /// sample, into `out` (resized, reusing its capacity).
  void process_into(std::span<const util::Cx> samples,
                    std::vector<double>& out);
  /// process_into() into a fresh vector.
  std::vector<double> process(std::span<const util::Cx> samples);

  void reset();

 private:
  double alpha_ = 0.0;
  double state_ = 0.0;
};

/// Schmitt-trigger comparator with an adaptive threshold (fractions of
/// a decaying peak tracker). Emits one bit per envelope sample.
class Comparator {
 public:
  explicit Comparator(const EnvelopeConfig& cfg);

  /// Slices `envelope` into `out` (resized, reusing its capacity).
  void process_into(std::span<const double> envelope,
                    std::vector<std::uint8_t>& out);
  /// process_into() into a fresh vector.
  std::vector<std::uint8_t> process(std::span<const double> envelope);

  void reset();
  double threshold() const;

 private:
  double threshold_fraction_;
  double release_fraction_;
  double peak_decay_;
  double peak_ = 0.0;
  std::uint8_t state_ = 0;
};

}  // namespace witag::tag
