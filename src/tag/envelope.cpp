#include "tag/envelope.hpp"

#include <cmath>
#include <cstddef>

#include "util/require.hpp"
#include "util/units.hpp"

namespace witag::tag {

EnvelopeDetector::EnvelopeDetector(const EnvelopeConfig& cfg) {
  WITAG_REQUIRE(cfg.sample_rate_hz > util::Hertz{0.0} && cfg.rc_cutoff_hz > util::Hertz{0.0});
  // One-pole IIR: alpha = dt / (RC + dt).
  const double dt = 1.0 / cfg.sample_rate_hz.value();
  const double rc = 1.0 / (2.0 * util::kPi * cfg.rc_cutoff_hz.value());
  alpha_ = dt / (rc + dt);
}

std::vector<double> EnvelopeDetector::process(
    std::span<const util::Cx> samples) {
  std::vector<double> out;
  process_into(samples, out);
  return out;
}

void EnvelopeDetector::process_into(std::span<const util::Cx> samples,
                                    std::vector<double>& out) {
  out.resize(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    state_ += alpha_ * (std::abs(samples[i]) - state_);
    out[i] = state_;
  }
}

void EnvelopeDetector::reset() { state_ = 0.0; }

Comparator::Comparator(const EnvelopeConfig& cfg)
    : threshold_fraction_(cfg.threshold_fraction),
      release_fraction_(cfg.release_fraction) {
  WITAG_REQUIRE(cfg.threshold_fraction > 0.0 && cfg.threshold_fraction < 1.0);
  util::require(cfg.release_fraction > 0.0 &&
                    cfg.release_fraction <= cfg.threshold_fraction,
                "Comparator: release_fraction must be in (0, threshold]");
  util::require(cfg.peak_decay_s > util::Seconds{0.0},
                "Comparator: bad peak decay");
  const double dt = 1.0 / cfg.sample_rate_hz.value();
  peak_decay_ = std::exp(-dt / cfg.peak_decay_s.value());
}

std::vector<std::uint8_t> Comparator::process(
    std::span<const double> envelope) {
  std::vector<std::uint8_t> out;
  process_into(envelope, out);
  return out;
}

void Comparator::process_into(std::span<const double> envelope,
                              std::vector<std::uint8_t>& out) {
  out.resize(envelope.size());
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    peak_ = std::max(envelope[i], peak_ * peak_decay_);
    if (state_ == 0 && envelope[i] > threshold_fraction_ * peak_) {
      state_ = 1;
    } else if (state_ == 1 && envelope[i] < release_fraction_ * peak_) {
      state_ = 0;
    }
    out[i] = state_;
  }
}

void Comparator::reset() {
  peak_ = 0.0;
  state_ = 0;
}

double Comparator::threshold() const {
  return threshold_fraction_ * peak_;
}

}  // namespace witag::tag
