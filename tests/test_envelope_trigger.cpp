#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "tag/envelope.hpp"
#include "tag/trigger.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace witag::tag {
namespace {

using util::Cx;

// Builds |amplitude| sample blocks at 20 Msps.
util::CxVec amplitude_profile(std::initializer_list<std::pair<double, double>>
                                  segments_us_amp,
                              util::Rng& rng, double noise_amp = 0.0) {
  util::CxVec samples;
  for (const auto& [dur_us, amp] : segments_us_amp) {
    const auto n = static_cast<std::size_t>(dur_us * 20.0);
    for (std::size_t i = 0; i < n; ++i) {
      // Random phase carrier with the requested envelope.
      const double phase = rng.uniform(0.0, 2.0 * util::kPi);
      samples.push_back(std::polar(amp, phase) +
                        noise_amp * rng.complex_normal(1.0));
    }
  }
  return samples;
}

TEST(Envelope, TracksAmplitudeSteps) {
  util::Rng rng(1);
  EnvelopeConfig cfg;
  EnvelopeDetector det(cfg);
  const auto samples =
      amplitude_profile({{10.0, 0.0}, {10.0, 1.0}, {10.0, 0.2}}, rng);
  const auto env = det.process(samples);
  // Settled values near the segment ends.
  EXPECT_NEAR(env[195], 0.0, 0.05);
  EXPECT_NEAR(env[395], 1.0, 0.15);
  EXPECT_NEAR(env[595], 0.2, 0.1);
}

TEST(Envelope, ComparatorSlicesHighLow) {
  util::Rng rng(2);
  EnvelopeConfig cfg;
  EnvelopeDetector det(cfg);
  Comparator cmp(cfg);
  const auto samples = amplitude_profile(
      {{20.0, 1.0}, {20.0, 0.2}, {20.0, 1.0}}, rng, 0.01);
  const auto bits = cmp.process(det.process(samples));
  // Check settled mid-segment values.
  EXPECT_EQ(bits[300], 1);
  EXPECT_EQ(bits[700], 0);
  EXPECT_EQ(bits[1100], 1);
}

TEST(Envelope, ProcessIntoReusedBuffersEqualsProcess) {
  EnvelopeConfig cfg;
  util::Rng rng(5);
  util::CxVec samples(500);
  for (auto& x : samples) x = rng.complex_normal(1.0);
  EnvelopeDetector fresh_detector(cfg);
  Comparator fresh_comparator(cfg);
  const auto envelope = fresh_detector.process(samples);
  const auto bits = fresh_comparator.process(envelope);

  EnvelopeDetector detector(cfg);
  Comparator comparator(cfg);
  std::vector<double> reused_envelope(900, 7.0);
  std::vector<std::uint8_t> reused_bits(900, 1);
  detector.process_into(samples, reused_envelope);
  comparator.process_into(reused_envelope, reused_bits);
  EXPECT_EQ(reused_envelope, envelope);
  EXPECT_EQ(reused_bits, bits);
}

TEST(Envelope, ResetClearsState) {
  util::Rng rng(3);
  EnvelopeConfig cfg;
  EnvelopeDetector det(cfg);
  const auto samples = amplitude_profile({{10.0, 1.0}}, rng);
  det.process(samples);
  det.reset();
  const auto env = det.process(amplitude_profile({{1.0, 0.0}}, rng));
  EXPECT_NEAR(env.back(), 0.0, 1e-6);
}

TEST(Envelope, RejectsBadConfig) {
  EnvelopeConfig bad;
  bad.rc_cutoff_hz = util::Hertz{0.0};
  EXPECT_THROW(EnvelopeDetector{bad}, std::invalid_argument);
  EnvelopeConfig bad2;
  bad2.threshold_fraction = 1.5;
  EXPECT_THROW(Comparator{bad2}, std::invalid_argument);
}

// Comparator stream for a query: header HIGH, then H L H L H trigger
// subframes of D us, then data HIGH.
std::vector<std::uint8_t> query_comparator_stream(double d_us,
                                                  double header_us = 20.0,
                                                  double data_us = 200.0) {
  std::vector<std::uint8_t> bits;
  auto add = [&](double dur_us, std::uint8_t level) {
    const auto n = static_cast<std::size_t>(dur_us * 20.0);
    bits.insert(bits.end(), n, level);
  };
  add(header_us, 1);
  add(d_us, 1);   // trigger sf0 HIGH (merges with header)
  add(d_us, 0);   // sf1 LOW
  add(d_us, 1);   // sf2 HIGH
  add(d_us, 0);   // sf3 LOW
  add(d_us, 1);   // sf4 HIGH (merges with data)
  add(data_us, 1);
  return bits;
}

TEST(Trigger, DetectsQueryAndMeasuresTiming) {
  const auto bits = query_comparator_stream(16.0);
  TriggerConfig cfg;
  const auto timing = detect_trigger(bits, 20e6, cfg);
  ASSERT_TRUE(timing.has_value());
  EXPECT_NEAR(timing->subframe_duration_us, 16.0, 0.2);
  // Align edge: end of sf3 = 20 (header) + 4 * 16.
  EXPECT_NEAR(timing->align_edge_us, 20.0 + 64.0, 0.2);
  // Data: after sf4 = 20 + 5 * 16.
  EXPECT_NEAR(timing->data_start_us, 20.0 + 80.0, 0.2);
}

TEST(Trigger, DetectsAcrossSubframeDurations) {
  for (const double d : {8.0, 16.0, 32.0, 64.0}) {
    const auto bits = query_comparator_stream(d);
    const auto timing = detect_trigger(bits, 20e6, TriggerConfig{});
    ASSERT_TRUE(timing.has_value()) << d;
    EXPECT_NEAR(timing->subframe_duration_us, d, 0.2) << d;
  }
}

TEST(Trigger, RejectsPlainTraffic) {
  // A long steady packet has no alternating runs.
  std::vector<std::uint8_t> bits(4000, 1);
  EXPECT_FALSE(detect_trigger(bits, 20e6, TriggerConfig{}).has_value());
}

TEST(Trigger, RejectsMismatchedRunLengths) {
  std::vector<std::uint8_t> bits;
  auto add = [&](double dur_us, std::uint8_t level) {
    bits.insert(bits.end(), static_cast<std::size_t>(dur_us * 20.0), level);
  };
  add(20.0, 1);
  add(16.0, 0);
  add(40.0, 1);  // far outside tolerance
  add(16.0, 0);
  add(200.0, 1);
  EXPECT_FALSE(detect_trigger(bits, 20e6, TriggerConfig{}).has_value());
}

TEST(Trigger, RejectsOutOfRangeDurations) {
  const auto too_short = query_comparator_stream(2.0);
  EXPECT_FALSE(detect_trigger(too_short, 20e6, TriggerConfig{}).has_value());
  const auto too_long = query_comparator_stream(400.0);
  EXPECT_FALSE(detect_trigger(too_long, 20e6, TriggerConfig{}).has_value());
}

TEST(Trigger, ToleratesComparatorJitter) {
  auto bits = query_comparator_stream(16.0);
  // Flip a few isolated samples near run interiors (comparator chatter
  // at the RC settle points is filtered by run-length structure only if
  // the runs stay dominant; single flips create tiny runs the detector
  // must skip over — it scans all run positions).
  util::Rng rng(4);
  // Jitter run EDGES by a few samples instead of mid-run flips.
  // Shorten sf1's low run by 3 samples.
  std::size_t idx = static_cast<std::size_t>((20.0 + 16.0) * 20.0);
  bits[idx] = 1;
  bits[idx + 1] = 1;
  const auto timing = detect_trigger(bits, 20e6, TriggerConfig{});
  EXPECT_TRUE(timing.has_value());
}

TEST(Trigger, LargerTriggerCountShiftsDataStart) {
  std::vector<std::uint8_t> bits;
  auto add = [&](double dur_us, std::uint8_t level) {
    bits.insert(bits.end(), static_cast<std::size_t>(dur_us * 20.0), level);
  };
  // n_trigger = 7: H L H L H H H -> comparator: header+H, L, H, L, HHH+data.
  add(20.0, 1);
  add(16.0, 1);
  add(16.0, 0);
  add(16.0, 1);
  add(16.0, 0);
  add(3 * 16.0, 1);
  add(200.0, 1);
  TriggerConfig cfg;
  cfg.n_trigger_subframes = 7;
  const auto timing = detect_trigger(bits, 20e6, cfg);
  ASSERT_TRUE(timing.has_value());
  EXPECT_NEAR(timing->data_start_us, 20.0 + 7 * 16.0, 0.3);
}

// Comparator stream for an addressed query: H, L, H, then (1+code)
// LOW subframes, then HIGH into the data region.
std::vector<std::uint8_t> coded_query_stream(double d_us, unsigned code,
                                             unsigned n_trigger) {
  std::vector<std::uint8_t> bits;
  auto add = [&](double dur_us, std::uint8_t level) {
    bits.insert(bits.end(), static_cast<std::size_t>(dur_us * 20.0), level);
  };
  add(20.0, 1);
  add(d_us, 1);                  // sf0 HIGH
  add(d_us, 0);                  // sf1 LOW
  add(d_us, 1);                  // sf2 HIGH
  add((1 + code) * d_us, 0);     // sf3..3+code LOW
  add((n_trigger - 4 - code) * d_us, 1);  // trailing HIGH triggers
  add(200.0, 1);
  return bits;
}

TEST(Trigger, MeasuresTriggerCode) {
  for (unsigned code : {0u, 1u, 2u, 3u}) {
    const unsigned n_trigger = 5 + code;
    const auto bits = coded_query_stream(16.0, code, n_trigger);
    TriggerConfig cfg;
    cfg.n_trigger_subframes = n_trigger;
    const auto timing = detect_trigger(bits, 20e6, cfg);
    ASSERT_TRUE(timing.has_value()) << code;
    EXPECT_EQ(timing->code, code);
    EXPECT_NEAR(timing->subframe_duration_us, 16.0, 0.2) << code;
    // Data begins after all trigger subframes.
    EXPECT_NEAR(timing->data_start_us, 20.0 + n_trigger * 16.0, 0.4) << code;
  }
}

TEST(Trigger, AcceptCodeFiltersOtherAddresses) {
  const auto bits = coded_query_stream(16.0, 1, 6);
  TriggerConfig cfg;
  cfg.n_trigger_subframes = 6;
  cfg.accept_code = 2;  // wrong address
  EXPECT_FALSE(detect_trigger(bits, 20e6, cfg).has_value());
  cfg.accept_code = 1;  // right address
  EXPECT_TRUE(detect_trigger(bits, 20e6, cfg).has_value());
}

TEST(Trigger, ConfigValidation) {
  const std::vector<std::uint8_t> bits(100, 1);
  TriggerConfig cfg;
  cfg.n_trigger_subframes = 4;
  EXPECT_THROW(detect_trigger(bits, 20e6, cfg), std::invalid_argument);
  EXPECT_THROW(detect_trigger(bits, 0.0, TriggerConfig{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace witag::tag
