#include "witag/session.hpp"

#include <gtest/gtest.h>

#include "mac/airtime.hpp"
#include "witag/link.hpp"

namespace witag::core {
namespace {

SessionConfig quiet_los(double tag_at, std::uint64_t seed) {
  SessionConfig cfg = los_testbed_config(util::Meters{tag_at}, seed);
  // Deterministic clean channel for invariants: no fading/interference.
  cfg.fading.n_scatterers = 0;
  cfg.fading.blocking_rate_hz = util::Hertz{0.0};
  cfg.fading.interference_rate_hz = util::Hertz{0.0};
  return cfg;
}

TEST(Session, IdleTagMeansEverySubframeAcked) {
  Session s(quiet_los(4.0, 1));
  EXPECT_DOUBLE_EQ(s.probe_subframe_success(), 1.0);
}

TEST(Session, TagBitsArriveExactly) {
  // Tag near the client: perturbation far above threshold; every 0
  // corrupts, every 1 survives.
  Session s(quiet_los(1.0, 2));
  for (int round = 0; round < 5; ++round) {
    const auto r = s.run_round();
    ASSERT_FALSE(r.lost);
    ASSERT_EQ(r.received.size(), r.sent.size());
    for (std::size_t i = 0; i < r.sent.size(); ++i) {
      EXPECT_EQ(r.received[i], (r.sent[i] & 1u) != 0) << "bit " << i;
    }
  }
}

TEST(Session, RunAggregatesMetrics) {
  Session s(quiet_los(1.0, 3));
  const auto stats = s.run(4);
  EXPECT_EQ(stats.metrics.rounds(), 4u);
  EXPECT_EQ(stats.metrics.bits(),
            4u * s.layout().n_data_subframes);
  EXPECT_DOUBLE_EQ(stats.metrics.ber(), 0.0);
  EXPECT_GT(stats.metrics.goodput_kbps(), 20.0);
  EXPECT_LT(stats.metrics.goodput_kbps(), 80.0);
  EXPECT_GT(stats.mean_snr_db.value(), 35.0);
}

TEST(Session, DeterministicGivenSeed) {
  Session a(quiet_los(3.0, 7));
  Session b(quiet_los(3.0, 7));
  for (int i = 0; i < 3; ++i) {
    const auto ra = a.run_round();
    const auto rb = b.run_round();
    EXPECT_EQ(ra.sent, rb.sent);
    EXPECT_EQ(ra.received, rb.received);
    EXPECT_DOUBLE_EQ(ra.airtime_us.value(), rb.airtime_us.value());
  }
}

TEST(Session, WorksThroughCcmpEncryption) {
  SessionConfig cfg = quiet_los(1.0, 4);
  cfg.security.mode = mac::Security::kCcmp;
  cfg.security.ccmp_key = {1, 2, 3, 4, 5, 6, 7, 8,
                           9, 10, 11, 12, 13, 14, 15, 16};
  Session s(cfg);
  const auto stats = s.run(4);
  EXPECT_DOUBLE_EQ(stats.metrics.ber(), 0.0);
}

TEST(Session, WorksThroughWepEncryption) {
  SessionConfig cfg = quiet_los(1.0, 5);
  cfg.security.mode = mac::Security::kWep;
  for (std::size_t i = 0; i < cfg.security.wep_key.size(); ++i) {
    cfg.security.wep_key[i] = static_cast<std::uint8_t>(i);
  }
  Session s(cfg);
  const auto stats = s.run(4);
  EXPECT_DOUBLE_EQ(stats.metrics.ber(), 0.0);
}

TEST(Session, OpenShortModeNeedsTwiceTheCoupling) {
  // Section 5.2's point as an invariant: at the calibrated coupling the
  // phase-flip tag works but the open/short tag's half-sized channel
  // change cannot corrupt subframes; doubling the coupling restores it.
  SessionConfig cfg = quiet_los(1.0, 6);
  cfg.tag_mode = channel::TagMode::kOpenShort;
  Session weak(cfg);
  EXPECT_GT(weak.run(2).metrics.ber(), 0.2);  // corruptions missed

  cfg.tag_strength *= 2.0;
  Session strong(cfg);
  EXPECT_DOUBLE_EQ(strong.run(4).metrics.ber(), 0.0);
}

TEST(Session, EnvelopeTriggerModeDeliversBits) {
  SessionConfig cfg = quiet_los(1.0, 8);
  cfg.trigger_mode = TriggerMode::kEnvelope;
  Session s(cfg);
  const auto stats = s.run(4);
  EXPECT_EQ(stats.triggers_missed, 0u);
  EXPECT_DOUBLE_EQ(stats.metrics.ber(), 0.0);
}

TEST(Session, CustomTagPayloadFlowsThroughLinkLayer) {
  SessionConfig cfg = quiet_los(1.0, 10);
  Session s(cfg);
  const util::ByteVec message{'W', 'i', 'T', 'A', 'G'};
  s.tag_device().set_payload(encode_tag_frame(message, TagFec::kNone));

  util::BitVec stream;
  while (stream.size() < tag_frame_bits(message.size(), TagFec::kNone)) {
    const auto r = s.run_round();
    ASSERT_FALSE(r.lost);
    for (std::size_t i = 0; i < r.received.size(); ++i) {
      stream.push_back(r.received[i] ? 1 : 0);
    }
  }
  const auto frames = decode_tag_stream(stream, TagFec::kNone);
  ASSERT_FALSE(frames.empty());
  EXPECT_EQ(frames[0].payload, message);
}

TEST(Session, MidLinkWeakerThanEndpoints) {
  // The Figure-5 property as an invariant: perturbation at the midpoint
  // is strictly the weakest.
  Session mid(quiet_los(4.0, 11));
  Session near(quiet_los(1.0, 11));
  EXPECT_LT(mid.channel().tag_perturbation_db(),
            near.channel().tag_perturbation_db());
}

TEST(Session, AirtimeIsAccountedPerRound) {
  Session s(quiet_los(2.0, 12));
  const auto r = s.run_round();
  // At least DIFS + PPDU + SIFS + BA.
  const double floor_us = mac::kDifsUs.value() +
                          s.layout().subframe_duration_us().value() * 64 +
                          mac::kSifsUs.value();
  EXPECT_GT(r.airtime_us.value(), floor_us * 0.9);
}

TEST(Session, LosConfigValidation) {
  EXPECT_THROW(los_testbed_config(util::Meters{0.0}, 1),
               std::invalid_argument);
  EXPECT_THROW(los_testbed_config(util::Meters{8.0}, 1),
               std::invalid_argument);
}

TEST(Session, UnaddressedTagStaysSilent) {
  // Two tags; query tag 1: tag 0's subframes must all pass untouched
  // apart from the corruption tag 1 applies (which carries tag 1's
  // bits). Reading tag 1's bits back exactly proves tag 0 never fired.
  SessionConfig cfg = quiet_los(1.0, 30);
  cfg.extra_tags.push_back({{16.4, 3.5}, 1, 7.1});
  Session s(cfg);
  const auto r = s.run_round_addressed(1);
  ASSERT_FALSE(r.lost);
  ASSERT_EQ(r.received.size(), r.sent.size());
  for (std::size_t i = 0; i < r.sent.size(); ++i) {
    EXPECT_EQ(r.received[i], (r.sent[i] & 1u) != 0) << i;
  }
}

TEST(Session, EnvelopeModeRoutesByAddress) {
  SessionConfig cfg = quiet_los(1.0, 31);
  cfg.trigger_mode = TriggerMode::kEnvelope;
  cfg.extra_tags.push_back({{16.4, 3.5}, 1, 7.1});
  Session s(cfg);
  for (unsigned addr : {0u, 1u}) {
    const auto r = s.run_round_addressed(addr);
    ASSERT_TRUE(r.trigger_detected) << addr;
    ASSERT_FALSE(r.lost) << addr;
    for (std::size_t i = 0; i < r.sent.size(); ++i) {
      EXPECT_EQ(r.received[i], (r.sent[i] & 1u) != 0) << addr << ":" << i;
    }
  }
}

TEST(Session, NlosConfigsMatchFigure4) {
  const SessionConfig a = nlos_testbed_config(false, 1);
  const SessionConfig b = nlos_testbed_config(true, 1);
  EXPECT_NEAR(channel::distance(a.ap_pos, a.client_pos), 7.0, 0.3);
  EXPECT_NEAR(channel::distance(b.ap_pos, b.client_pos), 17.0, 0.5);
  EXPECT_NEAR(channel::distance(a.client_pos, a.tag_pos), 1.0, 1e-9);
  EXPECT_NEAR(channel::distance(b.client_pos, b.tag_pos), 1.0, 1e-9);
}

}  // namespace
}  // namespace witag::core
