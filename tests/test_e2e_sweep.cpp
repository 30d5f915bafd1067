// End-to-end property sweep: the WiTAG invariant — with the tag close to
// a radio on a clean channel, the block-ack bits equal the tag's bits
// exactly — must hold across every MCS the query planner supports, every
// security mode, and both trigger paths. This is the closest thing the
// system has to a single theorem; TEST_P keeps the matrix honest.
#include <gtest/gtest.h>

#include <cstddef>

#include "witag/session.hpp"

namespace witag::core {
namespace {

struct SweepCase {
  unsigned mcs;
  mac::Security security;
  TriggerMode trigger;
  const char* name;
  std::size_t max_seeds_with_flips;
};

void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class EndToEndSweep : public ::testing::TestWithParam<SweepCase> {};

// Every case runs 20 seeds; no round may be lost, and a seed with a
// flipped bit counts against the case's bound. The bound is 0 except for
// mcs5_ccmp_envelope: thermal noise is still on, and with CCMP's longer
// subframes the envelope trigger occasionally slips a corruption window
// and a round flips ~3 bits. That happened in 3.7% of its seeds under the
// Box-Muller sampler and 4.3% under the ziggurat one (5,000 seeds each),
// so it may flip in at most 4 of 20 (P ~ 0.1% at the 3.7% rate). No
// other case flipped a bit in 1,000 seeds under either sampler.
TEST_P(EndToEndSweep, BlockAckBitsEqualTagBits) {
  constexpr std::size_t kSeeds = 20;
  const SweepCase& c = GetParam();
  std::size_t seeds_with_flips = 0;
  for (std::size_t k = 0; k < kSeeds; ++k) {
    SessionConfig cfg =
        los_testbed_config(util::Meters{1.0}, 1000 + c.mcs + 100 * k);
    cfg.fading.n_scatterers = 0;
    cfg.fading.blocking_rate_hz = util::Hertz{0.0};
    cfg.fading.interference_rate_hz = util::Hertz{0.0};
    cfg.query.mcs_index = c.mcs;
    cfg.security.mode = c.security;
    cfg.security.ccmp_key = {1, 2, 3, 4, 5, 6, 7, 8,
                             9, 10, 11, 12, 13, 14, 15, 16};
    for (std::size_t i = 0; i < cfg.security.wep_key.size(); ++i) {
      cfg.security.wep_key[i] = static_cast<std::uint8_t>(i + 7);
    }
    cfg.trigger_mode = c.trigger;
    // Only the dense MCSes (5, 7) are in the matrix: robust rates resist
    // the calibrated tag coupling by design — that tradeoff is quantified
    // in bench/tab_throughput_model, not re-tested here.
    Session session(cfg);
    bool flipped = false;
    for (int round = 0; round < 3; ++round) {
      const auto r = session.run_round();
      ASSERT_FALSE(r.lost) << c.name << " seed " << k << " round " << round;
      ASSERT_EQ(r.received.size(), r.sent.size()) << c.name;
      for (std::size_t i = 0; i < r.sent.size(); ++i) {
        if (r.received[i] != ((r.sent[i] & 1u) != 0)) flipped = true;
      }
    }
    if (flipped) ++seeds_with_flips;
  }
  EXPECT_LE(seeds_with_flips, c.max_seeds_with_flips) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EndToEndSweep,
    ::testing::Values(
        SweepCase{5, mac::Security::kOpen, TriggerMode::kIdeal,
                  "mcs5_open_ideal", 0},
        SweepCase{5, mac::Security::kCcmp, TriggerMode::kIdeal,
                  "mcs5_ccmp_ideal", 0},
        SweepCase{5, mac::Security::kWep, TriggerMode::kIdeal,
                  "mcs5_wep_ideal", 0},
        SweepCase{5, mac::Security::kOpen, TriggerMode::kEnvelope,
                  "mcs5_open_envelope", 0},
        SweepCase{5, mac::Security::kCcmp, TriggerMode::kEnvelope,
                  "mcs5_ccmp_envelope", 4},
        SweepCase{7, mac::Security::kOpen, TriggerMode::kIdeal,
                  "mcs7_open_ideal", 0},
        SweepCase{7, mac::Security::kCcmp, TriggerMode::kIdeal,
                  "mcs7_ccmp_ideal", 0},
        SweepCase{7, mac::Security::kOpen, TriggerMode::kEnvelope,
                  "mcs7_open_envelope", 0}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace witag::core
