// The exchange ledger (obs/ledger.hpp): the session's own spans give one
// span per pipeline stage per exchange, and the stages' self time
// accounts for the exchange. Two session shapes: fig5's (64 subframes,
// ideal trigger, open network) and perfbench hostile_supervised's
// (envelope trigger, CCMP, injected faults).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "witag/config.hpp"
#include "witag/session.hpp"

namespace witag::obs {
namespace {

class ObsLedger : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset();
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
    MetricsRegistry::instance().reset();
  }

  /// Runs `rounds` exchanges traced and returns their ledger.
  static Ledger traced_ledger(const core::SessionConfig& cfg,
                              std::size_t rounds) {
    core::Session session(cfg);
    Tracer::instance().set_enabled(true);
    (void)session.run(rounds);
    Tracer::instance().set_enabled(false);
    return build_ledger(Tracer::instance().events());
  }
};

const LedgerRow& row(const Ledger& ledger, std::string_view stage) {
  for (const LedgerRow& r : ledger.rows) {
    if (r.stage == stage) return r;
  }
  ADD_FAILURE() << "no ledger row " << stage;
  return ledger.rows.front();
}

/// Every exchange has between `lo` and `hi` spans of `stage`.
void expect_per_exchange(const Ledger& ledger, std::string_view stage,
                         std::size_t lo, std::size_t hi) {
  const LedgerRow& r = row(ledger, stage);
  EXPECT_GE(r.min_per_exchange, lo) << stage;
  EXPECT_LE(r.max_per_exchange, hi) << stage;
}

TEST_F(ObsLedger, SelfTimeSubtractsNestedStagesOnly) {
  // One exchange [0, 100): build_query [0, 20) holding transmit [5, 15);
  // rx_front [30, 90) holding phy.channel_est [30, 35) (not a stage: it
  // stays in rx_front) and two Viterbi decodes [40, 50) and [60, 80).
  // A transmit outside any exchange is left out.
  const auto span = [](const char* name, double t0, double t1,
                       std::uint32_t tid = 0) {
    TraceEvent ev;
    ev.name = name;
    ev.ts_us = t0;
    ev.dur_us = t1 - t0;
    ev.tid = tid;
    return ev;
  };
  const std::vector<TraceEvent> events = {
      span("phy.viterbi", 60, 80),      span("session.round", 0, 100),
      span("witag.build_query", 0, 20), span("phy.transmit", 5, 15),
      span("phy.rx_front", 30, 90),     span("phy.channel_est", 30, 35),
      span("phy.viterbi", 40, 50),      span("phy.transmit", 200, 260),
      span("phy.transmit", 0, 50, 1)};
  const Ledger ledger = build_ledger(events);
  EXPECT_EQ(ledger.exchanges, 1u);
  EXPECT_DOUBLE_EQ(ledger.exchange_us, 100.0);
  EXPECT_DOUBLE_EQ(row(ledger, "witag.build_query").self_us, 10.0);
  EXPECT_DOUBLE_EQ(row(ledger, "phy.transmit").self_us, 10.0);
  EXPECT_EQ(row(ledger, "phy.transmit").spans, 1u);
  EXPECT_DOUBLE_EQ(row(ledger, "phy.rx_front").self_us, 30.0);
  EXPECT_DOUBLE_EQ(row(ledger, "phy.viterbi").self_us, 30.0);
  EXPECT_EQ(row(ledger, "phy.viterbi").min_per_exchange, 2u);
  EXPECT_EQ(row(ledger, "channel.apply").max_per_exchange, 0u);
  EXPECT_DOUBLE_EQ(ledger.covered_frac(), 0.8);
}

TEST_F(ObsLedger, Fig5ShapedSessionHasOneSpanPerStage) {
  core::SessionConfig cfg = core::los_testbed_config(util::Meters{2.0}, 5);
  cfg.query.n_subframes = 64;
  cfg.trigger_mode = core::TriggerMode::kIdeal;
  const Ledger ledger = traced_ledger(cfg, 12);
  ASSERT_EQ(ledger.exchanges, 12u);
  for (const char* stage :
       {"witag.build_query", "phy.transmit", "tag.trigger", "tag.respond",
        "channel.apply", "phy.rx_front", "mac.receive_psdu"}) {
    expect_per_exchange(ledger, stage, 1, 1);
  }
  expect_per_exchange(ledger, "channel.cfr_rebuild", 0, 1);
  expect_per_exchange(ledger, "phy.viterbi", 2, 2);  // SIG and data
  EXPECT_GE(ledger.covered_frac(), 0.95);
}

TEST_F(ObsLedger, HostileShapedSessionHasOneSpanPerStage) {
  core::SessionConfig cfg = core::los_testbed_config(util::Meters{2.0}, 6);
  cfg.trigger_mode = core::TriggerMode::kEnvelope;
  cfg.security.mode = mac::Security::kCcmp;
  cfg.faults = faults::hostile_plan(0.5);
  const Ledger ledger = traced_ledger(cfg, 24);
  ASSERT_EQ(ledger.exchanges, 24u);
  for (const char* stage : {"witag.build_query", "phy.transmit",
                            "tag.trigger", "channel.apply", "phy.rx_front"}) {
    expect_per_exchange(ledger, stage, 1, 1);
  }
  // A missed or suppressed trigger skips the response; a header lost to
  // the channel skips the data decode and the MAC receive.
  expect_per_exchange(ledger, "tag.respond", 0, 1);
  expect_per_exchange(ledger, "channel.cfr_rebuild", 0, 1);
  expect_per_exchange(ledger, "phy.viterbi", 1, 2);
  expect_per_exchange(ledger, "mac.receive_psdu", 0, 1);
  EXPECT_GT(row(ledger, "tag.respond").spans, 0u);
  EXPECT_GE(ledger.covered_frac(), 0.95);
}

}  // namespace
}  // namespace witag::obs
