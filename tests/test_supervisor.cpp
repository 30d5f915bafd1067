#include "witag/supervisor.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "claims.hpp"
#include "faults/fault_plan.hpp"
#include "runner/parallel_sweep.hpp"

namespace witag::core {
namespace {

SessionConfig quiet_los(double tag_at, std::uint64_t seed) {
  SessionConfig cfg = los_testbed_config(util::Meters{tag_at}, seed);
  cfg.fading.n_scatterers = 0;
  cfg.fading.blocking_rate_hz = util::Hertz{0.0};
  cfg.fading.interference_rate_hz = util::Hertz{0.0};
  return cfg;
}

struct ModeOutcome {
  double goodput_kbps = 0.0;
  std::size_t ok = 0;
};

/// Mirrors one fig_robustness cell: both modes move the same payload
/// sequence through the same faulted testbed.
ModeOutcome run_mode(bool supervised, double intensity, std::uint64_t seed,
                     std::size_t polls) {
  auto cfg = los_testbed_config(util::Meters{3.0}, seed);
  cfg.faults = faults::hostile_plan(intensity);
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.fec = TagFec::kRepetition3;
  rcfg.max_rounds_per_frame = 16;
  Reader reader(session, rcfg);
  ModeOutcome out;
  if (supervised) {
    LinkSupervisor supervisor(reader, {});
    for (std::size_t p = 0; p < polls; ++p) supervisor.deliver(0);
    out.goodput_kbps = supervisor.stats().goodput_kbps();
    out.ok = supervisor.stats().deliveries_ok;
  } else {
    std::size_t bytes_ok = 0;
    for (std::size_t p = 0; p < polls; ++p) {
      util::Rng rng(util::Rng::derive_seed(0x70AD'0000ull, p));
      const util::ByteVec expected = rng.bytes(8);
      reader.load_tag(0, expected);
      const auto poll = reader.poll_frame(0);
      if (poll.ok && poll.payload == expected) {
        ++out.ok;
        bytes_ok += poll.payload.size();
      }
    }
    if (reader.stats().airtime_us > util::Micros{0.0}) {
      out.goodput_kbps = static_cast<double>(bytes_ok * 8) /
                         (reader.stats().airtime_us.value() / 1e6) / 1e3;
    }
  }
  return out;
}

TEST(Supervisor, ConfigValidated) {
  Session session(quiet_los(1.0, 31));
  Reader reader(session, {});
  SupervisorConfig bad;
  bad.min_payload_bytes = 0;
  EXPECT_THROW(LinkSupervisor(reader, bad), std::invalid_argument);
  SupervisorConfig bad2;
  bad2.payload_bytes = 2;
  bad2.min_payload_bytes = 4;
  EXPECT_THROW(LinkSupervisor(reader, bad2), std::invalid_argument);
  SupervisorConfig bad3;
  bad3.recover_fail_rate = 0.9;  // above escalate_fail_rate
  EXPECT_THROW(LinkSupervisor(reader, bad3), std::invalid_argument);
  SupervisorConfig bad4;
  bad4.backoff_factor = 0.5;
  EXPECT_THROW(LinkSupervisor(reader, bad4), std::invalid_argument);
}

TEST(Supervisor, QuietLinkStaysAtTopOfLadder) {
  Session session(quiet_los(1.0, 32));
  Reader reader(session, {});
  const unsigned entry_mcs = session.current_mcs();
  LinkSupervisor supervisor(reader, {});
  for (int p = 0; p < 4; ++p) {
    const auto result = supervisor.deliver(0);
    ASSERT_TRUE(result.ok) << "delivery " << p;
    EXPECT_EQ(result.retries, 0u);
    EXPECT_EQ(result.payload.size(), 8u);
  }
  const auto& stats = supervisor.stats();
  EXPECT_EQ(stats.deliveries_ok, 4u);
  EXPECT_EQ(stats.deliveries_failed, 0u);
  EXPECT_EQ(stats.payload_bytes_ok, 32u);
  EXPECT_EQ(stats.mcs_fallbacks + stats.fec_escalations + stats.frame_shrinks,
            0u);
  EXPECT_EQ(supervisor.mcs(), entry_mcs);
  EXPECT_EQ(supervisor.fec(), TagFec::kRepetition3);
  EXPECT_EQ(supervisor.payload_bytes(), 8u);
  EXPECT_GT(stats.goodput_kbps(), 0.0);
  EXPECT_EQ(stats.backoff_us.value(), 0.0);
}

TEST(Supervisor, DeliveriesAreDeterministic) {
  const auto run_once = [] {
    Session session(quiet_los(1.0, 33));
    Reader reader(session, {});
    LinkSupervisor supervisor(reader, {});
    util::ByteVec all;
    for (int p = 0; p < 3; ++p) {
      const auto result = supervisor.deliver(0);
      all.insert(all.end(), result.payload.begin(), result.payload.end());
    }
    return all;
  };
  EXPECT_EQ(run_once(), run_once());
}

/// Runs one bench cell at `n` consecutive bench seeds starting at the
/// claims seed base (default 4242, the benches' own seed): element r is
/// the cell of the run at `--seed base+r`. `cell(seed)` gets the bench
/// seed and derives its per-task seed the way the bench does.
template <typename Cell>
std::vector<ModeOutcome> cell_per_seed(std::size_t n, Cell cell) {
  const std::uint64_t base = claims::seed_base(4242);
  return runner::parallel_map(n, 0,
                              [&](std::size_t r) { return cell(base + r); });
}

/// Sums one cell's outcomes over its seeds.
ModeOutcome pooled(const std::vector<ModeOutcome>& cells) {
  ModeOutcome sum;
  for (const ModeOutcome& one : cells) {
    sum.goodput_kbps += one.goodput_kbps;
    sum.ok += one.ok;
  }
  return sum;
}

// The acceptance assertion behind fig_robustness, over the bench cells
// (tasks 4..7) of consecutive bench seeds. Rates below are from 240
// seeds under each sampler (Box-Muller / ziggurat). The supervised link
// delivers far more frames than the plain reader (9.9/9.8 vs 1.7/1.8 of
// 16 per seed at intensity 0.5, 2.1/2.0 vs 0.14/0.12 of 8 at 0.75), and
// the pooled count is asserted strictly. Its goodput pays for the
// retries and backoff, so its edge is smaller and is asserted in the
// form the seed spread supports:
// - At 0.75 the plain reader delivers nothing in ~88% of seeds. Mean
//   goodput is 0.138/0.132 vs 0.062/0.053 Kbps, and the mean over 48
//   seeds is asserted strictly (bootstrapped failure 0.7%/0.3%).
// - At 0.5 the mean is 0.50/0.49 vs 0.38/0.41 Kbps, but the supervised
//   link wins only 64%/62% of seeds, so a strict mean would need ~150
//   seeds to be stable. Instead its goodput must be strictly higher in
//   at least 12 of 32 seeds: the 0.1% quantile at the Box-Muller rate
//   (0.16% at the ziggurat one). A supervisor that lost 70% of its
//   goodput would win ~18% of seeds and fail.
TEST(Supervisor, DominatesGoodputUnderModerateFaults) {
  constexpr std::size_t kSeeds = 32;
  constexpr std::size_t kMinGoodputWins = 12;
  const auto unsup = cell_per_seed(kSeeds, [](std::uint64_t seed) {
    return run_mode(false, 0.5, util::Rng::derive_seed(seed, 4), 16);
  });
  const auto sup = cell_per_seed(kSeeds, [](std::uint64_t seed) {
    return run_mode(true, 0.5, util::Rng::derive_seed(seed, 5), 16);
  });
  std::size_t goodput_wins = 0;
  for (std::size_t r = 0; r < kSeeds; ++r) {
    if (sup[r].goodput_kbps > unsup[r].goodput_kbps) ++goodput_wins;
  }
  EXPECT_GT(pooled(sup).ok, pooled(unsup).ok);
  EXPECT_GE(goodput_wins, kMinGoodputWins);
}

TEST(Supervisor, DominatesGoodputUnderSevereFaults) {
  const auto unsup = pooled(cell_per_seed(48, [](std::uint64_t seed) {
    return run_mode(false, 0.75, util::Rng::derive_seed(seed, 6), 8);
  }));
  const auto sup = pooled(cell_per_seed(48, [](std::uint64_t seed) {
    return run_mode(true, 0.75, util::Rng::derive_seed(seed, 7), 8);
  }));
  EXPECT_GT(sup.ok, unsup.ok);
  EXPECT_GT(sup.goodput_kbps, unsup.goodput_kbps);
}

TEST(Supervisor, EscalatesFecUnderBurstyInterference) {
  auto cfg = los_testbed_config(util::Meters{3.0}, 55);
  cfg.faults = faults::hostile_plan(1.0, 0x01);  // interference only
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.max_rounds_per_frame = 12;
  Reader reader(session, rcfg);
  LinkSupervisor supervisor(reader, {});
  for (int p = 0; p < 8; ++p) supervisor.deliver(0);
  const auto& stats = supervisor.stats();
  EXPECT_GE(stats.fec_escalations + stats.frame_shrinks, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GT(stats.backoff_us.value(), 0.0);
  // The two-sided probe keeps the rate inside WiTAG's usable band: at
  // MCS < 5 the decoder rides through the tag's perturbation, so the
  // ladder must refuse to fall below it no matter how bad the channel.
  EXPECT_EQ(supervisor.mcs(), 5u);
}

TEST(Supervisor, ProbeVerifiedMcsFallbackFromFragileRate) {
  // Start the session at MCS 7, where clean subframes are already shaky:
  // under interference the ladder must step the rate down - and the
  // probe admits the lower rungs because corruption still breaks FCS
  // there. Whether one seed's 8 deliveries see enough interference to
  // fall back is luck, so this is a rate over seeds 40..79: under the
  // Box-Muller sampler 10 of them ended below MCS 7 after a fallback (34
  // of seeds 40..199). At that 34/160 rate the bound fails with
  // probability ~0.5%. No seed may leave the usable band.
  constexpr std::uint64_t kFirstSeed = 40;
  constexpr std::size_t kSeeds = 40;
  constexpr std::size_t kMinFallbacks = 3;
  struct Outcome {
    std::size_t fallbacks = 0;
    unsigned mcs = 0;
  };
  const auto outcomes = runner::parallel_map(kSeeds, 0, [](std::size_t i) {
    auto cfg = los_testbed_config(util::Meters{3.0}, kFirstSeed + i);
    cfg.query.mcs_index = 7;
    cfg.faults = faults::hostile_plan(0.5, 0x01);  // interference only
    Session session(cfg);
    ReaderConfig rcfg;
    rcfg.max_rounds_per_frame = 12;
    Reader reader(session, rcfg);
    LinkSupervisor supervisor(reader, {});
    for (int p = 0; p < 8; ++p) supervisor.deliver(0);
    return Outcome{supervisor.stats().mcs_fallbacks, supervisor.mcs()};
  });
  std::size_t fell_back = 0;
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_GE(outcomes[i].mcs, 5u) << "seed " << kFirstSeed + i;
    if (outcomes[i].fallbacks >= 1 && outcomes[i].mcs < 7) ++fell_back;
  }
  EXPECT_GE(fell_back, kMinFallbacks);
}

TEST(Supervisor, RecoversLadderWhenWindowHeals) {
  // Frequent probes + mild faults: escalations happen, and once the
  // window stays clean the ladder steps back toward the base rung.
  auto cfg = los_testbed_config(util::Meters{3.0}, 59);
  cfg.faults = faults::hostile_plan(0.5);
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.max_rounds_per_frame = 12;
  Reader reader(session, rcfg);
  SupervisorConfig scfg;
  scfg.probe_period = 2;
  LinkSupervisor supervisor(reader, scfg);
  for (int p = 0; p < 12; ++p) supervisor.deliver(0);
  const auto& stats = supervisor.stats();
  EXPECT_GE(stats.probes, 1u);
  EXPECT_GE(stats.recoveries, 1u);
}

TEST(Supervisor, GoodputChargesBackoffTime) {
  // An always-missing trigger fails every poll; the retries' backoff
  // idle time must appear in the stats and the goodput must be zero.
  auto cfg = quiet_los(1.0, 58);
  cfg.faults.trigger.miss_rate = 1.0;
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.max_rounds_per_frame = 4;
  Reader reader(session, rcfg);
  LinkSupervisor supervisor(reader, {});
  const auto result = supervisor.deliver(0);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.retries, 2u);
  const auto& stats = supervisor.stats();
  EXPECT_EQ(stats.deliveries_ok, 0u);
  EXPECT_GT(stats.backoff_us.value(), 0.0);
  EXPECT_EQ(stats.goodput_kbps(), 0.0);
}

// --- Rateless data plane -------------------------------------------------

/// One fig_rateless cell: a supervised link at `fec` across a hostile
/// testbed, optionally with the predictive round scheduler.
ModeOutcome run_fec_mode(TagFec fec, bool predictive, double intensity,
                         std::uint64_t seed, std::size_t polls) {
  auto cfg = los_testbed_config(util::Meters{3.0}, seed);
  cfg.faults = faults::hostile_plan(intensity);
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.fec = fec;
  rcfg.max_rounds_per_frame = 16;
  Reader reader(session, rcfg);
  SupervisorConfig scfg;
  scfg.predictive = predictive;
  LinkSupervisor supervisor(reader, scfg);
  for (std::size_t p = 0; p < polls; ++p) supervisor.deliver(0);
  ModeOutcome out;
  out.goodput_kbps = supervisor.stats().goodput_kbps();
  out.ok = supervisor.stats().deliveries_ok;
  return out;
}

TEST(RatelessScheduler, PredictorSkipsOnlyInsidePredictedBursts) {
  BurstPredictor bp(0.5, 0.55, 3);
  // No loss observed: never skip.
  EXPECT_FALSE(bp.should_skip());
  bp.observe(false);
  EXPECT_FALSE(bp.should_skip());
  // First loss: persistence estimate still at its 0.5 prior, below the
  // 0.55 threshold — no skip on a single loss.
  bp.observe(true);
  EXPECT_FALSE(bp.should_skip());
  // Second consecutive loss pushes P(lost | prev lost) to 0.75: a burst.
  bp.observe(true);
  EXPECT_GT(bp.burst_persistence(), 0.55);
  EXPECT_TRUE(bp.should_skip());
  EXPECT_TRUE(bp.should_skip());
  EXPECT_TRUE(bp.should_skip());
  // Cap: after max_consecutive_skips the next round is a forced probe.
  EXPECT_FALSE(bp.should_skip());
  EXPECT_EQ(bp.skips(), 3u);
  // A delivered round ends the burst; no skipping until the next one.
  bp.observe(false);
  EXPECT_FALSE(bp.should_skip());
}

TEST(RatelessScheduler, ObserveResetsSkipRun) {
  BurstPredictor bp(0.5, 0.55, 2);
  bp.observe(true);
  bp.observe(true);
  EXPECT_TRUE(bp.should_skip());
  EXPECT_TRUE(bp.should_skip());
  EXPECT_FALSE(bp.should_skip());  // cap hit
  bp.observe(true);                // probe round outcome: still lost
  // Fresh run: the cap counts consecutive skips, not lifetime skips.
  EXPECT_TRUE(bp.should_skip());
  EXPECT_EQ(bp.skips(), 3u);
}

TEST(RatelessScheduler, InstalledOnlyForPredictiveRateless) {
  Session session(quiet_los(1.0, 61));
  ReaderConfig rcfg;
  rcfg.fec = TagFec::kRateless;
  Reader reader(session, rcfg);
  SupervisorConfig scfg;
  scfg.predictive = true;
  LinkSupervisor supervisor(reader, scfg);
  EXPECT_NE(supervisor.predictor(), nullptr);

  Session session2(quiet_los(1.0, 62));
  Reader reader2(session2, {});  // classic FEC
  LinkSupervisor supervisor2(reader2, scfg);
  EXPECT_EQ(supervisor2.predictor(), nullptr);

  Session session3(quiet_los(1.0, 63));
  Reader reader3(session3, rcfg);
  LinkSupervisor supervisor3(reader3, {});  // predictive off
  EXPECT_EQ(supervisor3.predictor(), nullptr);
}

TEST(RatelessSupervisor, OverheadConvergesOnCleanChannel) {
  // A quiet link completes every decode on the systematic prefix
  // (droplets consumed == K), so the learned overhead EWMA must walk
  // from its 1.35 prior down to ~1.0.
  Session session(quiet_los(1.0, 64));
  ReaderConfig rcfg;
  rcfg.fec = TagFec::kRateless;
  Reader reader(session, rcfg);
  SupervisorConfig scfg;
  LinkSupervisor supervisor(reader, scfg);
  EXPECT_EQ(supervisor.overhead_ratio(), scfg.overhead_init);
  for (int p = 0; p < 12; ++p) {
    const auto result = supervisor.deliver(0);
    ASSERT_TRUE(result.ok) << "delivery " << p;
  }
  EXPECT_NEAR(supervisor.overhead_ratio(), 1.0, 0.05);
}

TEST(RatelessSupervisor, OverheadLearnsLossPenalty) {
  // Stationary loss costs droplets: the converged overhead under faults
  // must sit above the clean channel's ~1.0.
  auto cfg = los_testbed_config(util::Meters{3.0}, 65);
  cfg.faults = faults::hostile_plan(0.5);
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.fec = TagFec::kRateless;
  rcfg.max_rounds_per_frame = 16;
  Reader reader(session, rcfg);
  LinkSupervisor supervisor(reader, {});
  std::size_t ok = 0;
  for (int p = 0; p < 16; ++p) ok += supervisor.deliver(0).ok ? 1 : 0;
  ASSERT_GE(ok, 4u);  // the link does deliver under these faults
  EXPECT_GT(supervisor.overhead_ratio(), 1.0);
}

TEST(RatelessSupervisor, RatelessIsFecLadderFixedPoint) {
  // The ladder never steps kRateless to a repetition rung: overhead
  // adaptation replaces FEC escalation.
  auto cfg = los_testbed_config(util::Meters{3.0}, 66);
  cfg.faults = faults::hostile_plan(0.75);
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.fec = TagFec::kRateless;
  rcfg.max_rounds_per_frame = 16;
  Reader reader(session, rcfg);
  LinkSupervisor supervisor(reader, {});
  for (int p = 0; p < 10; ++p) supervisor.deliver(0);
  EXPECT_EQ(supervisor.fec(), TagFec::kRateless);
  EXPECT_EQ(supervisor.stats().fec_escalations, 0u);
}

// The acceptance assertion behind fig_rateless: the LT data plane beats
// repetition-5 goodput on the same hostile presets fig_robustness pins,
// pooled over the cells (tasks 8..11) of four consecutive bench seeds.
// Per seed it won in 45-48 of 48 seeds at both intensities, by ~7x
// (0.5) and ~13x (0.75) in the median; bootstrapped from those seeds, a
// 4-seed pool fails either assertion with probability below 0.5%.
TEST(RatelessSupervisor, BeatsRepetitionUnderModerateFaults) {
  const auto rep5 = pooled(cell_per_seed(4, [](std::uint64_t seed) {
    return run_fec_mode(TagFec::kRepetition5, false, 0.5,
                        util::Rng::derive_seed(seed, 8), 12);
  }));
  const auto lt = pooled(cell_per_seed(4, [](std::uint64_t seed) {
    return run_fec_mode(TagFec::kRateless, false, 0.5,
                        util::Rng::derive_seed(seed, 9), 12);
  }));
  EXPECT_GT(lt.goodput_kbps, rep5.goodput_kbps);
  EXPECT_GE(lt.ok, rep5.ok);
}

TEST(RatelessSupervisor, BeatsRepetitionUnderSevereFaults) {
  const auto rep5 = pooled(cell_per_seed(4, [](std::uint64_t seed) {
    return run_fec_mode(TagFec::kRepetition5, false, 0.75,
                        util::Rng::derive_seed(seed, 10), 8);
  }));
  const auto lt = pooled(cell_per_seed(4, [](std::uint64_t seed) {
    return run_fec_mode(TagFec::kRateless, false, 0.75,
                        util::Rng::derive_seed(seed, 11), 8);
  }));
  EXPECT_GT(lt.goodput_kbps, rep5.goodput_kbps);
  EXPECT_GE(lt.ok, rep5.ok);
}

TEST(RatelessSupervisor, PredictiveSchedulingSkipsAndStillDelivers) {
  const auto plain = run_fec_mode(TagFec::kRateless, false, 0.75,
                                  util::Rng::derive_seed(4242, 12), 8);
  auto cfg = los_testbed_config(util::Meters{3.0},
                                util::Rng::derive_seed(4242, 12));
  cfg.faults = faults::hostile_plan(0.75);
  Session session(cfg);
  ReaderConfig rcfg;
  rcfg.fec = TagFec::kRateless;
  rcfg.max_rounds_per_frame = 16;
  Reader reader(session, rcfg);
  SupervisorConfig scfg;
  scfg.predictive = true;
  LinkSupervisor supervisor(reader, scfg);
  std::size_t ok = 0;
  for (int p = 0; p < 8; ++p) ok += supervisor.deliver(0).ok ? 1 : 0;
  // Burst persistence under the severe preset is high enough that the
  // predictor actually sits rounds out — and the link still delivers.
  EXPECT_GE(supervisor.stats().rounds_skipped, 1u);
  EXPECT_GE(ok, plain.ok > 2 ? plain.ok - 2 : 1);
}

}  // namespace
}  // namespace witag::core
