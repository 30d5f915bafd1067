// City simulator tests: event-calendar ordering/pooling, and the
// headline determinism contract — run_city output is byte-identical
// across worker counts AND shard counts (DESIGN.md section 17).
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <vector>

#include "sim/city.hpp"
#include "sim/event_queue.hpp"
#include "sim/interference.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace witag {
namespace {

// ---------------------------------------------------------------------
// Event calendar.
// ---------------------------------------------------------------------

TEST(SimEventQueue, PopsInTimeOrder) {
  sim::EventQueue q;
  util::Rng rng(71);
  for (std::uint32_t i = 0; i < 500; ++i) {
    q.push(rng.uniform(0.0, 1e6), i);
  }
  ASSERT_EQ(q.size(), 500u);
  double prev = -1.0;
  while (!q.empty()) {
    const sim::Event e = q.pop();
    ASSERT_GE(e.time_us, prev);
    prev = e.time_us;
  }
}

TEST(SimEventQueue, TiesBreakInPushOrder) {
  sim::EventQueue q;
  // All events at the same instant, interleaved with earlier/later
  // ones: the tied block must pop exactly in push (seq) order.
  q.push(5.0, 100);
  for (std::uint32_t i = 0; i < 64; ++i) q.push(10.0, i);
  q.push(1.0, 200);
  ASSERT_EQ(q.pop().cell, 200u);
  ASSERT_EQ(q.pop().cell, 100u);
  for (std::uint32_t i = 0; i < 64; ++i) {
    const sim::Event e = q.pop();
    ASSERT_EQ(e.time_us, 10.0);
    ASSERT_EQ(e.cell, i) << "tie broke out of FIFO order";
  }
  ASSERT_TRUE(q.empty());
}

TEST(SimEventQueue, SeqIsMonotonicAcrossPushes) {
  sim::EventQueue q;
  q.push(3.0, 0);
  q.push(1.0, 1);
  q.push(2.0, 2);
  std::uint64_t seq1 = q.pop().seq;  // time 1.0 (second push)
  std::uint64_t seq2 = q.pop().seq;  // time 2.0 (third push)
  std::uint64_t seq0 = q.pop().seq;  // time 3.0 (first push)
  EXPECT_LT(seq0, seq1);
  EXPECT_LT(seq1, seq2);
}

TEST(SimEventQueue, PoolRecyclesNodesInSteadyState) {
  sim::EventQueue q;
  q.reserve(8);
  for (std::uint32_t i = 0; i < 8; ++i) q.push(static_cast<double>(i), i);
  EXPECT_EQ(q.pool_reuses(), 0u);
  EXPECT_EQ(q.pool_size(), 8u);
  // Steady state: every pop feeds the free list, every push drains it —
  // the pool never grows and every push after warm-up is a reuse.
  for (std::uint32_t step = 0; step < 1000; ++step) {
    const sim::Event e = q.pop();
    q.push(e.time_us + 8.0, e.cell);
  }
  EXPECT_EQ(q.pool_size(), 8u) << "steady-state loop grew the pool";
  EXPECT_EQ(q.pool_reuses(), 1000u);
}

// ---------------------------------------------------------------------
// Interference composition.
// ---------------------------------------------------------------------

TEST(SimInterference, CouplingIsSymmetricWithZeroDiagonal) {
  const auto centers = sim::cell_grid(9, util::Meters{25.0});
  const sim::CouplingMatrix m(centers, util::kWifi24GHz, util::Watts{0.03},
                              1.0);
  ASSERT_EQ(m.size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(m.at(i, i), 0.0);
    for (std::size_t j = 0; j < 9; ++j) {
      EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
      if (i != j) EXPECT_GT(m.at(i, j), 0.0);
    }
  }
}

TEST(SimInterference, AmbientNoiseIsLinearInLoadsAndClamped) {
  const auto centers = sim::cell_grid(4, util::Meters{20.0});
  const sim::CouplingMatrix m(centers, util::kWifi24GHz, util::Watts{0.03},
                              1.0);
  const std::vector<double> loads{0.5, 0.25, 0.0, 1.0};
  const auto a1 = sim::ambient_noise(m, loads);
  std::vector<double> doubled(loads);
  for (double& l : doubled) l *= 0.5;
  const auto a2 = sim::ambient_noise(m, doubled);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a1[i], 2.0 * a2[i]);
  }
  // Loads past 1.0 clamp (an exchange can straddle the epoch edge).
  const auto clamped = sim::ambient_noise(m, {5.0, 5.0, 5.0, 5.0});
  const auto unit = sim::ambient_noise(m, {1.0, 1.0, 1.0, 1.0});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(clamped[i], unit[i]);
  }
}

// ---------------------------------------------------------------------
// City determinism.
// ---------------------------------------------------------------------

sim::CityConfig small_city() {
  sim::CityConfig cfg;
  cfg.n_cells = 6;
  cfg.epochs = 2;
  cfg.epoch_us = 1'500.0;
  cfg.n_subframes = 8;
  cfg.mcs = 5;
  cfg.seed = 99;
  return cfg;
}

/// The byte-comparable essence of a CityResult (drops wall times and
/// shard-layout-dependent pool stats).
struct Essence {
  std::size_t bits, errors, rounds, lost;
  double goodput, ber, elapsed;
  double p50, p99, max;
  std::uint64_t latency_count, events;
  double ambient;

  bool operator==(const Essence&) const = default;
};

Essence essence(const sim::CityResult& r) {
  return {r.merged.bits(),         r.merged.bit_errors(),
          r.merged.rounds(),       r.merged.rounds_lost(),
          r.merged.goodput_kbps(), r.merged.ber(),
          r.merged.elapsed_us().value(),
          r.latency_us.p50,        r.latency_us.p99,
          r.latency_us.max,        r.latency_count,
          r.events,                r.mean_ambient_w};
}

TEST(SimCityDeterminism, IdenticalAcrossWorkerCounts) {
  sim::CityConfig cfg = small_city();
  cfg.n_shards = 4;
  const Essence j1 = essence(sim::run_city(cfg, 1));
  const Essence j2 = essence(sim::run_city(cfg, 2));
  const Essence j8 = essence(sim::run_city(cfg, 8));
  EXPECT_EQ(j1, j2);
  EXPECT_EQ(j1, j8);
}

TEST(SimCityDeterminism, IdenticalAcrossShardCounts) {
  sim::CityConfig cfg = small_city();
  cfg.n_shards = 1;
  const Essence s1 = essence(sim::run_city(cfg, 2));
  cfg.n_shards = 4;
  const Essence s4 = essence(sim::run_city(cfg, 2));
  cfg.n_shards = 6;  // one cell per shard
  const Essence s6 = essence(sim::run_city(cfg, 2));
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, s6);
}

TEST(SimCityDeterminism, ProgressAndPoolBehaveSane) {
  sim::CityConfig cfg = small_city();
  cfg.n_shards = 2;
  const sim::CityResult r = sim::run_city(cfg, 1);
  EXPECT_GT(r.events, 0u);
  EXPECT_GT(r.merged.bits(), 0u);
  EXPECT_GT(r.latency_count, 0u);
  // One pending event per cell: the pool never grows past the shard's
  // cell count, and after warm-up every scheduled event reuses a node.
  EXPECT_LE(r.pool_peak, cfg.n_cells);
  EXPECT_EQ(r.pool_reuses, r.events);
  EXPECT_GT(r.mean_ambient_w, 0.0);
}

TEST(SimCityDeterminism, CouplingScaleZeroMeansNoAmbientFloor) {
  sim::CityConfig cfg = small_city();
  cfg.coupling_scale = 0.0;
  const sim::CityResult off = sim::run_city(cfg, 1);
  EXPECT_EQ(off.mean_ambient_w, 0.0);
  cfg.coupling_scale = 1.0;
  const sim::CityResult on = sim::run_city(cfg, 1);
  EXPECT_GT(on.mean_ambient_w, 0.0);
  // Interference only ever hurts: the ambient floor cannot reduce the
  // error count of an otherwise identical deployment.
  EXPECT_GE(on.merged.bit_errors(), off.merged.bit_errors());
}

TEST(SimCitySupervised, DeterministicDeliveries) {
  sim::CityConfig cfg;
  cfg.n_cells = 2;
  cfg.epochs = 1;
  cfg.epoch_us = 30'000.0;
  cfg.n_subframes = 8;
  cfg.mcs = 2;
  cfg.supervised = true;
  cfg.seed = 7;
  const sim::CityResult a = sim::run_city(cfg, 1);
  const sim::CityResult b = sim::run_city(cfg, 2);
  EXPECT_EQ(a.deliveries_ok, b.deliveries_ok);
  EXPECT_EQ(a.deliveries_failed, b.deliveries_failed);
  EXPECT_EQ(essence(a), essence(b));
  EXPECT_GT(a.deliveries_ok + a.deliveries_failed, 0u);
}

// ---------------------------------------------------------------------
// CityConfig::validate: one readable reason per field a command line
// can break, instead of a WITAG_REQUIRE deep inside run_city.
// ---------------------------------------------------------------------

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimCityValidate, AcceptsTheDefaultsAndTheEdgesOfEachRange) {
  EXPECT_EQ(sim::CityConfig{}.validate(), "");
  sim::CityConfig cfg = small_city();
  EXPECT_EQ(cfg.validate(), "");
  cfg.n_cells = 1;
  cfg.epochs = 1;
  cfg.mcs = 0;
  cfg.n_subframes = 6;
  cfg.coupling_scale = 0.0;
  EXPECT_EQ(cfg.validate(), "");
  EXPECT_NO_THROW(sim::run_city(cfg, 1));
  cfg.mcs = 7;
  cfg.n_subframes = 64;
  EXPECT_EQ(cfg.validate(), "");
  EXPECT_NO_THROW(sim::run_city(cfg, 1));
}

TEST(SimCityValidate, RejectsNoCells) {
  sim::CityConfig cfg = small_city();
  cfg.n_cells = 0;
  EXPECT_EQ(cfg.validate(), "a deployment needs at least one cell");
}

TEST(SimCityValidate, RejectsNoEpochs) {
  sim::CityConfig cfg = small_city();
  cfg.epochs = 0;
  EXPECT_EQ(cfg.validate(), "epochs must be at least 1");
}

TEST(SimCityValidate, RejectsEpochLengthsThatAreNotPositive) {
  sim::CityConfig cfg = small_city();
  cfg.epoch_us = -5.0;
  EXPECT_EQ(cfg.validate(),
            "epoch length must be a positive number of us, not -5");
  for (const double bad : {0.0, kNan, kInf}) {
    cfg.epoch_us = bad;
    EXPECT_NE(cfg.validate(), "") << bad;
  }
}

TEST(SimCityValidate, RejectsMcsOutsideTheTable) {
  sim::CityConfig cfg = small_city();
  cfg.mcs = 9;
  EXPECT_EQ(cfg.validate(), "MCS 9 is not one of 0-7");
  cfg.mcs = 8;
  EXPECT_NE(cfg.validate(), "");
}

TEST(SimCityValidate, RejectsSubframeCountsTheQueryCannotPlan) {
  sim::CityConfig cfg = small_city();
  cfg.n_subframes = 0;
  EXPECT_EQ(cfg.validate(), "subframes per query must be 6-64, not 0");
  for (const unsigned bad : {5u, 65u}) {
    cfg.n_subframes = bad;
    EXPECT_NE(cfg.validate(), "") << bad;
  }
}

TEST(SimCityValidate, RejectsTagPositionsOutsideTheLab) {
  sim::CityConfig cfg = small_city();
  for (const double bad : {0.0, -1.0, 8.0, kNan}) {
    cfg.tag_pos_m = bad;
    EXPECT_NE(cfg.validate(), "") << bad;
  }
}

TEST(SimCityValidate, RejectsCellSpacingThatIsNotPositive) {
  sim::CityConfig cfg = small_city();
  for (const double bad : {0.0, -25.0, kNan, kInf}) {
    cfg.cell_spacing_m = bad;
    EXPECT_NE(cfg.validate(), "") << bad;
  }
}

TEST(SimCityValidate, RejectsNegativeCoupling) {
  sim::CityConfig cfg = small_city();
  for (const double bad : {-0.01, kNan, kInf}) {
    cfg.coupling_scale = bad;
    EXPECT_NE(cfg.validate(), "") << bad;
  }
}

}  // namespace
}  // namespace witag
