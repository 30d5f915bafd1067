// Paper-shape claims of EXPERIMENTS.md as tests (ctest label `claims`).
//
// Each test pools several seed sets (claims.hpp) at reduced size and
// asserts a shape, not one seed's digits: errors cluster by seed (an
// interference burst or a blocked walk costs whole rounds), so a single
// realization of a figure can swing several-fold. Tolerances were set
// from the spread across disjoint WITAG_CLAIMS_SEED_BASE values, and
// every test passes on at least three bases.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <iostream>
#include <vector>

#include "channel/tag_path.hpp"
#include "claims.hpp"
#include "runner/parallel_sweep.hpp"
#include "sim/city.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"
#include "witag/metrics.hpp"
#include "witag/session.hpp"

namespace witag {
namespace {

constexpr std::uint64_t kDefaultBase = 1;

/// Runs `tasks` serially (ctest already runs tests side by side).
runner::SweepResult run_serial(const std::vector<runner::SweepTask>& tasks) {
  runner::SweepOptions opts;
  opts.jobs = 1;
  return runner::run_sweep(tasks, opts);
}

double pooled_ber(const core::LinkMetrics& a, const core::LinkMetrics& b) {
  return static_cast<double>(a.bit_errors() + b.bit_errors()) /
         static_cast<double>(a.bits() + b.bits());
}

// Figure 5 (LOS, 8 m link): BER near either device sits at the paper's
// ~0.01 floor, and the mid-link position is worse than both ends. Four
// sets of the bench's default size (4 runs x 45 rounds) at 1, 4, 7 m.
TEST(ClaimsFig5, EndsNearOnePercentAndMidLinkWorse) {
  constexpr std::size_t kSets = 4;
  constexpr std::size_t kRuns = 4;
  constexpr std::size_t kRounds = 45;
  constexpr std::array<int, 3> kPositions = {1, 4, 7};
  const std::uint64_t base = claims::seed_base(kDefaultBase);

  std::vector<runner::SweepTask> tasks;
  for (std::size_t set = 0; set < kSets; ++set) {
    for (const int pos : kPositions) {
      const auto first = static_cast<std::uint64_t>(pos) * 1000;
      for (std::size_t run = 0; run < kRuns; ++run) {
        tasks.push_back(
            {core::los_testbed_config(util::Meters{static_cast<double>(pos)},
                                      claims::set_seed(base, set, first + run)),
             kRounds});
      }
    }
  }
  const runner::SweepResult result = run_serial(tasks);

  std::array<core::LinkMetrics, 3> pooled;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    pooled[(i / kRuns) % kPositions.size()].merge(result.per_task[i].metrics);
  }
  const double end_1m = pooled[0].ber();
  const double mid_4m = pooled[1].ber();
  const double end_7m = pooled[2].ber();
  const double ends = pooled_ber(pooled[0], pooled[2]);
  std::cout << "seed base " << base << ": BER 1 m " << end_1m << ", 4 m "
            << mid_4m << ", 7 m " << end_7m << ", ends pooled " << ends
            << "\n";

  EXPECT_GT(mid_4m, end_1m);
  EXPECT_GT(mid_4m, end_7m);
  // Paper: ~0.01 at the ends. Over 24 seed bases of the Box-Muller
  // sampler the pooled ends ranged 0.008-0.019 and 4 m 0.044-0.063; the
  // band is 0.01 within a factor of 2.5.
  EXPECT_GT(ends, 0.004);
  EXPECT_LT(ends, 0.025);
}

// Figure 6 (NLOS): location B (~17 m, behind every wall) is worse than
// location A (~7 m). The medians order in every set; the 90th
// percentiles order only once sets are pooled (one lost round puts a
// measurement at BER 0.05, so one set can put a burst in A's tail), so
// p90 is asserted pooled and the B/A ratio not at all. Four sets failed
// the pooled p90 on one of 27 seed bases; six passed on all 30 tried.
TEST(ClaimsFig6, LocationBWorseThanA) {
  constexpr std::size_t kSets = 6;
  constexpr std::size_t kMeasurements = 12;
  constexpr std::size_t kRounds = 20;
  const std::uint64_t base = claims::seed_base(kDefaultBase);

  std::vector<runner::SweepTask> tasks;
  for (std::size_t set = 0; set < kSets; ++set) {
    for (const bool location_b : {false, true}) {
      for (std::size_t m = 0; m < kMeasurements; ++m) {
        tasks.push_back(
            {core::nlos_testbed_config(
                 location_b,
                 claims::set_seed(base, set, (location_b ? 100000 : 0) + m)),
             kRounds});
      }
    }
  }
  const runner::SweepResult result = run_serial(tasks);

  std::vector<double> all_a;
  std::vector<double> all_b;
  std::size_t task = 0;
  for (std::size_t set = 0; set < kSets; ++set) {
    std::vector<double> a;
    std::vector<double> b;
    for (std::size_t m = 0; m < kMeasurements; ++m) {
      a.push_back(result.per_task[task++].metrics.ber());
    }
    for (std::size_t m = 0; m < kMeasurements; ++m) {
      b.push_back(result.per_task[task++].metrics.ber());
    }
    all_a.insert(all_a.end(), a.begin(), a.end());
    all_b.insert(all_b.end(), b.begin(), b.end());
    const double p50_a = util::Ecdf(a).quantile(0.5);
    const double p50_b = util::Ecdf(b).quantile(0.5);
    std::cout << "seed base " << base << " set " << set << ": p50 A "
              << p50_a << ", B " << p50_b << "\n";
    EXPECT_GT(p50_b, p50_a) << "set " << set;
  }
  const double p90_a = util::Ecdf(all_a).quantile(0.9);
  const double p90_b = util::Ecdf(all_b).quantile(0.9);
  std::cout << "seed base " << base << " pooled: p90 A " << p90_a << ", B "
            << p90_b << "\n";
  EXPECT_GT(p90_b, p90_a);
}

// Figure 3 study: the 0/180-degree phase-flip tag moves the channel
// twice as far as the open/short tag, and that buys a lower BER at every
// position along the link (open/short falls off the corruption cliff).
TEST(ClaimsFig3, PhaseFlipBelowOpenShortAtEveryPosition) {
  constexpr std::size_t kSets = 3;
  constexpr std::size_t kRounds = 15;
  const std::uint64_t base = claims::seed_base(kDefaultBase);

  for (int pos = 1; pos <= 7; ++pos) {
    std::array<core::LinkMetrics, 2> pooled;  // open/short, phase-flip
    for (std::size_t set = 0; set < kSets; ++set) {
      std::size_t slot = 0;
      for (const auto mode :
           {channel::TagMode::kOpenShort, channel::TagMode::kPhaseFlip}) {
        auto cfg = core::los_testbed_config(
            util::Meters{static_cast<double>(pos)},
            claims::set_seed(base, set, static_cast<std::uint64_t>(pos)));
        cfg.tag_mode = mode;
        core::Session session(cfg);
        pooled[slot++].merge(session.run(kRounds).metrics);
      }
    }
    std::cout << "seed base " << base << " " << pos << " m: open/short "
              << pooled[0].ber() << ", phase-flip " << pooled[1].ber()
              << "\n";
    EXPECT_LT(pooled[1].ber(), pooled[0].ber()) << pos << " m";
  }
}

// City scale (bench/fig_city): with cross-cell coupling off the cells
// are independent, so the deployment's goodput (good tag bits over the
// simulated span) grows in proportion to the cell count. fig_city's CI
// sizes, 32 and 128 cells, over four seed sets.
TEST(ClaimsCity, GoodputScalesWithCellsWithoutCoupling) {
  constexpr std::size_t kSets = 4;
  constexpr std::array<std::size_t, 2> kCells = {32, 128};
  const std::uint64_t base = claims::seed_base(kDefaultBase);

  std::array<double, 2> goodput_kbps{};
  for (std::size_t i = 0; i < kCells.size(); ++i) {
    double good_bits = 0.0;
    double span_us = 0.0;
    for (std::size_t set = 0; set < kSets; ++set) {
      sim::CityConfig cfg;
      cfg.n_cells = kCells[i];
      cfg.n_shards = 8;
      cfg.epochs = 2;
      cfg.epoch_us = 1'500.0;
      cfg.n_subframes = 8;
      cfg.coupling_scale = 0.0;
      cfg.seed = claims::set_seed(base, set, kCells[i]);
      const sim::CityResult r = sim::run_city(cfg, 1);
      good_bits +=
          static_cast<double>(r.merged.bits() - r.merged.bit_errors());
      span_us += static_cast<double>(cfg.epochs) * cfg.epoch_us;
    }
    goodput_kbps[i] = good_bits / span_us * 1e3;
  }
  const double ratio = goodput_kbps[1] / goodput_kbps[0];
  std::cout << "seed base " << base << ": goodput " << kCells[0]
            << " cells " << goodput_kbps[0] << " Kbps, " << kCells[1]
            << " cells " << goodput_kbps[1] << " Kbps, ratio " << ratio
            << "\n";
  // Over 11 bases (default, 2, 3, 1000, 10000-70000) the ratio spanned
  // 3.975-4.043 (sd 0.023); a per-cell figure would read ~1.
  EXPECT_NEAR(ratio, 4.0, 0.1);
}

}  // namespace
}  // namespace witag
