#include "runner/parallel_sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "runner/thread_pool.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "witag/metrics.hpp"
#include "witag/session.hpp"

namespace witag::runner {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReentrant) {
  ThreadPool pool(2);
  pool.wait_idle();  // Nothing submitted yet.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(default_jobs(), 1u);
}

TEST(ParallelMap, PreservesIndexOrder) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{3},
                                 std::size_t{8}}) {
    const auto out =
        parallel_map(100, jobs, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * i) << "jobs=" << jobs;
    }
  }
}

TEST(ParallelMap, HandlesMoreJobsThanTasks) {
  const auto out = parallel_map(3, 16, [](std::size_t i) { return i + 1; });
  EXPECT_EQ(out, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ParallelMap, EmptyCountIsFine) {
  const auto out = parallel_map(0, 4, [](std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
}

TEST(ParallelMap, RethrowsFirstTaskError) {
  const auto body = [](std::size_t i) -> int {
    if (i == 7) throw std::runtime_error("task 7 failed");
    return static_cast<int>(i);
  };
  EXPECT_THROW(parallel_map(16, 4, body), std::runtime_error);
  EXPECT_THROW(parallel_map(16, 1, body), std::runtime_error);
}

TEST(DeriveSeed, IsPureAndDeterministic) {
  const std::uint64_t a = util::Rng::derive_seed(42, 0);
  const std::uint64_t b = util::Rng::derive_seed(42, 0);
  EXPECT_EQ(a, b);
  // O(1) in the index: jumping straight to task 1000 equals whatever a
  // serial enumeration would have assigned it.
  EXPECT_EQ(util::Rng::derive_seed(42, 1000), util::Rng::derive_seed(42, 1000));
}

TEST(DeriveSeed, SpreadsAcrossTasksAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    for (std::uint64_t task = 0; task < 64; ++task) {
      seen.insert(util::Rng::derive_seed(base, task));
    }
  }
  // splitmix64 decorrelates the (base + task * golden) states; any
  // collision here would alias two Monte-Carlo streams.
  EXPECT_EQ(seen.size(), 3u * 64u);
}

core::LinkMetrics sample_metrics(std::uint64_t seed, std::size_t rounds) {
  util::Rng rng(seed);
  core::LinkMetrics m;
  for (std::size_t r = 0; r < rounds; ++r) {
    const util::BitVec sent = rng.bits(16);
    std::vector<bool> received(sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      received[i] = rng.uniform() < 0.9 ? (sent[i] != 0) : (sent[i] == 0);
    }
    m.record_round(sent, received, rng.uniform() < 0.1,
                   util::Micros{1000.0 + 10.0 * r});
  }
  return m;
}

void expect_metrics_eq(const core::LinkMetrics& x, const core::LinkMetrics& y) {
  EXPECT_EQ(x.bits(), y.bits());
  EXPECT_EQ(x.bit_errors(), y.bit_errors());
  EXPECT_EQ(x.missed_corruptions(), y.missed_corruptions());
  EXPECT_EQ(x.false_corruptions(), y.false_corruptions());
  EXPECT_EQ(x.rounds(), y.rounds());
  EXPECT_EQ(x.rounds_lost(), y.rounds_lost());
  EXPECT_DOUBLE_EQ(x.elapsed_us().value(), y.elapsed_us().value());
}

TEST(LinkMetricsMerge, EmptyIsIdentity) {
  const core::LinkMetrics x = sample_metrics(7, 20);
  core::LinkMetrics left;  // empty ⊕ x
  left.merge(x);
  expect_metrics_eq(left, x);
  core::LinkMetrics right = x;  // x ⊕ empty
  right.merge(core::LinkMetrics{});
  expect_metrics_eq(right, x);
}

TEST(LinkMetricsMerge, IsAssociative) {
  const core::LinkMetrics a = sample_metrics(1, 10);
  const core::LinkMetrics b = sample_metrics(2, 15);
  const core::LinkMetrics c = sample_metrics(3, 5);

  core::LinkMetrics ab = a;  // (a ⊕ b) ⊕ c
  ab.merge(b);
  ab.merge(c);

  core::LinkMetrics bc = b;  // a ⊕ (b ⊕ c)
  bc.merge(c);
  core::LinkMetrics a_bc = a;
  a_bc.merge(bc);

  expect_metrics_eq(ab, a_bc);
}

TEST(LinkMetricsMerge, MatchesRecordingEverythingInOneAccumulator) {
  // Splitting the same rounds across two accumulators and merging must
  // equal one accumulator that saw all of them.
  core::LinkMetrics whole;
  core::LinkMetrics first;
  core::LinkMetrics second;
  util::Rng rng(99);
  for (std::size_t r = 0; r < 12; ++r) {
    const util::BitVec sent = rng.bits(8);
    std::vector<bool> received(sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      received[i] = sent[i] != 0;
    }
    whole.record_round(sent, received, false, util::Micros{500.0});
    (r < 6 ? first : second)
        .record_round(sent, received, false, util::Micros{500.0});
  }
  first.merge(second);
  expect_metrics_eq(first, whole);
}

std::vector<SweepTask> sweep_fixture(std::size_t n_tasks) {
  std::vector<SweepTask> tasks;
  for (std::size_t i = 0; i < n_tasks; ++i) {
    auto cfg = core::los_testbed_config(
        util::Meters{1.0 + static_cast<double>(i % 7)},
        util::Rng::derive_seed(1234, i));
    tasks.push_back({std::move(cfg), 3});
  }
  return tasks;
}

void expect_run_stats_eq(const core::Session::RunStats& x,
                         const core::Session::RunStats& y) {
  expect_metrics_eq(x.metrics, y.metrics);
  EXPECT_EQ(x.triggers_missed, y.triggers_missed);
  EXPECT_DOUBLE_EQ(x.mean_snr_db.value(), y.mean_snr_db.value());
  EXPECT_DOUBLE_EQ(x.tag_perturbation_db.value(),
                   y.tag_perturbation_db.value());
}

// The tentpole contract: the merged result and every per-task result are
// bit-identical whether the sweep runs serially or on 2 or 8 workers.
TEST(RunSweep, ResultsInvariantAcrossWorkerCounts) {
  const auto tasks = sweep_fixture(6);
  // Workers share the obs counters; their totals are exact too.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();

  SweepOptions serial;
  serial.jobs = 1;
  reg.reset();
  const SweepResult base = run_sweep(tasks, serial);
  const obs::MetricsSnapshot base_counts = reg.snapshot();
  EXPECT_EQ(base.jobs, 1u);
  EXPECT_EQ(base.per_task.size(), tasks.size());
  EXPECT_EQ(base_counts.counters.at("runner.tasks"), tasks.size());
  EXPECT_GT(base_counts.counters.at("session.rounds"), 0u);

  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    SweepOptions opts;
    opts.jobs = jobs;
    reg.reset();
    const SweepResult got = run_sweep(tasks, opts);
    const obs::MetricsSnapshot counts = reg.snapshot();
    EXPECT_EQ(counts.counters.at("runner.tasks"), tasks.size());
    EXPECT_EQ(counts.counters.at("session.rounds"),
              base_counts.counters.at("session.rounds"));
    EXPECT_EQ(got.jobs, std::min(jobs, tasks.size()));
    ASSERT_EQ(got.per_task.size(), base.per_task.size());
    for (std::size_t i = 0; i < base.per_task.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " task=" +
                   std::to_string(i));
      expect_run_stats_eq(got.per_task[i], base.per_task[i]);
    }
    expect_metrics_eq(got.merged, base.merged);
    EXPECT_EQ(got.triggers_missed, base.triggers_missed);
  }
}

TEST(RunSweep, MergedEqualsFoldOfPerTask) {
  const auto tasks = sweep_fixture(4);
  const SweepResult result = run_sweep(tasks, {});
  core::LinkMetrics folded;
  std::size_t missed = 0;
  for (const auto& stats : result.per_task) {
    folded.merge(stats.metrics);
    missed += stats.triggers_missed;
  }
  expect_metrics_eq(result.merged, folded);
  EXPECT_EQ(result.triggers_missed, missed);
}

// Stronger than aggregate equality: the raw per-round bit streams out of
// each task's Session are byte-for-byte identical at any worker count.
TEST(RunnerDeterminism, RoundBitStreamsInvariantAcrossWorkerCounts) {
  struct TaskTrace {
    std::vector<util::BitVec> sent;
    std::vector<std::vector<bool>> received;
    std::vector<bool> lost;
  };
  const auto run_all = [](std::size_t jobs) {
    return parallel_map(5, jobs, [](std::size_t i) -> TaskTrace {
      auto cfg = core::los_testbed_config(util::Meters{2.0 + static_cast<double>(i)},
                                          util::Rng::derive_seed(777, i));
      core::Session session(cfg);
      TaskTrace trace;
      for (int r = 0; r < 3; ++r) {
        auto round = session.run_round();
        trace.sent.push_back(std::move(round.sent));
        trace.received.push_back(std::move(round.received));
        trace.lost.push_back(round.lost);
      }
      return trace;
    });
  };

  const auto base = run_all(1);
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const auto got = run_all(jobs);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) + " task=" +
                   std::to_string(i));
      EXPECT_EQ(got[i].sent, base[i].sent);
      EXPECT_EQ(got[i].received, base[i].received);
      EXPECT_EQ(got[i].lost, base[i].lost);
    }
  }
}

}  // namespace
}  // namespace witag::runner
