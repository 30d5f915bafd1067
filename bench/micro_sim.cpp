// Microbenchmarks (google-benchmark) for the city simulator's engine
// primitives: the event-calendar hot loop, the cell-order result merge
// and the epoch-barrier interference composition. These bound how many
// city events a core can push per second; bench/BENCH_sim.json pins
// the gauges (see tools/bench_compare).
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "sim/event_queue.hpp"
#include "sim/interference.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "witag/metrics.hpp"

namespace {

using namespace witag;

// Steady-state calendar churn at a realistic shard occupancy (one
// pending event per cell, 256 cells): pop the earliest event, schedule
// its successor. After warm-up every push reuses a pooled node, so
// this is the zero-allocation path the hot-alloc lint pins and the
// gauge is pure heap sift + pool recycle cost per event.
void BM_EventLoop(benchmark::State& state) {
  constexpr std::size_t kCells = 256;
  sim::EventQueue q;
  q.reserve(kCells);
  util::Rng rng(3);
  for (std::uint32_t c = 0; c < kCells; ++c) {
    q.push(rng.uniform(0.0, 500.0), c);
  }
  for (auto _ : state) {
    const sim::Event e = q.pop();
    q.push(e.time_us + 480.0 + static_cast<double>(e.cell % 7), e.cell);
    benchmark::DoNotOptimize(q.size());
  }
}
BENCHMARK(BM_EventLoop);

// The end-of-run fold: 64 cells' LinkMetrics and latency histograms
// merged in cell-index order into fresh accumulators, exactly what
// run_city does after the last epoch. Per-iteration cost is the merge
// itself; the fixtures are built once outside the timed loop.
void BM_ShardMerge(benchmark::State& state) {
  constexpr std::size_t kCells = 64;
  util::Rng rng(4);
  std::vector<core::LinkMetrics> metrics(kCells);
  std::vector<obs::HdrHistogram> latencies(kCells);
  const std::vector<std::uint8_t> sent(128, 1);
  const std::vector<bool> received(128, true);
  for (std::size_t c = 0; c < kCells; ++c) {
    for (int round = 0; round < 8; ++round) {
      metrics[c].record_round(sent, received, false, util::Micros{400.0});
      latencies[c].record(rng.uniform(50.0, 5'000.0));
    }
  }
  for (auto _ : state) {
    core::LinkMetrics merged;
    obs::HdrHistogram latency;
    for (std::size_t c = 0; c < kCells; ++c) {
      merged.merge(metrics[c]);
      latency.merge(latencies[c]);
    }
    benchmark::DoNotOptimize(merged.bits());
    benchmark::DoNotOptimize(latency.count());
  }
}
BENCHMARK(BM_ShardMerge);

// The epoch barrier's pure function: 256 cells' ambient floors from
// the dense coupling matrix and this epoch's airtime loads. O(n^2)
// dense accumulate — the term that eventually caps deployment size.
void BM_AmbientCompose(benchmark::State& state) {
  constexpr std::size_t kCells = 256;
  const sim::CouplingMatrix coupling(
      sim::cell_grid(kCells, util::Meters{25.0}), util::kWifi24GHz,
      util::Watts{0.03}, 1.0);
  util::Rng rng(5);
  std::vector<double> loads(kCells);
  for (double& l : loads) l = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::ambient_noise(coupling, loads));
  }
}
BENCHMARK(BM_AmbientCompose);

// Console output as usual, plus one obs gauge per benchmark
// (`bench.<name>.ns_per_op`) so `--metrics-out FILE` captures the run
// as a machine-readable baseline (see bench/BENCH_sim.json).
class ObsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      obs::gauge("bench." + run.benchmark_name() + ".ns_per_op")
          .set(run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

// Runs the benchmarks under a RunScope read from the obs flags; a
// malformed one reaches util::run_main as std::invalid_argument.
int bench_main(const util::Args& args) {
  obs::RunScope obs_run("micro_sim", args);
  ObsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Split the standard obs flags (see util/cli.hpp) off argv before
  // google-benchmark sees it — it rejects flags it does not know.
  std::vector<char*> bench_argv{argv[0]};
  std::vector<const char*> obs_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace-out" || arg == "--metrics-out" ||
        arg == "--no-metrics" || arg == "--ledger") {
      obs_argv.push_back(argv[i]);
      const bool takes_value = arg == "--trace-out" || arg == "--metrics-out";
      if (takes_value && i + 1 < argc) obs_argv.push_back(argv[++i]);
    } else {
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }

  return witag::util::run_main("micro_sim", static_cast<int>(obs_argv.size()),
                               obs_argv.data(), bench_main);
}
