// Microbenchmarks (google-benchmark) for the city simulator's engine
// primitives: the event-calendar hot loop, the cell-order result merge
// and the epoch-barrier interference composition. These bound how many
// city events a core can push per second; bench/BENCH_sim.json pins
// the gauges (see tools/bench_compare).
#include <benchmark/benchmark.h>

#include <vector>

#include "micro_main.hpp"
#include "obs/hdr.hpp"
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

// Runs the benchmarks under a RunScope read from the obs flags; a
// malformed one reaches util::run_main as std::invalid_argument.
int bench_main(const util::Args& args) {
  obs::RunScope obs_run("micro_sim", args);
  bench::ObsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return witag::bench::micro_main("micro_sim", argc, argv, bench_main);
}
