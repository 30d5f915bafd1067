// Long-run soak: a fig5-style sweep stretched ~100x, chunked so memory
// is sampled between chunks, under the hostile fault preset — the
// workload the streaming telemetry path exists for.
//
// Each chunk is an independent run_sweep() of `--runs` sessions x
// `--rounds` exchanges; chunk results fold into one LinkMetrics, so
// stdout (the summary table) is byte-identical for any --jobs. VmRSS is
// sampled from /proc/self/status after every chunk and exported as the
// soak.rss_kb gauge; `--assert-rss-growth-mb M` fails the run (exit 1)
// when RSS grows more than M MiB beyond the post-warmup baseline —
// the CI smoke uses that to prove the telemetry stream does not
// accumulate memory. RSS and timing go to stderr only.
//
// Live telemetry: pass the RunScope streaming flags, e.g.
//   bench/soak --chunks 400 --stream-out soak.jsonl &
//   tools/telemetry_tail --follow soak.jsonl
//
// Options: --chunks N (default 400), --runs N (sessions per chunk,
//          default 8), --rounds N (exchanges per session, default 45),
//          --pos METERS, --intensity X (hostile-plan level, default
//          0.5), --faults MASK, --seed S, --jobs N,
//          --warmup-chunks N (RSS baseline point, default 20),
//          --assert-rss-growth-mb M (0 = report only),
//          --progress-every N (stderr heartbeat, default 50)
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "runner/parallel_sweep.hpp"
#include "util/cli.hpp"
#include "witag/config.hpp"
#include "witag/metrics.hpp"

namespace {

using namespace witag;

/// Resident set size in KiB from /proc/self/status; 0 when unavailable
/// (non-Linux), which disables the RSS assertions.
std::uint64_t rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

int bench_main(const util::Args& args) {
  const std::size_t chunks = args.get_u64("chunks", 400);
  const std::size_t runs = args.get_u64("runs", 8);
  const std::size_t rounds = args.get_u64("rounds", 45);
  const double pos = args.get_double("pos", 3.0);
  const double intensity = args.get_double("intensity", 0.5);
  const std::uint64_t fault_bits =
      args.get_u64("faults", faults::kAllInjectors);
  const std::uint64_t seed = args.get_u64("seed", 20260807);
  const std::size_t warmup = args.get_u64("warmup-chunks", 20);
  const double rss_limit_mb = args.get_double("assert-rss-growth-mb", 0.0);
  const std::size_t progress_every = args.get_u64("progress-every", 50);
  runner::SweepOptions opts;
  opts.jobs = runner::jobs_from_args(args);

  obs::RunScope obs_run("soak", args);
  obs_run.config("chunks", static_cast<double>(chunks));
  obs_run.config("runs", static_cast<double>(runs));
  obs_run.config("rounds", static_cast<double>(rounds));
  obs_run.config("pos", pos);
  obs_run.config("intensity", intensity);
  obs_run.config("faults", static_cast<double>(fault_bits));
  obs_run.config("seed", static_cast<double>(seed));
  args.check();
  if (!(pos > 0.0 && pos < 8.0)) {
    throw std::invalid_argument("--pos: " + core::Table::num(pos, 2) +
                                " m is not strictly between 0 and 8 m");
  }
  if (!(intensity >= 0.0 && intensity <= 1.0)) {
    throw std::invalid_argument("--intensity: " +
                                core::Table::num(intensity, 2) +
                                " is outside [0, 1]");
  }
  if ((fault_bits & ~std::uint64_t{faults::kAllInjectors}) != 0) {
    throw std::invalid_argument("--faults: " + std::to_string(fault_bits) +
                                " sets a bit outside the injector mask " +
                                std::to_string(faults::kAllInjectors));
  }
  const auto fault_mask = static_cast<unsigned>(fault_bits);

  std::cout << "=== Soak: " << chunks << " chunks x " << runs << " runs x "
            << rounds << " rounds, intensity "
            << core::Table::num(intensity, 2) << ", fault mask 0x" << std::hex
            << fault_mask << std::dec << " ===\n";

  const auto t0 = std::chrono::steady_clock::now();
  core::LinkMetrics merged;
  std::size_t triggers_missed = 0;
  std::size_t jobs_used = 1;
  double serial_estimate_ms = 0.0;
  std::uint64_t rss_baseline_kb = 0;  ///< Sampled after the warmup chunk.
  std::uint64_t rss_peak_kb = 0;      ///< Peak after warmup.

  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    std::vector<runner::SweepTask> tasks;
    tasks.reserve(runs);
    for (std::size_t r = 0; r < runs; ++r) {
      runner::SweepTask task;
      task.config = core::los_testbed_config(
          util::Meters{pos},
          util::Rng::derive_seed(seed, chunk * runs + r));
      task.config.faults = faults::hostile_plan(intensity, fault_mask);
      task.rounds = rounds;
      tasks.push_back(std::move(task));
    }
    const runner::SweepResult result = runner::run_sweep(tasks, opts);
    merged.merge(result.merged);
    triggers_missed += result.triggers_missed;
    jobs_used = result.jobs;
    serial_estimate_ms += result.serial_estimate_ms;

    const std::uint64_t rss = rss_kb();
    WITAG_COUNT("soak.chunks", 1);
    obs::gauge("soak.rss_kb").set(static_cast<double>(rss));
    if (chunk + 1 == warmup || (warmup == 0 && chunk == 0)) {
      rss_baseline_kb = rss;
    }
    if (chunk + 1 >= warmup && rss > rss_peak_kb) rss_peak_kb = rss;
    if (progress_every != 0 && (chunk + 1) % progress_every == 0) {
      const double wall_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
      std::cerr << "[soak] chunk " << (chunk + 1) << "/" << chunks
                << ", rounds " << merged.rounds() << ", rss " << rss
                << " kB, wall " << core::Table::num(wall_s, 1) << " s\n";
    }
  }

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  obs_run.parallelism(jobs_used, serial_estimate_ms, wall_ms);

  // Deterministic summary: simulation totals only, no wall-clock.
  core::Table table({"metric", "value"});
  table.add_row({"exchanges", std::to_string(merged.rounds())});
  table.add_row({"rounds lost", std::to_string(merged.rounds_lost())});
  table.add_row({"tag bits", std::to_string(merged.bits())});
  table.add_row({"BER", core::Table::num(merged.ber(), 6)});
  table.add_row({"goodput [Kbps]", core::Table::num(merged.goodput_kbps(), 2)});
  table.add_row({"triggers missed", std::to_string(triggers_missed)});
  table.print(std::cout);

  const std::uint64_t growth_kb =
      rss_peak_kb > rss_baseline_kb ? rss_peak_kb - rss_baseline_kb : 0;
  obs::gauge("soak.rss_baseline_kb").set(static_cast<double>(rss_baseline_kb));
  obs::gauge("soak.rss_growth_kb").set(static_cast<double>(growth_kb));
  std::cerr << "[soak] " << jobs_used << " jobs, wall "
            << core::Table::num(wall_ms / 1e3, 1) << " s, rss baseline "
            << rss_baseline_kb << " kB, peak " << rss_peak_kb
            << " kB, growth " << growth_kb << " kB\n";
  if (rss_limit_mb > 0.0 && rss_baseline_kb > 0 &&
      static_cast<double>(growth_kb) > rss_limit_mb * 1024.0) {
    std::cerr << "[soak] FAIL: rss grew " << growth_kb
              << " kB after warmup (limit " << rss_limit_mb << " MiB)\n";
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main("soak", argc, argv, bench_main);
}
