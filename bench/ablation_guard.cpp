// Ablation: corruption-window guard bands vs tag clock granularity.
//
// The tag asserts its reflector only inside [subframe + guard,
// subframe_end - guard], quantized to its clock ticks. Too little guard
// lets quantization and trigger-timing error spill corruption into
// neighbouring subframes (false corruptions); too much guard leaves no
// corruption window at all (missed corruptions). The sweet spot depends
// on the clock: a 1 MHz prototype timer tolerates small guards, a
// 50 kHz crystal needs subframes so long the question disappears.
//
// Each (clock, guard) cell is an independent task on the parallel sweep
// engine; the table is bit-identical for any --jobs.
//
// Options: --rounds N, --seed S, --csv PATH, --jobs N
#include <iostream>
#include <vector>

#include "obs/report.hpp"
#include "runner/parallel_sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "witag/session.hpp"

int bench_main(const witag::util::Args& args) {
  using namespace witag;
  const std::size_t rounds = args.get_u64("rounds", 25);
  const std::uint64_t seed = args.get_u64("seed", 909);
  const std::string csv_path = args.get_string("csv", "");
  const std::size_t jobs = runner::jobs_from_args(args);
  obs::RunScope obs_run("ablation_guard", args);
  obs_run.config("rounds", static_cast<double>(rounds));
  obs_run.config("seed", static_cast<double>(seed));
  args.check();

  std::cout << "=== Ablation: guard bands x tag clock ===\n"
            << "Tag 1 m from the client; 16 us subframes at MCS5; "
            << rounds << " rounds per cell.\n\n";

  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<util::CsvWriter>(csv_path);
    csv->header({"clock_hz", "guard_us", "ber", "missed", "false"});
  }

  core::Table table({"tag clock", "guard [us]", "BER", "missed corruptions",
                     "false corruptions"});
  const struct {
    double hz;
    const char* name;
  } clocks[] = {{1e6, "1 MHz"}, {250e3, "250 kHz"}};
  const double guards[] = {0.0, 2.0, 4.0, 6.0, 7.5};

  // One task per (clock, guard) cell, in row order.
  std::vector<runner::SweepTask> tasks;
  for (const auto& clock : clocks) {
    for (const double guard : guards) {
      auto cfg = core::los_testbed_config(util::Meters{1.0}, seed);
      cfg.tag_device.clock.nominal_hz = clock.hz;
      cfg.tag_device.guard_us = guard;
      // Fix the subframe length so every cell compares the same query.
      cfg.query.symbols_per_subframe = 4;
      tasks.push_back({std::move(cfg), rounds});
    }
  }

  runner::SweepOptions opts;
  opts.jobs = jobs;
  const runner::SweepResult result = runner::run_sweep(tasks, opts);
  obs_run.parallelism(result.jobs, result.serial_estimate_ms,
                      result.wall_ms);

  std::size_t cell = 0;
  for (const auto& clock : clocks) {
    for (const double guard : guards) {
      const auto& stats = result.per_task[cell++];
      table.add_row({clock.name, core::Table::num(guard, 1),
                     core::Table::num(stats.metrics.ber(), 4),
                     std::to_string(stats.metrics.missed_corruptions()),
                     std::to_string(stats.metrics.false_corruptions())});
      if (csv) {
        csv->row({util::CsvWriter::num(clock.hz), util::CsvWriter::num(guard),
                  util::CsvWriter::num(stats.metrics.ber()),
                  std::to_string(stats.metrics.missed_corruptions()),
                  std::to_string(stats.metrics.false_corruptions())});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nReading: zero guard risks corrupting the boundary "
               "symbol shared with the next subframe (false corruptions); "
               "guards past half the subframe leave no window (missed "
               "corruptions -> BER ~0.5). The coarser clock shifts the "
               "whole tradeoff because window edges quantize to ticks.\n";
  return 0;
}

int main(int argc, char** argv) {
  return witag::util::run_main("ablation_guard", argc, argv, bench_main);
}
