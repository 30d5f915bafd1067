// The shared main of the google-benchmark binaries, micro_phy and
// micro_sim: the standard obs flags (util/cli.hpp) are split off argv
// before google-benchmark sees it, since it rejects flags it does not
// know, and the benchmarks report through ObsReporter, which also
// exports each one's ns/op as an obs gauge.
#pragma once

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/cli.hpp"

namespace witag::bench {

/// Whether a --benchmark_color value asks for color, read as
/// google-benchmark reads it: "auto", its default, when stdout is a
/// terminal, and any other value unless it is false, no or off (in any
/// case), 0, f or n.
inline bool color_requested(std::string_view value) {
  if (value == "auto") return isatty(STDOUT_FILENO) != 0;
  std::string lower(value);
  std::transform(lower.begin(), lower.end(), lower.begin(), [](char c) {
    return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  });
  return lower != "false" && lower != "no" && lower != "off" &&
         lower != "0" && lower != "f" && lower != "n";
}

/// The console options micro_main takes from --benchmark_color:
/// google-benchmark reads the flag only for a display reporter it makes
/// itself.
inline benchmark::ConsoleReporter::OutputOptions console_options =
    benchmark::ConsoleReporter::OO_Defaults;

/// Console output as usual, plus one obs gauge per benchmark
/// (`bench.<name>.ns_per_op`) so `--metrics-out FILE` captures the run as
/// a machine-readable baseline (see bench/BENCH_phy.json and
/// bench/BENCH_sim.json). Under --benchmark_repetitions the median
/// aggregate, reported after the repetitions, overwrites their
/// per-repetition values.
class ObsReporter : public benchmark::ConsoleReporter {
 public:
  ObsReporter() : ConsoleReporter(console_options) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      const bool median = run.run_type == Run::RT_Aggregate &&
                          run.aggregate_name == "median";
      if (run.error_occurred ||
          (run.run_type != Run::RT_Iteration && !median)) {
        continue;
      }
      obs::gauge("bench." + run.run_name.str() + ".ns_per_op")
          .set(run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

/// Hands argv to google-benchmark, all but the obs flags, and then runs
/// `body`, which runs the benchmarks through an ObsReporter, under
/// util::run_main with the obs flags.
inline int micro_main(const char* binary, int argc, char** argv,
                      int (*body)(const util::Args&)) {
  constexpr std::string_view kColorFlag = "--benchmark_color=";
  std::vector<char*> bench_argv{argv[0]};
  std::vector<const char*> obs_argv{argv[0]};
  std::string_view color = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--trace-out" || arg == "--metrics-out" ||
        arg == "--no-metrics" || arg == "--ledger") {
      obs_argv.push_back(argv[i]);
      const bool takes_value = arg == "--trace-out" || arg == "--metrics-out";
      if (takes_value && i + 1 < argc) obs_argv.push_back(argv[++i]);
    } else {
      if (arg.starts_with(kColorFlag)) color = arg.substr(kColorFlag.size());
      bench_argv.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) {
    return 1;
  }
  console_options = color_requested(color)
                        ? benchmark::ConsoleReporter::OO_ColorTabular
                        : benchmark::ConsoleReporter::OO_Tabular;
  return util::run_main(binary, static_cast<int>(obs_argv.size()),
                        obs_argv.data(), body);
}

}  // namespace witag::bench
