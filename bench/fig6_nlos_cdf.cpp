// Reproduces Figure 6: CDF of WiTAG's BER in non-line-of-sight
// deployments. The client (with the tag 1 m away) sits at location A
// (~7 m from the AP, behind metal cabinets) or location B (~17 m, behind
// every wall in the building), students move around, 60 one-minute
// measurements per location. The paper reports 90th-percentile BERs of
// 0.007 (A) and 0.018 (B), with B's CDF strictly to the right of A's.
//
// Every measurement is an independent Monte-Carlo task; both locations
// fan out across the parallel sweep engine in one task list, and the
// CDFs are bit-identical for any --jobs.
//
// Options: --measurements N (per location), --rounds N,
//          --jobs N (0 = hardware concurrency, 1 = serial)
#include <iostream>
#include <vector>

#include "runner/parallel_sweep.hpp"
#include "util/stats.hpp"
#include "witag/session.hpp"
#include "obs/report.hpp"
#include "util/cli.hpp"

namespace {

void print_cdf(const char* name, const std::vector<double>& bers) {
  witag::util::Ecdf cdf(bers);
  std::cout << "Location " << name << " CDF (BER -> P):\n";
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::cout << "  p" << static_cast<int>(q * 100) << " = "
              << witag::core::Table::num(cdf.quantile(q), 4) << "\n";
  }
  std::cout << "  samples:";
  int i = 0;
  for (const double b : cdf.samples()) {
    if (i++ % 10 == 0) std::cout << "\n   ";
    std::cout << " " << witag::core::Table::num(b, 4);
  }
  std::cout << "\n\n";
}

}  // namespace

int bench_main(const witag::util::Args& args) {
  using namespace witag;
  const auto measurements =
      static_cast<std::size_t>(args.get_int("measurements", 60));
  const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 40));
  const std::size_t jobs = runner::jobs_from_args(args);
  obs::RunScope obs_run("fig6_nlos_cdf", args);
  obs_run.config("measurements", static_cast<double>(measurements));
  obs_run.config("rounds_per_measurement", static_cast<double>(rounds));
  args.check();
  std::cout << "=== Figure 6: BER CDF, non-line-of-sight locations ===\n"
            << measurements << " measurements per location, tag 1 m from "
            << "the client, people moving.\n"
            << "Paper: 90th percentile 0.007 (A, ~7 m) and 0.018 (B, ~17 m);"
            << " B strictly worse.\n\n";

  // Tasks 0..measurements-1 are location A, the rest location B, with
  // the historical per-measurement seeds.
  std::vector<runner::SweepTask> tasks;
  tasks.reserve(2 * measurements);
  for (const bool location_b : {false, true}) {
    for (std::size_t run = 0; run < measurements; ++run) {
      auto cfg = core::nlos_testbed_config(
          location_b, 5000 + 31 * run + (location_b ? 77777 : 0));
      tasks.push_back({std::move(cfg), rounds});
    }
  }

  runner::SweepOptions opts;
  opts.jobs = jobs;
  const runner::SweepResult result = runner::run_sweep(tasks, opts);
  obs_run.parallelism(result.jobs, result.serial_estimate_ms,
                      result.wall_ms);
  std::cerr << "[runner] " << result.jobs << " jobs, " << tasks.size()
            << " tasks, wall " << core::Table::num(result.wall_ms, 0)
            << " ms, serial estimate "
            << core::Table::num(result.serial_estimate_ms, 0) << " ms\n";

  std::vector<double> a;
  std::vector<double> b;
  a.reserve(measurements);
  b.reserve(measurements);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    (i < measurements ? a : b).push_back(result.per_task[i].metrics.ber());
  }
  print_cdf("A (~7 m, behind cabinets)", a);
  print_cdf("B (~17 m, behind all walls)", b);

  witag::util::Ecdf cdf_a(a);
  witag::util::Ecdf cdf_b(b);
  std::cout << "paper-vs-measured: p90(A) = "
            << witag::core::Table::num(cdf_a.quantile(0.9), 4)
            << " (paper 0.007), p90(B) = "
            << witag::core::Table::num(cdf_b.quantile(0.9), 4)
            << " (paper 0.018), B-worse-than-A = "
            << (cdf_b.quantile(0.5) >= cdf_a.quantile(0.5) ? "yes" : "NO")
            << "\n";
  return 0;
}

int main(int argc, char** argv) {
  return witag::util::run_main("fig6_nlos_cdf", argc, argv, bench_main);
}
