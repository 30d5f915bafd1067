// Shared pieces of the end-to-end exchange benchmark: run options, the
// report every workload fills, timing helpers and the traced replay.
//
// The benchmark drives the simulator the way a user would — through
// core::Session, core::Reader/core::LinkSupervisor and sim::run_city —
// and times each layer from outside, through public calls only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "witag/config.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, untraced. true: the traced replay and
  /// the per-layer metrics.
  bool trace = false;
  /// Smoke-test sizes: a few operations per stage, same code paths.
  bool tiny = false;
  /// Where the traced replay writes its spans (JSON lines); empty = none.
  std::string spans_out;
};

/// What one run reports: named metric values plus the tally of
/// operations attempted and failed (a call that threw, or a failed
/// correctness check — never a simulated loss).
struct Report {
  std::vector<std::pair<std::string, double>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value);
  /// Counts one correctness check as an operation; a failing check is a
  /// failed operation and is explained on stderr.
  void check(bool ok, const std::string& what);
};

/// Host seconds on a steady clock.
double now_s();
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
/// Peak resident set size of this process [MB].
double peak_rss_mb();
/// One timing of the host speed probe's fixed reference kernel [us]
/// (probe.cpp).
double probe_us();

/// Runs `opt.workload` and fills the report (throws std::invalid_argument
/// on an unknown workload name).
Report run_workload(const Options& opt);

/// Traced replay: rebuilds exchanges stage by stage from public calls on
/// a link configured like `cfg` (faults off), with the channel's ambient
/// floor at `ambient_w`. Alternates traced and untraced exchanges until
/// `budget_s` of host time is spent (at least `min_exchanges` of each),
/// sets the per-layer span metrics on `report`, runs the replay's
/// decode checks, and writes the spans to `spans_out` when non-empty.
/// `untraced_exchange_us` is the median host time of one
/// Session::run_round on the same configuration, the reference for the
/// span-coverage ratio.
void run_replay(const witag::core::SessionConfig& cfg, double ambient_w,
                double budget_s, std::size_t min_exchanges,
                double untraced_exchange_us, const std::string& spans_out,
                Report& report);

}  // namespace perfbench
