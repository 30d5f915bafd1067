// Per-run observability scope for bench/example binaries.
//
// A RunScope at the top of main():
//  * resets the process-wide MetricsRegistry so the report covers
//    exactly this run;
//  * reads the standard CLI flags (see util/cli.hpp):
//      --metrics-out <path>  metrics JSON destination
//                            (default "<bench>_metrics.json")
//      --no-metrics          suppress the metrics JSON
//      --trace-out <path>    enable tracing and write a Chrome
//                            trace-event JSON (or JSONL when the path
//                            ends in ".jsonl") on exit
//      --stream-out <path>   streaming mode: enable tracing with
//                            bounded per-thread span rings and run a
//                            background flusher that appends telemetry
//                            JSONL to <path> while the run is live
//                            (tail it with tools/telemetry_tail). With
//                            --trace-out too, the Chrome trace is
//                            written incrementally by the flusher
//                            instead of buffered to end-of-run.
//      --stream-period-ms N  flush period (default 250)
//      --stream-ring N       per-thread span-ring capacity
//                            (default 8192; overflow drops oldest)
//      --ledger              enable tracing (buffered) and, on exit,
//                            print the exchange ledger (obs/ledger.hpp)
//                            on stderr and export it as ledger.*
//                            gauges; not with --stream-out, whose
//                            flusher drains the spans it reads
//  * on destruction writes the metrics report:
//      {"bench": ..., "config": {...}, "wall_ms": ...,
//       "counters": {...}, "gauges": {...},
//       "hdr": {name: {count, sum, p50, p90, p99, p999, max}}}
//    and, when tracing, the trace file.
//
// Crash-safe flush: the first RunScope installs an atexit hook and
// SIGINT/SIGTERM handlers that finish() the active scope (stopping the
// streamer, writing the metrics JSON) before the process dies, so an
// aborted soak keeps everything already streamed plus a final report.
// The signal path re-raises with the default disposition afterwards —
// exit codes still reflect the signal. Telemetry goes to side-channel
// files and stderr only; stdout stays byte-identical with streaming on.
//
// The schema is parsed back by tests/test_obs.cpp via obs/json.hpp, so
// changes here must keep that round-trip green.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>
#include <cstddef>

#include "obs/json.hpp"

namespace witag::util {
class Args;
}  // namespace witag::util

namespace witag::obs {

struct MetricsSnapshot;
class TelemetryStreamer;

/// Sets `counters`, `gauges` and `hdr` on the object `doc` from
/// `snapshot`: the one encoding shared by the metrics report and the
/// telemetry stream's metrics records.
void encode_snapshot(const MetricsSnapshot& snapshot, json::Value& doc);

/// Builds the metrics-report JSON document (exposed for tests and for
/// callers that want the document without the RAII file handling).
json::Value build_report(
    const std::string& bench,
    const std::vector<std::pair<std::string, json::Value>>& config,
    double wall_ms, const MetricsSnapshot& snapshot);

class RunScope {
 public:
  /// `bench` names the binary in the report and the default output
  /// path. Flags are read from `args` (marking them used).
  RunScope(std::string bench, const util::Args& args);
  /// Variant without CLI flags: metrics to the default path, no trace.
  explicit RunScope(std::string bench);
  RunScope(const RunScope&) = delete;
  RunScope& operator=(const RunScope&) = delete;

  /// Records a configuration key/value into the report.
  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, double value);

  /// Records a parallel run's shape: `jobs` goes into the config block;
  /// the serial estimate (sum of per-task execution times), the
  /// parallel wall time and the realized speedup are exported as
  /// runner.* gauges. Benches call this with the SweepResult fields.
  void parallelism(std::size_t jobs, double serial_estimate_ms,
                   double wall_ms);

  /// Where the metrics JSON will be written; empty when suppressed.
  const std::string& metrics_path() const { return metrics_path_; }
  /// Trace destination; empty when tracing is off.
  const std::string& trace_path() const { return trace_path_; }
  /// Telemetry JSONL destination; empty when not streaming.
  const std::string& stream_path() const { return stream_path_; }
  /// Live streamer (nullptr when not streaming or already finished).
  TelemetryStreamer* streamer() const { return streamer_.get(); }

  /// Writes the report(s) now instead of at destruction (benches that
  /// want the path printed before their own epilogue).
  void finish();

  ~RunScope();

 private:
  void register_crash_flush();

  std::string bench_;
  std::string metrics_path_;
  std::string trace_path_;
  std::string stream_path_;
  bool ledger_ = false;
  std::vector<std::pair<std::string, json::Value>> config_;
  std::unique_ptr<TelemetryStreamer> streamer_;
  double start_us_ = 0.0;
  bool finished_ = false;
};

}  // namespace witag::obs
