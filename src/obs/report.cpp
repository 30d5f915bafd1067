#include "obs/report.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <cstddef>
#include <cstdint>

#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"

namespace witag::obs {
namespace {

double wall_clock_us() {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count()) /
         1e3;
}

// Crash-safe flush. A RunScope on the stack never runs its destructor
// when the process exit()s early or dies to SIGINT/SIGTERM — which is
// exactly when a long soak's telemetry matters most. The active scope
// registers itself here; an atexit hook and signal handlers finish()
// it (stop the streamer, write the metrics JSON) before the process
// goes down. finish() is not async-signal-safe, but at that point the
// alternative is losing the data — this is a deliberate best-effort
// flush on the way out, and the handler re-raises with SIG_DFL so the
// exit status still reports the signal.
std::atomic<RunScope*> g_active_scope{nullptr};

void flush_active_scope() noexcept {
  RunScope* scope = g_active_scope.exchange(nullptr);
  if (scope == nullptr) return;
  try {
    scope->finish();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
    // Dying anyway; nothing useful left to do with the error.
  }
}

extern "C" void witag_obs_signal_flush(int sig) {
  flush_active_scope();
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void install_crash_flush_once() {
  static const bool installed = [] {
    std::atexit([] { flush_active_scope(); });
    std::signal(SIGINT, &witag_obs_signal_flush);
    std::signal(SIGTERM, &witag_obs_signal_flush);
    return true;
  }();
  (void)installed;
}

}  // namespace

void encode_snapshot(const MetricsSnapshot& snapshot, json::Value& doc) {
  json::Value counters = json::Value::object();
  for (const auto& [name, value] : snapshot.counters) {
    counters.set(name, json::Value::number(static_cast<double>(value)));
  }
  doc.set("counters", std::move(counters));

  json::Value gauges = json::Value::object();
  for (const auto& [name, value] : snapshot.gauges) {
    gauges.set(name, json::Value::number(value));
  }
  doc.set("gauges", std::move(gauges));

  json::Value hdrs = json::Value::object();
  for (const auto& [name, h] : snapshot.hdrs) {
    json::Value one = json::Value::object();
    one.set("count", json::Value::number(static_cast<double>(h.count)));
    one.set("sum", json::Value::number(h.sum));
    one.set("p50", json::Value::number(h.quantiles.p50));
    one.set("p90", json::Value::number(h.quantiles.p90));
    one.set("p99", json::Value::number(h.quantiles.p99));
    one.set("p999", json::Value::number(h.quantiles.p999));
    one.set("max", json::Value::number(h.quantiles.max));
    hdrs.set(name, std::move(one));
  }
  doc.set("hdr", std::move(hdrs));
}

json::Value build_report(
    const std::string& bench,
    const std::vector<std::pair<std::string, json::Value>>& config,
    double wall_ms, const MetricsSnapshot& snapshot) {
  json::Value doc = json::Value::object();
  doc.set("bench", json::Value::string(bench));

  json::Value cfg = json::Value::object();
  for (const auto& [key, value] : config) cfg.set(key, value);
  doc.set("config", std::move(cfg));

  doc.set("wall_ms", json::Value::number(wall_ms));

  encode_snapshot(snapshot, doc);
  return doc;
}

RunScope::RunScope(std::string bench, const util::Args& args)
    : bench_(std::move(bench)) {
  metrics_path_ = args.get_string("metrics-out", bench_ + "_metrics.json");
  if (args.has("no-metrics")) metrics_path_.clear();
  trace_path_ = args.get_string("trace-out", "");
  stream_path_ = args.get_string("stream-out", "");
  ledger_ = args.has("ledger");
  if (ledger_ && !stream_path_.empty()) {
    throw std::invalid_argument(
        "--ledger reads the buffered spans and cannot be combined with "
        "--stream-out");
  }

  MetricsRegistry::instance().reset();
  if (!trace_path_.empty() || !stream_path_.empty() || ledger_) {
    Tracer::instance().clear();
    Tracer::instance().set_enabled(true);
  }
  if (!stream_path_.empty()) {
    StreamerConfig scfg;
    scfg.jsonl_path = stream_path_;
    scfg.chrome_path = trace_path_;  // incremental when both are given
    scfg.period_ms = args.get_double("stream-period-ms", 250.0);
    scfg.ring_capacity = static_cast<std::size_t>(
        args.get_u64("stream-ring", 8192));
    scfg.bench = bench_;
    streamer_ = std::make_unique<TelemetryStreamer>(scfg);
  }
  register_crash_flush();
  start_us_ = wall_clock_us();
}

RunScope::RunScope(std::string bench) : bench_(std::move(bench)) {
  metrics_path_ = bench_ + "_metrics.json";
  MetricsRegistry::instance().reset();
  register_crash_flush();
  start_us_ = wall_clock_us();
}

void RunScope::register_crash_flush() {
  install_crash_flush_once();
  g_active_scope.store(this, std::memory_order_release);
}

void RunScope::config(const std::string& key, const std::string& value) {
  config_.emplace_back(key, json::Value::string(value));
}

void RunScope::config(const std::string& key, double value) {
  config_.emplace_back(key, json::Value::number(value));
}

void RunScope::parallelism(std::size_t jobs, double serial_estimate_ms,
                           double wall_ms) {
  config("jobs", static_cast<double>(jobs));
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.gauge("runner.jobs").set(static_cast<double>(jobs));
  reg.gauge("runner.serial_estimate_ms").set(serial_estimate_ms);
  reg.gauge("runner.wall_ms").set(wall_ms);
  if (wall_ms > 0.0) {
    reg.gauge("runner.speedup").set(serial_estimate_ms / wall_ms);
  }
}

void RunScope::finish() {
  if (finished_) return;
  finished_ = true;
  RunScope* self = this;
  g_active_scope.compare_exchange_strong(self, nullptr,
                                         std::memory_order_acq_rel);
  const double wall_ms = (wall_clock_us() - start_us_) / 1e3;

  if (streamer_) {
    Tracer::instance().set_enabled(false);
    streamer_->stop();  // final drain + Chrome footer when streaming it
    std::cerr << "[obs] telemetry streamed to " << stream_path_ << '\n';
    if (!trace_path_.empty()) {
      std::cerr << "[obs] trace written to " << trace_path_ << '\n';
    }
  } else if (!trace_path_.empty()) {
    Tracer::instance().set_enabled(false);
    Tracer::instance().write_file(trace_path_);
    std::cerr << "[obs] trace written to " << trace_path_ << '\n';
  }
  if (ledger_) {
    Tracer::instance().set_enabled(false);
    const Ledger ledger = build_ledger(Tracer::instance().events());
    print_ledger(ledger, std::cerr);
    export_ledger(ledger);
  }
  if (!metrics_path_.empty()) {
    const json::Value doc = build_report(
        bench_, config_, wall_ms, MetricsRegistry::instance().snapshot());
    std::ofstream out(metrics_path_);
    if (!out) {
      throw std::runtime_error("RunScope: cannot open " + metrics_path_);
    }
    out << doc.dump() << '\n';
    std::cerr << "[obs] metrics written to " << metrics_path_ << '\n';
  }
}

RunScope::~RunScope() {
  try {
    finish();
  } catch (const std::exception& e) {
    std::cerr << "[obs] report failed: " << e.what() << '\n';
  }
}

}  // namespace witag::obs
