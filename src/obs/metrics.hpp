// Process-wide metrics: named counters, gauges and HDR histograms.
//
// Updates are relaxed atomics — one RMW per touch, shared by every
// thread that bumps the same name. Lookups (`obs::counter(name)` etc.)
// take the registry mutex and walk a std::map, so hot call sites cache
// the handle in a function-local static (the WITAG_* macro pattern, see
// obs/obs.hpp) and the hot-lookup lint rejects a lookup inside a loop.
//
// `snapshot()` copies everything into plain structs for export. HDR
// histograms additionally surface p50/p90/p99/p99.9/max quantile
// gauges (`<name>.p50` …) into the snapshot's gauge map, so the
// existing flat-gauge consumers (metrics JSON, bench_compare,
// telemetry streaming) see latency percentiles without schema changes.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/hdr.hpp"

namespace witag::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar (e.g. a configuration value or level).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of every registered metric. HDR histograms
/// appear in `hdrs` and contribute quantile gauges (`<name>.p50`,
/// `.p90`, `.p99`, `.p999`, `.max`) to `gauges`.
struct MetricsSnapshot {
  struct Hdr {
    std::uint64_t count = 0;
    double sum = 0.0;
    HdrQuantiles quantiles;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hdr> hdrs;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Idempotent registration: the first call for a name creates the
  /// metric, later calls return the same object. References stay valid
  /// for the process lifetime (reset() zeroes values, never removes).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `cfg` is used on first registration only; a later call with a
  /// different config for the same name throws std::invalid_argument.
  /// An invalid `cfg` throws and registers nothing.
  HdrHistogram& hdr(std::string_view name, HdrConfig cfg = {});

  MetricsSnapshot snapshot() const;

  /// Zeroes every metric (per-run isolation in benches and tests).
  void reset();

 private:
  MetricsRegistry() = default;

  template <typename T, typename Make>
  T& lookup(std::map<std::string, std::unique_ptr<T>, std::less<>>& table,
            std::string_view name, Make&& make);

  // Nodes are never erased, so the references lookup() hands out stay
  // valid after the lock is released.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>>
      counters_;  // witag: guarded_by(mu_)
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>>
      gauges_;  // witag: guarded_by(mu_)
  std::map<std::string, std::unique_ptr<HdrHistogram>, std::less<>>
      hdrs_;  // witag: guarded_by(mu_)
};

/// Shorthands for the process-wide registry.
inline Counter& counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return MetricsRegistry::instance().gauge(name);
}
inline HdrHistogram& hdr(std::string_view name, HdrConfig cfg = {}) {
  return MetricsRegistry::instance().hdr(name, cfg);
}

}  // namespace witag::obs
