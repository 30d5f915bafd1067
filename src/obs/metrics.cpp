#include "obs/metrics.hpp"

#include <stdexcept>

namespace witag::obs {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

template <typename T, typename Make>
T& MetricsRegistry::lookup(
    std::map<std::string, std::unique_ptr<T>, std::less<>>& table,
    std::string_view name, Make&& make) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto it = table.find(name);
  if (it == table.end()) {
    it = table.emplace(std::string(name), make()).first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  return lookup(counters_, name, [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return lookup(gauges_, name, [] { return std::make_unique<Gauge>(); });
}

HdrHistogram& MetricsRegistry::hdr(std::string_view name, HdrConfig cfg) {
  HdrHistogram& h = lookup(hdrs_, name,
                           [&] { return std::make_unique<HdrHistogram>(cfg); });
  if (!(h.config() == cfg)) {
    throw std::invalid_argument("MetricsRegistry: hdr histogram \"" +
                                std::string(name) +
                                "\" re-registered with different config");
  }
  return h;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : hdrs_) {
    MetricsSnapshot::Hdr out;
    out.count = h->count();
    out.sum = h->sum();
    out.quantiles = hdr_quantiles(*h);
    snap.gauges[name + ".p50"] = out.quantiles.p50;
    snap.gauges[name + ".p90"] = out.quantiles.p90;
    snap.gauges[name + ".p99"] = out.quantiles.p99;
    snap.gauges[name + ".p999"] = out.quantiles.p999;
    snap.gauges[name + ".max"] = out.quantiles.max;
    snap.hdrs[name] = out;
  }
  return snap;
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : hdrs_) h->reset();
}

}  // namespace witag::obs
