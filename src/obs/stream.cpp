#include "obs/stream.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"

namespace witag::obs {
namespace {

std::atomic<TelemetryStreamer*> g_active{nullptr};

}  // namespace

TelemetryStreamer* TelemetryStreamer::active() {
  return g_active.load(std::memory_order_acquire);
}

TelemetryStreamer::TelemetryStreamer(StreamerConfig cfg)
    : cfg_(std::move(cfg)) {
  if (cfg_.jsonl_path.empty()) {
    throw std::runtime_error("TelemetryStreamer: jsonl_path is required");
  }
  if (cfg_.ring_capacity == 0) {
    throw std::runtime_error("TelemetryStreamer: ring_capacity must be > 0");
  }
  jsonl_.open(cfg_.jsonl_path, std::ios::trunc);
  if (!jsonl_) {
    throw std::runtime_error("TelemetryStreamer: cannot open " +
                             cfg_.jsonl_path);
  }
  if (!cfg_.chrome_path.empty()) {
    chrome_.open(cfg_.chrome_path, std::ios::trunc);
    if (!chrome_) {
      throw std::runtime_error("TelemetryStreamer: cannot open " +
                               cfg_.chrome_path);
    }
    chrome_ << "{\"traceEvents\":[";
    chrome_open_ = true;
  }
  // Pre-start: the flusher thread does not exist yet, so the ctor is
  // the one place drain_buf_ may be touched without cycle_mu_.
  drain_buf_.reserve(cfg_.ring_capacity);  // witag-lint: allow(guarded-by)
  Tracer::instance().set_streaming(cfg_.ring_capacity);

  json::Value meta = json::Value::object();
  meta.set("type", json::Value::string("meta"));
  meta.set("bench", json::Value::string(cfg_.bench));
  meta.set("period_ms", json::Value::number(cfg_.period_ms));
  meta.set("ring_capacity",
           json::Value::number(static_cast<double>(cfg_.ring_capacity)));
  write_line(meta.dump());
  jsonl_.flush();

  g_active.store(this, std::memory_order_release);
  flusher_ = std::thread([this] { flusher_loop(); });
}

TelemetryStreamer::~TelemetryStreamer() { stop(); }

void TelemetryStreamer::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  // The crash-flush signal handler can land on the flusher thread
  // itself, mid-cycle; joining or flushing there would self-deadlock,
  // and the periodic cycles have already persisted everything older
  // than one period — so the best-effort answer is to skip.
  const bool on_flusher = flusher_.get_id() == std::this_thread::get_id();
  if (flusher_.joinable() && !on_flusher) flusher_.join();
  TelemetryStreamer* self = this;
  g_active.compare_exchange_strong(self, nullptr, std::memory_order_acq_rel);
  if (on_flusher) return;
  flush_cycle(/*final_cycle=*/true);
  if (chrome_open_) {
    chrome_ << "\n],\"displayTimeUnit\":\"ms\"}\n";
    chrome_.flush();
    chrome_.close();
    chrome_open_ = false;
  }
  jsonl_.flush();
  jsonl_.close();
  Tracer::instance().set_streaming(0);
}

void TelemetryStreamer::flush_now() { flush_cycle(/*final_cycle=*/false); }

void TelemetryStreamer::flusher_loop() {
  const auto period = std::chrono::duration<double, std::milli>(
      cfg_.period_ms > 0.0 ? cfg_.period_ms : 1.0);
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (true) {
    if (stop_cv_.wait_for(lock, period, [this] { return stop_requested_; })) {
      return;  // stop() runs the final cycle after the join
    }
    lock.unlock();
    flush_cycle(/*final_cycle=*/false);
    lock.lock();
  }
}

void TelemetryStreamer::flush_cycle(bool final_cycle) {
  const std::lock_guard<std::mutex> lock(cycle_mu_);
  Tracer& tracer = Tracer::instance();

  drain_buf_.clear();
  tracer.drain(drain_buf_);
  std::string ev_json;
  std::string line;
  for (const TraceEvent& ev : drain_buf_) {
    ev_json.clear();
    dump_trace_event(ev, ev_json);
    line = "{\"type\":\"span\",";
    line.append(ev_json, 1, std::string::npos);  // drop the leading '{'
    write_line(line);
    if (chrome_open_) {
      if (!chrome_first_) chrome_ << ',';
      chrome_ << '\n' << ev_json;
      chrome_first_ = false;
    }
  }

  const std::uint64_t seq =
      seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  json::Value rec = json::Value::object();
  rec.set("type", json::Value::string(final_cycle ? "final" : "metrics"));
  rec.set("seq", json::Value::number(static_cast<double>(seq)));
  rec.set("ts_us", json::Value::number(tracer.now_us()));
  encode_snapshot(MetricsRegistry::instance().snapshot(), rec);
  rec.set("spans_dropped",
          json::Value::number(static_cast<double>(tracer.dropped())));
  write_line(rec.dump());

  jsonl_.flush();
  if (chrome_open_) chrome_.flush();
}

void TelemetryStreamer::write_line(const std::string& line) {
  jsonl_ << line << '\n';
  records_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace witag::obs
