// Span/event tracer with per-thread buffers and Chrome trace-event
// export.
//
// Recording is gated by a runtime toggle (`Tracer::set_enabled`) that
// costs one relaxed atomic load per site when off. Event names and
// categories are stored as `const char*` and must be string literals
// (or otherwise outlive the tracer): this keeps the hot path
// allocation-free.
//
// Export formats:
//  * Chrome trace-event JSON (`{"traceEvents":[...]}`): open in
//    chrome://tracing or https://ui.perfetto.dev.
//  * JSONL: one event object per line, for ad-hoc jq/pandas analysis.
//
// Timestamps are microseconds since the tracer's epoch (process start
// or the last `clear()`), taken from std::chrono::steady_clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>
#include <cstddef>

namespace witag::obs {

struct TraceEvent {
  const char* name = "";
  const char* cat = "sim";
  char ph = 'X';          ///< 'X' complete span, 'i' instant event.
  double ts_us = 0.0;     ///< Start time (us since tracer epoch).
  double dur_us = 0.0;    ///< Span duration; 0 for instants.
  std::uint32_t tid = 0;  ///< Dense per-process thread id.
  /// Up to two numeric args, exported under "args" in the JSON.
  const char* arg_keys[2] = {nullptr, nullptr};
  double arg_vals[2] = {0.0, 0.0};
};

class Tracer {
 public:
  static Tracer& instance();

  /// Runtime toggle; when off, record sites reduce to a relaxed load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Streaming mode for long runs: instead of growing each thread
  /// buffer without bound, record() writes into a bounded per-thread
  /// ring (capacity `ring_capacity` events) that a flusher drains with
  /// drain(). When a ring is full the OLDEST event is overwritten and
  /// counted in dropped() — the stream stays fresh and memory stays
  /// flat no matter how far the flusher falls behind. A ring whose
  /// thread exits is retired to a free list and adopted (storage, tid
  /// and any undrained events included) by the next new thread, so a
  /// soak that spawns workers per chunk keeps O(peak threads) rings,
  /// not O(total threads ever). `ring_capacity == 0` restores the
  /// default buffered mode. Switch only while quiesced (no concurrent
  /// record/drain); RunScope does this before workers start.
  void set_streaming(std::size_t ring_capacity);
  bool streaming() const {
    return ring_capacity_.load(std::memory_order_relaxed) != 0;
  }

  /// Drops all buffered events and restarts the timestamp epoch.
  void clear();

  /// Microseconds since the tracer epoch.
  double now_us() const;

  /// Appends one event to the calling thread's buffer (caller has
  /// already checked enabled()).
  void record(const TraceEvent& ev);

  /// Streaming mode: moves every buffered event (all threads, oldest
  /// first per thread) into `out` and empties the rings. Returns the
  /// number of events appended. Safe to call concurrently with
  /// record() — each ring is guarded by its own mutex.
  std::size_t drain(std::vector<TraceEvent>& out);
  /// Cumulative count of events lost to ring overwrite (all threads).
  std::uint64_t dropped() const;

  /// Merged snapshot of all thread buffers, sorted by ts_us.
  std::vector<TraceEvent> events() const;
  std::size_t event_count() const;

  /// Chrome trace-event JSON (object form with "traceEvents").
  void write_chrome_trace(std::ostream& os) const;
  /// One JSON object per line.
  void write_jsonl(std::ostream& os) const;
  /// Writes to `path`; a ".jsonl" suffix selects JSONL, anything else
  /// gets Chrome trace JSON. Throws std::runtime_error if unwritable.
  void write_file(const std::string& path) const;

 private:
  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> events;  ///< Buffered mode: grows unbounded.
    // Streaming mode: `events` doubles as a bounded ring of
    // `ring_capacity_` slots. `mu` is per-thread, so the only possible
    // contention is this thread vs the flusher.
    std::mutex mu;
    std::size_t ring_head = 0;  // witag: guarded_by(mu) — oldest live slot
    std::size_t ring_size = 0;  // witag: guarded_by(mu) — live ring events
    std::uint64_t dropped = 0;  // witag: guarded_by(mu) — overwritten count
  };

  Tracer();
  ThreadBuf& local_buf();
  /// Called from the owning thread's exit path; the buf stays in
  /// `bufs_` (pending events still drain) but becomes adoptable.
  void retire_buf(const std::shared_ptr<ThreadBuf>& buf);

  std::atomic<bool> enabled_{false};
  std::atomic<std::size_t> ring_capacity_{0};  ///< 0 = buffered mode.
  mutable std::mutex mu_;  ///< Guards the buffer roster below.
  std::vector<std::shared_ptr<ThreadBuf>> bufs_;  // witag: guarded_by(mu_)
  /// Rings of exited threads, awaiting adoption (streaming mode only:
  /// in buffered mode every thread's events must stay attributed to
  /// its own tid for the end-of-run trace).
  std::vector<std::shared_ptr<ThreadBuf>> free_bufs_;  // witag: guarded_by(mu_)
  std::uint32_t next_tid_ = 0;  // witag: guarded_by(mu_)
  std::atomic<std::uint64_t> epoch_ns_{0};  ///< steady_clock epoch, ns.
};

/// Appends one event as a Chrome trace-event JSON object to `out` (no
/// trailing newline) — shared by the buffered exporters and the
/// incremental telemetry streamer.
void dump_trace_event(const TraceEvent& ev, std::string& out);

/// True when span/event recording is active (compiled in AND runtime
/// enabled).
inline bool trace_enabled() { return Tracer::instance().enabled(); }

/// RAII span: measures construction-to-destruction as a complete event.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "sim");
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan();

 private:
  const char* name_;
  const char* cat_;
  double start_us_ = 0.0;
  bool active_;
};

/// Complete ('X') event recorded after the fact with two numeric args —
/// used by the runner to attribute a finished task to the worker thread
/// that ran it. `ts_us` comes from Tracer::now_us() taken at task start.
void complete_arg2(const char* name, double ts_us, double dur_us,
                   const char* k0, double v0, const char* k1, double v1,
                   const char* cat = "sim");

/// Instant events (no duration), with up to two numeric args.
void instant(const char* name, const char* cat = "sim");
void instant_arg(const char* name, const char* k0, double v0,
                 const char* cat = "sim");
void instant_arg2(const char* name, const char* k0, double v0, const char* k1,
                  double v1, const char* cat = "sim");

}  // namespace witag::obs
