// Telemetry streaming: bounded span rings with exact drop accounting,
// JSONL round-trip of every record type through the repo's own JSON
// parser, and producer/flusher concurrency (suite names carry Stream/
// Telemetry so the tsan CI job picks them up).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"

namespace witag::obs {
namespace {

class StreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset();
    Tracer::instance().set_streaming(0);
    Tracer::instance().clear();
    Tracer::instance().set_enabled(true);
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().set_streaming(0);
    Tracer::instance().clear();
    MetricsRegistry::instance().reset();
  }

  static std::string temp_path(const std::string& leaf) {
    return ::testing::TempDir() + leaf;
  }

  static std::vector<json::Value> parse_jsonl(const std::string& path) {
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::vector<json::Value> records;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      records.push_back(json::Value::parse(line));
    }
    return records;
  }
};

using StreamRing = StreamTest;
using TelemetryStream = StreamTest;

TraceEvent stamped_event(double ts) {
  TraceEvent ev;
  ev.name = "ring_ev";
  ev.ph = 'i';
  ev.ts_us = ts;
  return ev;
}

TEST_F(StreamRing, DropOldestExactAccounting) {
  Tracer& tracer = Tracer::instance();
  tracer.set_streaming(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(stamped_event(static_cast<double>(i)));
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(tracer.drain(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  // The ring keeps the NEWEST events, oldest-first on drain.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].ts_us,
                     static_cast<double>(6 + i));
  }
  EXPECT_EQ(tracer.dropped(), 6u);

  // A drained ring yields nothing more and drops stay exact.
  out.clear();
  EXPECT_EQ(tracer.drain(out), 0u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST_F(StreamRing, NoDropsUnderCapacity) {
  Tracer& tracer = Tracer::instance();
  tracer.set_streaming(8);
  for (int i = 0; i < 5; ++i) {
    tracer.record(stamped_event(static_cast<double>(i)));
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(tracer.drain(out), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].ts_us,
                     static_cast<double>(i));
  }
  EXPECT_EQ(tracer.dropped(), 0u);

  // Drain-then-refill keeps working past one ring generation.
  for (int i = 5; i < 12; ++i) {
    tracer.record(stamped_event(static_cast<double>(i)));
  }
  out.clear();
  EXPECT_EQ(tracer.drain(out), 7u);
  EXPECT_DOUBLE_EQ(out.front().ts_us, 5.0);
  EXPECT_DOUBLE_EQ(out.back().ts_us, 11.0);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST_F(StreamRing, RetiredThreadRingsAreReused) {
  // A soak spawns fresh worker threads every chunk; their rings must be
  // adopted by later threads (same tid, same storage) or streaming
  // memory grows linearly with chunk count.
  Tracer& tracer = Tracer::instance();
  tracer.set_streaming(16);
  std::vector<TraceEvent> out;

  std::thread([&] { tracer.record(stamped_event(1.0)); }).join();
  ASSERT_EQ(tracer.drain(out), 1u);
  const std::uint32_t first_tid = out.front().tid;

  for (int i = 0; i < 3; ++i) {
    out.clear();
    std::thread([&] { tracer.record(stamped_event(2.0)); }).join();
    ASSERT_EQ(tracer.drain(out), 1u);
    EXPECT_EQ(out.front().tid, first_tid) << "round " << i;
  }
}

TEST_F(TelemetryStream, ConstructorRejectsBadConfig) {
  StreamerConfig no_path;
  EXPECT_THROW(TelemetryStreamer{no_path}, std::runtime_error);

  StreamerConfig zero_ring;
  zero_ring.jsonl_path = temp_path("stream_zero_ring.jsonl");
  zero_ring.ring_capacity = 0;
  EXPECT_THROW(TelemetryStreamer{zero_ring}, std::runtime_error);

  StreamerConfig bad_dir;
  bad_dir.jsonl_path = "/nonexistent_witag_dir/stream.jsonl";
  EXPECT_THROW(TelemetryStreamer{bad_dir}, std::runtime_error);
}

TEST_F(TelemetryStream, JsonlRoundTripAllRecordTypes) {
  StreamerConfig cfg;
  cfg.jsonl_path = temp_path("stream_roundtrip.jsonl");
  cfg.chrome_path = temp_path("stream_roundtrip_chrome.json");
  cfg.period_ms = 10000.0;  // flushes driven manually below
  cfg.ring_capacity = 64;
  cfg.bench = "test_stream";

  counter("stream.test").add(5);
  hdr("stream.lat").record(10.0);
  hdr("stream.lat").record(20.0);
  {
    TelemetryStreamer streamer(cfg);
    EXPECT_EQ(TelemetryStreamer::active(), &streamer);
    instant_arg2("ev_a", "k0", 1.0, "k1", 2.0);
    complete_arg2("ev_b", 5.0, 2.5, "bits", 48.0, "ber", 0.0);
    streamer.flush_now();
    instant("ev_c");
    streamer.stop();
    EXPECT_EQ(TelemetryStreamer::active(), nullptr);
    EXPECT_GE(streamer.records_written(), 6u);  // meta + 3 spans + 2 cycles
  }

  const std::vector<json::Value> records = parse_jsonl(cfg.jsonl_path);
  ASSERT_GE(records.size(), 6u);

  // meta first, final last, every line a self-describing object.
  EXPECT_EQ(records.front().at("type").as_string(), "meta");
  EXPECT_EQ(records.front().at("bench").as_string(), "test_stream");
  EXPECT_DOUBLE_EQ(records.front().at("ring_capacity").as_number(), 64.0);
  EXPECT_EQ(records.back().at("type").as_string(), "final");

  std::size_t spans = 0, metrics = 0, finals = 0;
  for (const json::Value& rec : records) {
    ASSERT_TRUE(rec.is_object());
    const std::string& type = rec.at("type").as_string();
    if (type == "span") {
      ++spans;
      EXPECT_TRUE(rec.has("name"));
      EXPECT_TRUE(rec.has("ph"));
      EXPECT_TRUE(rec.has("ts"));
      EXPECT_TRUE(rec.has("tid"));
    } else if (type == "metrics" || type == "final") {
      (type == "final" ? finals : metrics) += 1;
      EXPECT_TRUE(rec.at("seq").is_number());
      EXPECT_TRUE(rec.at("ts_us").is_number());
      EXPECT_TRUE(rec.at("counters").is_object());
      EXPECT_TRUE(rec.at("gauges").is_object());
      EXPECT_TRUE(rec.at("spans_dropped").is_number());
      EXPECT_DOUBLE_EQ(rec.at("counters").at("stream.test").as_number(), 5.0);
      const json::Value& lat = rec.at("hdr").at("stream.lat");
      EXPECT_DOUBLE_EQ(lat.at("count").as_number(), 2.0);
      EXPECT_DOUBLE_EQ(lat.at("max").as_number(), 20.0);
      EXPECT_GE(lat.at("p99").as_number(), lat.at("p50").as_number());
    }
  }
  EXPECT_EQ(spans, 3u);
  EXPECT_EQ(metrics, 1u);
  EXPECT_EQ(finals, 1u);

  // The quantile gauges surface in the flat gauge map too.
  EXPECT_TRUE(records.back().at("gauges").has("stream.lat.p50"));

  // The incremental Chrome trace closes into one parseable document.
  std::ifstream chrome(cfg.chrome_path);
  std::stringstream buf;
  buf << chrome.rdbuf();
  const json::Value trace = json::Value::parse(buf.str());
  EXPECT_EQ(trace.at("traceEvents").size(), 3u);
  EXPECT_EQ(trace.at("displayTimeUnit").as_string(), "ms");
}

TEST_F(TelemetryStream, CountersStreamCumulativeTotals) {
  StreamerConfig cfg;
  cfg.jsonl_path = temp_path("stream_cumulative.jsonl");
  cfg.period_ms = 10000.0;
  cfg.bench = "test_stream";

  TelemetryStreamer streamer(cfg);
  counter("stream.cumulative").add(3);
  streamer.flush_now();
  counter("stream.cumulative").add(2);
  streamer.flush_now();
  streamer.stop();

  std::vector<double> totals;
  for (const json::Value& rec : parse_jsonl(cfg.jsonl_path)) {
    const std::string& type = rec.at("type").as_string();
    if (type != "metrics" && type != "final") continue;
    totals.push_back(rec.at("counters").at("stream.cumulative").as_number());
  }
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_DOUBLE_EQ(totals[0], 3.0);
  EXPECT_DOUBLE_EQ(totals[1], 5.0);
  EXPECT_DOUBLE_EQ(totals[2], 5.0);  // final repeats the totals
}

TEST_F(TelemetryStream, ConcurrentProducersExactSpanAccounting) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;

  StreamerConfig cfg;
  cfg.jsonl_path = temp_path("stream_stress.jsonl");
  cfg.period_ms = 2.0;       // flusher races the producers
  cfg.ring_capacity = 64;    // small ring: overwrites are expected
  cfg.bench = "test_stream";

  {
    TelemetryStreamer streamer(cfg);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([] {
        for (int i = 0; i < kPerThread; ++i) {
          counter("stream.stress").add(1);
          instant_arg("stress_ev", "i", static_cast<double>(i));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    streamer.stop();
  }

  std::size_t spans = 0;
  double dropped = -1.0, total = -1.0;
  std::vector<json::Value> records = parse_jsonl(cfg.jsonl_path);
  for (const json::Value& rec : records) {
    const std::string& type = rec.at("type").as_string();
    if (type == "span") ++spans;
    if (type == "final") {
      dropped = rec.at("spans_dropped").as_number();
      total = rec.at("counters").at("stream.stress").as_number();
    }
  }
  // Every worker's adds land in the exact total, and every recorded
  // span is either written or counted as dropped — nothing vanishes
  // silently.
  EXPECT_DOUBLE_EQ(total, static_cast<double>(kThreads * kPerThread));
  EXPECT_GE(dropped, 0.0);
  EXPECT_EQ(static_cast<double>(spans) + dropped,
            static_cast<double>(kThreads * kPerThread));
}

}  // namespace
}  // namespace witag::obs
