#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/report.hpp"
#include "util/units.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "witag/session.hpp"

namespace witag::obs {
namespace {

/// Every test starts from a clean registry and a quiet tracer.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::instance().reset();
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
  }
  void TearDown() override {
    Tracer::instance().set_enabled(false);
    Tracer::instance().clear();
    MetricsRegistry::instance().reset();
  }
};

using ObsJson = ObsTest;
using ObsMetrics = ObsTest;
using ObsTrace = ObsTest;
using ObsReport = ObsTest;
using ObsSession = ObsTest;
// Fork-based: deliberately NOT named Stream/Telemetry so the tsan CI
// job (which can't follow fork) filters these out.
using ObsCrashFlush = ObsTest;

TEST_F(ObsJson, ParsesNestedDocument) {
  const auto v = json::Value::parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true, "e": null}})");
  EXPECT_EQ(v.at("a").size(), 3u);
  EXPECT_DOUBLE_EQ(v.at("a")[0].as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.at("a")[2].as_number(), -300.0);
  EXPECT_EQ(v.at("b").at("c").as_string(), "x\ny");
  EXPECT_TRUE(v.at("b").at("d").as_bool());
  EXPECT_TRUE(v.at("b").at("e").is_null());
}

TEST_F(ObsJson, DumpParseRoundTrip) {
  json::Value doc = json::Value::object();
  doc.set("name", json::Value::string("quote\" comma, \tend"));
  doc.set("pi", json::Value::number(util::kPi));
  json::Value arr = json::Value::array();
  arr.push_back(json::Value::number(1e-9));
  arr.push_back(json::Value::boolean(false));
  doc.set("arr", std::move(arr));

  const auto back = json::Value::parse(doc.dump());
  EXPECT_EQ(back.at("name").as_string(), "quote\" comma, \tend");
  EXPECT_DOUBLE_EQ(back.at("pi").as_number(), util::kPi);
  EXPECT_DOUBLE_EQ(back.at("arr")[0].as_number(), 1e-9);
  EXPECT_FALSE(back.at("arr")[1].as_bool());
}

TEST_F(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse("{"), std::invalid_argument);
  EXPECT_THROW(json::Value::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(json::Value::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(json::Value::parse("1 2"), std::invalid_argument);
  EXPECT_THROW(json::Value::parse("\"unterminated"), std::invalid_argument);
}

TEST_F(ObsMetrics, CounterAccumulates) {
  Counter& c = counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same counter.
  EXPECT_EQ(&counter("test.counter"), &c);
  EXPECT_EQ(counter("test.counter").value(), 42u);
}

TEST_F(ObsMetrics, HistogramBucketsAndMoments) {
  // lowest 1, 4 sub-buckets per octave, 4 octaves: (1, 16] plus the
  // overflow bucket, which reports the recorded maximum as its edge.
  HdrHistogram h({1.0, 2, 4});
  for (const double x : {0.5, 1.0, 1.5, 4.0, 100.0}) h.record(x);
  const std::vector<std::pair<double, std::uint64_t>> expected{
      {1.25, 2},   // 0.5 and 1.0: at or below `lowest` -> bucket 0
      {1.75, 1},   // 1.5: [1.5, 1.75)
      {5.0, 1},    // 4.0: first bucket of octave 2, [4, 5)
      {100.0, 1},  // 100 > 16: overflow
  };
  EXPECT_EQ(h.nonzero_buckets(), expected);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 107.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST_F(ObsMetrics, HistogramValidation) {
  EXPECT_THROW(HdrHistogram({std::numeric_limits<double>::infinity()}),
               std::invalid_argument);
  EXPECT_THROW(HdrHistogram({std::numeric_limits<double>::quiet_NaN()}),
               std::invalid_argument);
  // A rejected config registers nothing: the name stays free for a
  // later, valid registration.
  EXPECT_THROW(hdr("test.bad_cfg", {1.0, /*sub_bucket_bits=*/0}),
               std::invalid_argument);
  EXPECT_EQ(MetricsRegistry::instance().snapshot().hdrs.count("test.bad_cfg"),
            0u);
  EXPECT_EQ(hdr("test.bad_cfg").config(), HdrConfig{});
}

TEST_F(ObsMetrics, ExpBounds) {
  // Octave k spans (lowest * 2^k, lowest * 2^(k+1)]; its last
  // sub-bucket ends exactly on the next power of two.
  const HdrConfig cfg{1.5, 3, 6};
  const HdrHistogram h(cfg);
  const std::size_t subs = std::size_t{1} << cfg.sub_bucket_bits;
  for (int k = 0; k < cfg.octaves; ++k) {
    const std::size_t last = (static_cast<std::size_t>(k) + 1) * subs - 1;
    EXPECT_DOUBLE_EQ(h.bucket_upper(last), std::ldexp(cfg.lowest, k + 1))
        << "octave " << k;
  }
  EXPECT_DOUBLE_EQ(h.bucket_lower(h.bucket_count() - 1),
                   std::ldexp(cfg.lowest, cfg.octaves));
}

TEST_F(ObsMetrics, SnapshotAndReset) {
  counter("snap.c").add(3);
  gauge("snap.g").set(2.5);
  hdr("snap.h").record(0.5);
  auto snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("snap.c"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("snap.g"), 2.5);
  EXPECT_EQ(snap.hdrs.at("snap.h").count, 1u);
  EXPECT_DOUBLE_EQ(snap.hdrs.at("snap.h").sum, 0.5);

  MetricsRegistry::instance().reset();
  snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("snap.c"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("snap.g"), 0.0);
  EXPECT_EQ(snap.hdrs.at("snap.h").count, 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("snap.h.p50"), 0.0);
}

TEST_F(ObsTrace, DisabledModeRecordsNothing) {
  ASSERT_FALSE(trace_enabled());
  {
    ScopedSpan span("noop.span");
    instant("noop.instant");
    instant_arg("noop.arg", "k", 1.0);
  }
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
}

TEST_F(ObsTrace, ChromeTraceIsWellFormed) {
  Tracer::instance().set_enabled(true);
  {
    ScopedSpan outer("outer.span", "test");
    ScopedSpan inner("inner.span", "test");
    instant_arg2("marker", "index", 3.0, "ok", 1.0, "test");
  }
  Tracer::instance().set_enabled(false);

  std::ostringstream os;
  Tracer::instance().write_chrome_trace(os);
  const auto doc = json::Value::parse(os.str());  // must parse back
  const json::Value& events = doc.at("traceEvents");
  ASSERT_EQ(events.size(), 3u);

  bool saw_span = false;
  bool saw_instant = false;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const json::Value& ev = events[i];
    const std::string& ph = ev.at("ph").as_string();
    EXPECT_GE(ev.at("ts").as_number(), 0.0);
    if (ph == "X") {
      saw_span = true;
      EXPECT_GE(ev.at("dur").as_number(), 0.0);
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(ev.at("name").as_string(), "marker");
      EXPECT_DOUBLE_EQ(ev.at("args").at("index").as_number(), 3.0);
      EXPECT_DOUBLE_EQ(ev.at("args").at("ok").as_number(), 1.0);
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST_F(ObsTrace, JsonlOneParsableObjectPerLine) {
  Tracer::instance().set_enabled(true);
  { ScopedSpan span("jsonl.span"); }
  instant("jsonl.marker");
  Tracer::instance().set_enabled(false);

  std::ostringstream os;
  Tracer::instance().write_jsonl(os);
  std::istringstream in(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto ev = json::Value::parse(line);
    EXPECT_TRUE(ev.has("name"));
    EXPECT_TRUE(ev.has("ts"));
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

TEST_F(ObsTrace, ClearDropsEventsAndRestartsEpoch) {
  Tracer::instance().set_enabled(true);
  instant("before.clear");
  Tracer::instance().clear();
  EXPECT_EQ(Tracer::instance().event_count(), 0u);
  instant("after.clear");
  EXPECT_EQ(Tracer::instance().event_count(), 1u);
}

TEST_F(ObsReport, MetricsJsonSchemaRoundTrip) {
  const std::string path = "/tmp/witag_obs_report_test.json";
  {
    const std::vector<const char*> argv{"prog", "--metrics-out",
                                        path.c_str()};
    const util::Args args(static_cast<int>(argv.size()), argv.data());
    RunScope run("unit_bench", args);
    run.config("alpha", 1.5);
    run.config("mode", "fast");
    counter("unit.count").add(7);
    hdr("unit.hist").record(1.5);
  }  // destructor writes the report

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const auto doc = json::Value::parse(ss.str());
  EXPECT_EQ(doc.at("bench").as_string(), "unit_bench");
  EXPECT_DOUBLE_EQ(doc.at("config").at("alpha").as_number(), 1.5);
  EXPECT_EQ(doc.at("config").at("mode").as_string(), "fast");
  EXPECT_GE(doc.at("wall_ms").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("unit.count").as_number(), 7.0);
  const json::Value& hist = doc.at("hdr").at("unit.hist");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), 1.5);
  EXPECT_GE(hist.at("p50").as_number(), 1.5);
  EXPECT_LE(hist.at("p50").as_number(), 1.5 * (1.0 + 1.0 / 32.0));
  EXPECT_DOUBLE_EQ(hist.at("max").as_number(), 1.5);
  EXPECT_FALSE(doc.has("histograms"));
  std::vector<std::string> keys;
  for (const auto& [key, value] : doc.members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"bench", "config", "wall_ms",
                                            "counters", "gauges", "hdr"}));
  std::remove(path.c_str());
}

TEST_F(ObsReport, NoMetricsFlagSuppressesOutput) {
  const std::vector<const char*> argv{"prog", "--no-metrics"};
  const util::Args args(static_cast<int>(argv.size()), argv.data());
  RunScope run("unit_bench", args);
  EXPECT_TRUE(run.metrics_path().empty());
}

TEST_F(ObsSession, SpanCountsMatchLinkMetrics) {
  Tracer::instance().set_enabled(true);
  auto cfg = core::los_testbed_config(util::Meters{4.0}, 77);
  core::Session session(cfg);
  const auto stats = session.run(3);
  Tracer::instance().set_enabled(false);

  std::size_t round_spans = 0;
  std::size_t transmit_spans = 0;
  std::size_t rx_front_spans = 0;
  std::size_t subframe_events = 0;
  for (const TraceEvent& ev : Tracer::instance().events()) {
    const std::string_view name = ev.name;
    if (name == "session.round" && ev.ph == 'X') ++round_spans;
    if (name == "phy.transmit" && ev.ph == 'X') ++transmit_spans;
    if (name == "phy.rx_front" && ev.ph == 'X') ++rx_front_spans;
    if (name == "session.subframe" && ev.ph == 'i') ++subframe_events;
  }
  EXPECT_EQ(round_spans, stats.metrics.rounds());
  // Each round builds one query PPDU and decodes it once at the AP.
  EXPECT_EQ(transmit_spans, stats.metrics.rounds());
  EXPECT_EQ(rx_front_spans, stats.metrics.rounds());
  EXPECT_EQ(subframe_events, stats.metrics.bits());

  // The always-on counters agree with LinkMetrics too.
  const auto snap = MetricsRegistry::instance().snapshot();
  EXPECT_EQ(snap.counters.at("witag.rounds"), stats.metrics.rounds());
  EXPECT_EQ(snap.counters.at("witag.bits"), stats.metrics.bits());
  EXPECT_EQ(snap.counters.at("witag.bit_errors"), stats.metrics.bit_errors());
  EXPECT_EQ(snap.counters.at("witag.missed_corruption"),
            stats.metrics.missed_corruptions());
  EXPECT_EQ(snap.counters.at("witag.false_corruption"),
            stats.metrics.false_corruptions());
}

// --- Crash-safe flush ------------------------------------------------
// Each test forks a child that heap-leaks its RunScope (so the
// destructor can never write the report) and then dies — by signal or
// by exit() — proving the installed handlers/atexit hook flush for it.

json::Value parse_json_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return json::Value::parse(ss.str());
}

TEST_F(ObsCrashFlush, SignalHandlerWritesMetricsReport) {
  const std::string metrics = ::testing::TempDir() + "crash_sigint.json";
  std::remove(metrics.c_str());

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    (void)!freopen("/dev/null", "w", stderr);
    const std::vector<const char*> argv{"prog", "--metrics-out",
                                        metrics.c_str()};
    const util::Args args(static_cast<int>(argv.size()), argv.data());
    auto* run = new RunScope("crash_bench", args);
    run->config("mode", "crash");
    counter("crash.count").add(3);
    std::raise(SIGINT);
    _exit(99);  // unreachable: the handler re-raises with SIG_DFL
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGINT);

  const json::Value doc = parse_json_file(metrics);
  EXPECT_EQ(doc.at("bench").as_string(), "crash_bench");
  EXPECT_EQ(doc.at("config").at("mode").as_string(), "crash");
  EXPECT_DOUBLE_EQ(doc.at("counters").at("crash.count").as_number(), 3.0);
  std::remove(metrics.c_str());
}

TEST_F(ObsCrashFlush, SigtermFlushesFinalStreamRecord) {
  const std::string metrics = ::testing::TempDir() + "crash_sigterm.json";
  const std::string stream = ::testing::TempDir() + "crash_sigterm.jsonl";
  std::remove(metrics.c_str());
  std::remove(stream.c_str());

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    (void)!freopen("/dev/null", "w", stderr);
    // A huge flush period: nothing but the meta record is written
    // before the crash, so everything below must come from the handler.
    const std::vector<const char*> argv{
        "prog",         "--metrics-out", metrics.c_str(), "--stream-out",
        stream.c_str(), "--stream-period-ms", "60000"};
    const util::Args args(static_cast<int>(argv.size()), argv.data());
    auto* run = new RunScope("crash_bench", args);
    (void)run;
    counter("crash.count").add(7);
    hdr("crash.lat").record(5.0);
    instant("crash_ev");
    std::raise(SIGTERM);
    _exit(99);
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGTERM);

  // The stream ends with a "final" record carrying the totals, and the
  // span recorded just before the crash made it out of the ring.
  std::ifstream in(stream);
  ASSERT_TRUE(in.good()) << stream;
  std::vector<json::Value> records;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) records.push_back(json::Value::parse(line));
  }
  ASSERT_GE(records.size(), 3u);  // meta + span + final
  EXPECT_EQ(records.front().at("type").as_string(), "meta");
  EXPECT_EQ(records.back().at("type").as_string(), "final");
  EXPECT_DOUBLE_EQ(
      records.back().at("counters").at("crash.count").as_number(), 7.0);
  EXPECT_DOUBLE_EQ(
      records.back().at("hdr").at("crash.lat").at("count").as_number(), 1.0);
  std::size_t spans = 0;
  for (const json::Value& rec : records) {
    if (rec.at("type").as_string() == "span") ++spans;
  }
  EXPECT_GE(spans, 1u);

  const json::Value doc = parse_json_file(metrics);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("crash.count").as_number(), 7.0);
  std::remove(metrics.c_str());
  std::remove(stream.c_str());
}

TEST_F(ObsCrashFlush, AtexitFlushesLeakedScope) {
  const std::string metrics = ::testing::TempDir() + "crash_atexit.json";
  std::remove(metrics.c_str());

  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    (void)!freopen("/dev/null", "w", stderr);
    const std::vector<const char*> argv{"prog", "--metrics-out",
                                        metrics.c_str()};
    const util::Args args(static_cast<int>(argv.size()), argv.data());
    auto* run = new RunScope("crash_bench", args);
    (void)run;  // leaked: only the atexit hook can write the report
    counter("crash.count").add(5);
    std::exit(7);
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7);

  const json::Value doc = parse_json_file(metrics);
  EXPECT_DOUBLE_EQ(doc.at("counters").at("crash.count").as_number(), 5.0);
  std::remove(metrics.c_str());
}

}  // namespace
}  // namespace witag::obs
