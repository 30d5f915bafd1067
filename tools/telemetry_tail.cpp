// telemetry_tail: live terminal readout for a TelemetryStreamer JSONL
// file (bench/soak --stream-out soak.jsonl, RunScope --stream-out).
//
// Modes:
//   --once     read the whole file, print one summary, exit (CI smoke)
//   --follow   keep reading as the producer appends; print one readout
//              line per metrics record; exit when the "final" record
//              arrives (or on EOF if the file already ended with one)
//
// Per-record readout: sequence number, stream time, the headline
// counter's cumulative value and rate since the previous record, span
// and drop totals, and every HDR histogram's p50/p99. The summary adds
// a counters table with average rates and the full quantile set.
//
// Options: <path> (positional or --in PATH), --follow / --once
//          (default --once), --interval-ms N (follow poll period,
//          default 200), --counter NAME (headline counter, default
//          session.exchanges), --expect-metrics N (exit 1 unless at
//          least N metrics/final records were seen — CI smoke
//          assertion), --timeout-s S (follow gives up when no final
//          record arrives in time; 0 = wait forever). A numeric value
//          must parse whole, N as a non-negative integer, or the tool
//          exits 2 with "telemetry_tail: <flag>: '<value>' is not a
//          number".
//
// Exit codes: 0 ok, 1 expectation failed / timeout, 2 usage or I/O.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "util/cli.hpp"

namespace {

using witag::obs::json::Value;

struct MetricsRecord {
  std::uint64_t seq = 0;
  double ts_us = 0.0;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::uint64_t spans_dropped = 0;
  /// name -> {p50, p90, p99, p999, max, count}
  std::map<std::string, std::map<std::string, double>> hdr;
};

struct TailState {
  std::uint64_t lines = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t spans = 0;
  std::uint64_t metrics_records = 0;
  bool saw_final = false;
  std::string bench;
  bool have_prev = false;
  MetricsRecord prev;
  MetricsRecord last;
};

MetricsRecord parse_metrics(const Value& doc) {
  MetricsRecord rec;
  if (doc.has("seq")) rec.seq = static_cast<std::uint64_t>(doc.at("seq").as_number());
  if (doc.has("ts_us")) rec.ts_us = doc.at("ts_us").as_number();
  if (doc.has("counters")) {
    for (const auto& [name, v] : doc.at("counters").members()) {
      rec.counters[name] = v.as_number();
    }
  }
  if (doc.has("gauges")) {
    for (const auto& [name, v] : doc.at("gauges").members()) {
      rec.gauges[name] = v.as_number();
    }
  }
  if (doc.has("spans_dropped")) {
    rec.spans_dropped =
        static_cast<std::uint64_t>(doc.at("spans_dropped").as_number());
  }
  if (doc.has("hdr")) {
    for (const auto& [name, h] : doc.at("hdr").members()) {
      for (const auto& [k, v] : h.members()) {
        rec.hdr[name][k] = v.as_number();
      }
    }
  }
  return rec;
}

std::string fmt(double v, int digits = 1) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

void print_readout(const TailState& st, const std::string& headline) {
  const MetricsRecord& rec = st.last;
  std::string line = "[tail] seq " + std::to_string(rec.seq) + " t=" +
                     fmt(rec.ts_us / 1e6, 1) + "s";
  const auto it = rec.counters.find(headline);
  if (it != rec.counters.end()) {
    line += " " + headline + "=" + fmt(it->second, 0);
    if (st.have_prev) {
      const auto pit = st.prev.counters.find(headline);
      const double dt_s = (rec.ts_us - st.prev.ts_us) / 1e6;
      if (pit != st.prev.counters.end() && dt_s > 0.0) {
        line += " (+" + fmt((it->second - pit->second) / dt_s, 1) + "/s)";
      }
    }
  }
  line += " spans=" + std::to_string(st.spans) +
          " dropped=" + std::to_string(rec.spans_dropped);
  for (const auto& [name, q] : rec.hdr) {
    const auto p50 = q.find("p50");
    const auto p99 = q.find("p99");
    if (p50 != q.end() && p99 != q.end()) {
      line += " | " + name + " p50=" + fmt(p50->second, 0) +
              " p99=" + fmt(p99->second, 0);
    }
  }
  std::cout << line << '\n' << std::flush;
}

void print_summary(const TailState& st) {
  const MetricsRecord& rec = st.last;
  std::cout << "=== telemetry summary";
  if (!st.bench.empty()) std::cout << ": " << st.bench;
  std::cout << " ===\n"
            << st.lines << " records (" << st.metrics_records
            << " metrics, " << st.spans << " spans, " << st.parse_errors
            << " parse errors), final record "
            << (st.saw_final ? "present" : "MISSING") << "\n";
  if (st.metrics_records == 0) return;
  const double elapsed_s = rec.ts_us / 1e6;
  std::cout << "stream time " << fmt(elapsed_s, 2) << " s, spans dropped "
            << rec.spans_dropped << "\n\ncounters (cumulative, avg/s):\n";
  for (const auto& [name, v] : rec.counters) {
    std::cout << "  " << name << " = " << fmt(v, 0);
    if (elapsed_s > 0.0) std::cout << "  (" << fmt(v / elapsed_s, 1) << "/s)";
    std::cout << '\n';
  }
  if (!rec.gauges.empty()) {
    std::cout << "\ngauges (last value):\n";
    for (const auto& [name, v] : rec.gauges) {
      std::cout << "  " << name << " = " << fmt(v, 3) << '\n';
    }
  }
  if (!rec.hdr.empty()) {
    std::cout << "\nlatency quantiles:\n";
    for (const auto& [name, q] : rec.hdr) {
      std::cout << "  " << name;
      for (const char* key : {"p50", "p90", "p99", "p999", "max"}) {
        const auto it = q.find(key);
        if (it != q.end()) {
          std::cout << " " << key << "=" << fmt(it->second, 1);
        }
      }
      std::cout << '\n';
    }
  }
}

/// Consumes one JSONL line into the running state. Returns false on a
/// parse failure (counted, not fatal: a live tail can race a write).
bool consume_line(TailState& st, const std::string& line,
                  bool live, const std::string& headline) {
  if (line.empty()) return true;
  ++st.lines;
  Value doc;
  try {
    doc = Value::parse(line);
  } catch (const std::exception&) {
    ++st.parse_errors;
    return false;
  }
  const std::string type = doc.has("type") ? doc.at("type").as_string() : "";
  if (type == "meta") {
    if (doc.has("bench")) st.bench = doc.at("bench").as_string();
  } else if (type == "span") {
    ++st.spans;
  } else if (type == "metrics" || type == "final") {
    if (st.metrics_records > 0) {
      st.prev = st.last;
      st.have_prev = true;
    }
    st.last = parse_metrics(doc);
    ++st.metrics_records;
    if (type == "final") st.saw_final = true;
    if (live) print_readout(st, headline);
  }
  return true;
}

/// All of `value` as a T (util::parse_whole), or exit 2 naming `flag`.
template <typename T>
T number(const char* flag, const std::string& value) {
  if (const std::optional<T> out = witag::util::parse_whole<T>(value)) {
    return *out;
  }
  std::cerr << "telemetry_tail: " << flag << ": '" << value
            << "' is not a number\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  bool follow = false;
  double interval_ms = 200.0;
  std::string headline = "session.exchanges";
  std::optional<std::uint64_t> expect_metrics;
  double timeout_s = 0.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "telemetry_tail: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--follow") {
      follow = true;
    } else if (arg == "--once") {
      follow = false;
    } else if (arg == "--in") {
      path = next("--in");
    } else if (arg == "--interval-ms") {
      interval_ms = number<double>("--interval-ms", next("--interval-ms"));
    } else if (arg == "--counter") {
      headline = next("--counter");
    } else if (arg == "--expect-metrics") {
      expect_metrics =
          number<std::uint64_t>("--expect-metrics", next("--expect-metrics"));
    } else if (arg == "--timeout-s") {
      timeout_s = number<double>("--timeout-s", next("--timeout-s"));
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "telemetry_tail: unknown flag " << arg << "\n"
                << "usage: telemetry_tail [--follow|--once] [--interval-ms N]"
                   " [--counter NAME] [--expect-metrics N] [--timeout-s S]"
                   " <stream.jsonl>\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "telemetry_tail: no input file\n";
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "telemetry_tail: cannot open " << path << "\n";
    return 2;
  }

  TailState st;
  std::string pending;
  const auto started = std::chrono::steady_clock::now();
  bool timed_out = false;
  for (;;) {
    char buf[1 << 16];
    in.read(buf, sizeof buf);
    const std::streamsize n = in.gcount();
    if (n > 0) {
      pending.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl = pending.find('\n', start);
           nl != std::string::npos; nl = pending.find('\n', start)) {
        consume_line(st, pending.substr(start, nl - start), follow, headline);
        start = nl + 1;
      }
      pending.erase(0, start);
    }
    if (st.saw_final) break;
    if (in.eof()) {
      if (!follow) break;
      in.clear();  // more may be appended; poll again
      if (timeout_s > 0.0 &&
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
                  .count() > timeout_s) {
        timed_out = true;
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(interval_ms));
    } else if (!in.good()) {
      std::cerr << "telemetry_tail: read error on " << path << "\n";
      return 2;
    }
  }
  // A last line without a trailing newline only happens on a torn
  // final write; parse it anyway.
  if (!pending.empty()) consume_line(st, pending, follow, headline);

  print_summary(st);
  if (timed_out) {
    std::cerr << "[tail] FAIL: no final record within " << timeout_s
              << " s\n";
    return 1;
  }
  if (expect_metrics && st.metrics_records < *expect_metrics) {
    std::cerr << "[tail] FAIL: saw " << st.metrics_records
              << " metrics records, expected at least " << *expect_metrics
              << "\n";
    return 1;
  }
  return 0;
}
