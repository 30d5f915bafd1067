// The three workloads. Each is a closed loop — one caller issues the
// next call only after the previous one returned — over a fixed
// configuration derived from the seed:
//
//   link_long           Session::run_round, 64-subframe MCS5 queries,
//                       ideal trigger, open network, no faults.
//   city_short          sim::run_city, 320 cells of 8-subframe queries,
//                       8 shards, timed on 1 worker and checked and
//                       traced on 2.
//   hostile_supervised  LinkSupervisor::deliver over a hostile link
//                       (faults at intensity 0.5, envelope trigger,
//                       CCMP, rateless LT frames, predictive skips).
//
// Host-time metrics come from the timed loop. Simulated-time metrics
// come from a fixed number of calls at its start, so they repeat
// exactly for a seed whatever the host's speed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "faults/fault_plan.hpp"
#include "sim/city.hpp"
#include "sim/interference.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "witag/reader.hpp"
#include "witag/session.hpp"
#include "witag/supervisor.hpp"

namespace perfbench {
namespace {

using namespace witag;

constexpr double kTagToClientM = 2.0;

/// Order-sensitive FNV-1a over the simulated outcome of a call sequence:
/// two runs of one seed must produce the same digest.
class Digest {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double x) { add(static_cast<std::uint64_t>(std::llround(x * 1e6))); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void digest_round(Digest& d, const core::Session::RoundResult& r) {
  for (const auto b : r.sent) d.add(static_cast<std::uint64_t>(b));
  for (const bool b : r.received) d.add(static_cast<std::uint64_t>(b));
  d.add(static_cast<std::uint64_t>(r.lost));
  d.add(r.airtime_us.value());
}

void digest_delivery(Digest& d,
                     const core::LinkSupervisor::DeliveryResult& r) {
  d.add(static_cast<std::uint64_t>(r.ok));
  for (const auto b : r.payload) d.add(static_cast<std::uint64_t>(b));
  d.add(static_cast<std::uint64_t>(r.rounds));
  d.add(static_cast<std::uint64_t>(r.retries));
  d.add(static_cast<std::uint64_t>(r.rounds_skipped));
  d.add(static_cast<std::uint64_t>(r.droplets_used));
  d.add(r.airtime_us.value());
}

bool all_equal(const std::vector<std::uint64_t>& v) {
  return std::all_of(v.begin(), v.end(),
                     [&](std::uint64_t x) { return x == v.front(); });
}

/// Runs `call` once, counting it as an attempted operation; an exception
/// is a failed operation (reported, and the loop goes on).
template <typename F>
bool attempt(Report& report, const char* what, F&& call) {
  ++report.attempted;
  try {
    call();
    return true;
  } catch (const std::exception& e) {
    ++report.failed;
    std::cerr << "perfbench: " << what << " threw: " << e.what() << "\n";
    return false;
  }
}

/// The host's speed over a run, from samples of the probe (probe.cpp)
/// taken between calls.
///
/// The host is shared, and its speed drifts in phases of seconds to
/// minutes. On the baseline VM, link_long's round time rose 1.28x over
/// five minutes of runs; over 90 seconds its 5-second medians varied by
/// 14% (coefficient of variation) while their ratio to the probe's
/// varied by 2%. A host time divided by slowdown() is the time the same
/// work takes on the reference host: the drift cancels, and a change to
/// the program still shows in full, since the probe calls nothing in src/.
class HostSpeed {
 public:
  /// The probe's median time on the reference host, the baseline VM
  /// (4-vCPU Intel Xeon, 2.0 GHz) in a quiet phase [us].
  static constexpr double kReferenceProbeUs = 162.7;
  /// Least time between samples; a sample costs ~2% of it.
  static constexpr double kEvery_s = 0.025;

  /// A traced run reports raw host times and takes no samples, so no
  /// probe runs between its calls.
  explicit HostSpeed(const Options& opt) : enabled_(!opt.trace) {}

  /// Takes a sample, the median of three probes, unless one was taken in
  /// the last kEvery_s.
  void sample() {
    if (!enabled_) return;
    if (!samples_.empty() && now_s() - samples_.back().t_s < kEvery_s) return;
    const std::vector<double> us = {probe_us(), probe_us(), probe_us()};
    samples_.push_back({now_s(), quantile(us, 0.5)});
  }

  /// How much slower than the reference host the host ran over
  /// [t0_s, t1_s]: the median probe time of the samples taken within
  /// kEvery_s of that interval (the nearest one when none is) over
  /// kReferenceProbeUs.
  double slowdown(double t0_s, double t1_s) const {
    if (samples_.empty()) return 1.0;
    // Samples are in time order.
    auto it = std::lower_bound(
        samples_.begin(), samples_.end(), t0_s - kEvery_s,
        [](const Sample& s, double t) { return s.t_s < t; });
    std::vector<double> us;
    for (auto s = it; s != samples_.end() && s->t_s <= t1_s + kEvery_s; ++s) {
      us.push_back(s->us);
    }
    if (us.empty()) {
      // The nearest sample: the first after the interval or the last
      // before it.
      if (it == samples_.end() ||
          (it != samples_.begin() && t0_s - std::prev(it)->t_s < it->t_s - t1_s)) {
        --it;
      }
      us.push_back(it->us);
    }
    return quantile(us, 0.5) / kReferenceProbeUs;
  }

 private:
  struct Sample {
    double t_s;
    double us;
  };
  bool enabled_;
  std::vector<Sample> samples_;
};

/// Host-time record of a timed closed loop, one entry per call, and the
/// end-to-end host metrics derived from it: exchanges per second of wall
/// time, and the median host time per exchange, where a call's time per
/// exchange is its busy time (summed over its worker threads) over the
/// exchanges it ran. Both are in reference-host time (HostSpeed).
///
/// Each call's times are divided by the host's slowdown around that
/// call. The loop is cut into ten windows of consecutive calls (one call
/// each when there are fewer than ten); each metric is computed per
/// window, and the run reports the median over the windows.
class CallLog {
 public:
  static constexpr std::size_t kWindows = 10;

  /// A call that ran from `t0_s` to `t1_s`. `wall_s` is the wall time its
  /// exchanges took (the whole call unless the call times its own set-up
  /// separately), `busy_s` the thread time they took (equal to `wall_s`
  /// on one thread).
  void add(double t0_s, double t1_s, double wall_s, double busy_s,
           double exchanges) {
    calls_.push_back({t0_s, t1_s, wall_s, busy_s, exchanges});
  }
  std::size_t size() const { return calls_.size(); }

  void report(Report& report, const HostSpeed& host) const {
    const std::size_t windows =
        std::clamp<std::size_t>(calls_.size(), 1, kWindows);
    const std::size_t per = calls_.size() / windows;
    std::vector<double> xps;
    std::vector<double> p50;
    std::vector<double> slowdowns;
    for (std::size_t w = 0; w < windows; ++w) {
      // The last window takes the remainder.
      const std::size_t end = w + 1 == windows ? calls_.size() : (w + 1) * per;
      std::vector<double> us;
      double wall = 0.0;
      double exchanges = 0.0;
      for (std::size_t i = w * per; i < end; ++i) {
        const Call& c = calls_[i];
        const double slow = host.slowdown(c.t0_s, c.t1_s);
        slowdowns.push_back(slow);
        if (c.exchanges > 0.0) {
          us.push_back(c.busy_s / slow / c.exchanges * 1e6);
        }
        wall += c.wall_s / slow;
        exchanges += c.exchanges;
      }
      xps.push_back(wall > 0.0 ? exchanges / wall : 0.0);
      p50.push_back(quantile(us, 0.5));
    }
    report.set("exchanges_per_s", quantile(xps, 0.5));
    report.set("exchange_us_p50", quantile(p50, 0.5));
    std::cerr << "perfbench: host " << quantile(slowdowns, 0.5)
              << "x slower than the reference host (median over "
              << calls_.size() << " calls)\n";
  }

 private:
  struct Call {
    double t0_s;
    double t1_s;
    double wall_s;
    double busy_s;
    double exchanges;
  };
  std::vector<Call> calls_;
};

/// When to take the next set-up sample during a timed loop. The host's
/// speed drifts in phases of seconds, so set-ups taken back to back would
/// all land in one phase; spread over the loop, their median is the run's
/// typical set-up time.
class SetupSchedule {
 public:
  /// One sample every `every_s` seconds; never when `every_s` is infinite.
  explicit SetupSchedule(double every_s)
      : every_s_(every_s), next_s_(now_s() + every_s) {}

  bool due() {
    if (now_s() < next_s_) return false;
    next_s_ += every_s_;
    return true;
  }

 private:
  double every_s_;
  double next_s_;
};

/// Ten set-up samples over a timed run; none in a traced run, which
/// reports no set-up time.
SetupSchedule setup_schedule(const Options& opt) {
  return SetupSchedule(opt.trace ? INFINITY : opt.seconds / 10.0);
}

/// One set-up sample: it ran within [t0_s, t1_s] and took `s` seconds.
struct SetupSample {
  double t0_s;
  double t1_s;
  double s;
};

/// Set-up time (median of the samples, in reference-host time) and
/// memory, the end-to-end metrics every workload reports besides its
/// loop's.
void report_setup(Report& report, const std::vector<SetupSample>& setups,
                  const HostSpeed& host) {
  std::vector<double> s;
  for (const SetupSample& x : setups) {
    s.push_back(x.s / host.slowdown(x.t0_s, x.t1_s));
  }
  report.set("setup_s", quantile(s, 0.5));
  report.set("peak_rss_mb", peak_rss_mb());
}

/// Per-layer metrics a workload does not exercise read zero: the
/// prediction for that layer on that workload is "no change".
void set_idle_layers(Report& report, bool supervised, bool city) {
  if (!supervised) {
    for (const char* name :
         {"faults.events_per_exchange", "witag.rounds_per_delivery",
          "witag.skip_frac", "witag.retries_per_delivery",
          "witag.droplet_overhead", "witag.delivery_fail_frac",
          "witag.delivery_ms_p50", "witag.delivery_ms_p90"}) {
      report.set(name, 0.0);
    }
  } else {
    // Reader and supervisor consume the rounds: no per-bit BER here.
    report.set("witag.tag_ber", 0.0);
    report.set("witag.round_loss_frac", 0.0);
  }
  if (!city) {
    for (const char* name :
         {"sim.events", "sim.barrier_us", "runner.parallel_efficiency"}) {
      report.set(name, 0.0);
    }
  }
}

/// Host times of untraced Session::run_round calls on `cfg` — the
/// reference the replay's span coverage is measured against.
std::vector<double> untraced_round_us(const core::SessionConfig& cfg,
                                      double ambient_w, double budget_s,
                                      std::size_t min_rounds) {
  core::Session session(cfg);
  session.channel().set_ambient_noise(util::Watts{ambient_w});
  for (int i = 0; i < 2; ++i) (void)session.run_round();
  std::vector<double> us;
  const double t_end = now_s() + budget_s;
  while (us.size() < min_rounds || now_s() < t_end) {
    const double t0 = now_s();
    (void)session.run_round();
    us.push_back((now_s() - t0) * 1e6);
  }
  return us;
}

/// Per-layer host time of untraced exchanges, then the traced replay
/// against that reference.
void replay_against(const core::SessionConfig& cfg, double ambient_w,
                    const std::vector<double>& round_us, double budget_s,
                    std::size_t min_exchanges, const Options& opt,
                    Report& report) {
  report.set("witag.exchange_us_p90", quantile(round_us, 0.9));
  run_replay(cfg, ambient_w, budget_s, min_exchanges,
             quantile(round_us, 0.5), opt.spans_out, report);
}

// --- link_long -------------------------------------------------------

core::SessionConfig link_long_config(std::uint64_t seed) {
  core::SessionConfig cfg =
      core::los_testbed_config(util::Meters{kTagToClientM}, seed);
  cfg.query.n_subframes = 64;
  cfg.query.mcs_index = 5;
  cfg.trigger_mode = core::TriggerMode::kIdeal;
  cfg.security.mode = mac::Security::kOpen;
  cfg.faults = {};
  return cfg;
}

/// Simulated outcome of a run of exchanges on one session.
struct RoundTally {
  core::LinkMetrics metrics;
  /// Simulated time between consecutive exchanges that delivered a
  /// block ack (the city's latency definition, for one link).
  std::vector<double> gap_us;
  double now_us = 0.0;
  double last_ok_us = -1.0;

  void add(const core::Session::RoundResult& r) {
    metrics.record_round(r.sent, r.received, r.lost, r.airtime_us);
    now_us += r.airtime_us.value();
    if (r.lost) return;
    if (last_ok_us >= 0.0) gap_us.push_back(now_us - last_ok_us);
    last_ok_us = now_us;
  }
};

void run_link_long(const Options& opt, Report& report) {
  const core::SessionConfig cfg = link_long_config(opt.seed);
  const std::size_t sim_rounds = opt.tiny ? 4 : 400;

  // Set-up: construction plus warm-up rounds (decoder scratch growth,
  // first CFR build), twice before the loop and again during it; the
  // warm-up outcomes double as the same-seed repeat check.
  HostSpeed host(opt);
  std::vector<SetupSample> setup_s;
  std::vector<std::uint64_t> digests;
  const auto set_up = [&] {
    host.sample();
    const double t0 = now_s();
    auto s = std::make_unique<core::Session>(cfg);
    Digest d;
    for (int i = 0; i < 3; ++i) digest_round(d, s->run_round());
    const double t1 = now_s();
    setup_s.push_back({t0, t1, t1 - t0});
    digests.push_back(d.value());
    return s;
  };
  const std::unique_ptr<core::Session> session = set_up();
  (void)set_up();

  RoundTally sim;
  CallLog calls;
  std::vector<double> round_us;
  SetupSchedule setups = setup_schedule(opt);
  const double t_end = now_s() + (opt.trace ? 0.0 : opt.seconds);
  while (calls.size() < sim_rounds || now_s() < t_end) {
    if (setups.due()) (void)set_up();
    host.sample();
    core::Session::RoundResult r;
    const double t0 = now_s();
    const bool ok =
        attempt(report, "run_round", [&] { r = session->run_round(); });
    const double t1 = now_s();
    calls.add(t0, t1, t1 - t0, t1 - t0, 1.0);
    round_us.push_back((t1 - t0) * 1e6);
    if (ok && calls.size() <= sim_rounds) sim.add(r);
  }
  host.sample();
  report.check(all_equal(digests),
               "link_long: same-seed sessions repeat their rounds exactly");
  const core::LinkMetrics& m = sim.metrics;
  report.check(m.ber() >= 0.0 && m.ber() <= 0.5,
               "link_long: 0 <= tag_ber <= 0.5");

  if (!opt.trace) {
    calls.report(report, host);
    report_setup(report, setup_s, host);
    return;
  }
  report.set("witag.tag_goodput_kbps", m.goodput_kbps());
  report.set("witag.tag_ber", m.ber());
  report.set("witag.round_loss_frac", static_cast<double>(m.rounds_lost()) /
                                          static_cast<double>(m.rounds()));
  report.set("witag.sim_latency_us_p99", quantile(sim.gap_us, 0.99));
  replay_against(cfg, 0.0, round_us, 0.45 * opt.seconds, opt.tiny ? 2 : 20,
                 opt, report);
  set_idle_layers(report, false, false);
}

// --- city_short ------------------------------------------------------

sim::CityConfig city_config(std::uint64_t seed, bool tiny) {
  sim::CityConfig cfg;
  cfg.n_cells = tiny ? 24 : 320;  // 3 nodes per cell: 960 nodes
  cfg.n_shards = 8;
  // Three barriers over 1.5 ms of city time, ~1,500 exchanges: short
  // calls, so the timed loop holds many of them.
  cfg.epochs = 3;
  cfg.epoch_us = 500.0;
  cfg.mcs = 5;
  cfg.n_subframes = 8;
  cfg.tag_pos_m = kTagToClientM;
  cfg.coupling_scale = 0.02;
  cfg.seed = seed;
  return cfg;
}

/// The timed loop runs the city on one worker. On two, an exchange cost
/// 1.4x the thread time and moved with where the host placed the two
/// threads (1,050-1,750 us between consecutive calls, against ~1,000 us
/// steady on one), so the timed figures measured the host.
constexpr std::size_t kTimedJobs = 1;

/// Workers of the parallel runs (the worker-count check and the traced
/// run's parallel efficiency): two, or fewer on a smaller machine.
std::size_t city_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 2);
}

/// Everything simulated in a CityResult (host timings excluded).
std::vector<double> city_outcome(const sim::CityResult& r) {
  return {static_cast<double>(r.merged.bits()),
          static_cast<double>(r.merged.bit_errors()),
          static_cast<double>(r.merged.rounds()),
          static_cast<double>(r.merged.rounds_lost()),
          r.merged.elapsed_us().value(),
          r.latency_us.p50,
          r.latency_us.p90,
          r.latency_us.p99,
          r.latency_us.max,
          static_cast<double>(r.latency_count),
          static_cast<double>(r.events),
          static_cast<double>(r.pool_reuses),
          r.mean_ambient_w};
}

/// The session one city cell runs (sim/city.cpp's cell_config).
core::SessionConfig city_cell_config(const sim::CityConfig& city,
                                     std::size_t cell) {
  core::SessionConfig cfg = core::los_testbed_config(
      util::Meters{city.tag_pos_m}, util::Rng::derive_seed(city.seed, cell));
  cfg.query.mcs_index = city.mcs;
  cfg.query.n_subframes = city.n_subframes;
  return cfg;
}

/// Aggregate over cells: delivered tag bits per second of city time.
/// (LinkMetrics::merge sums per-cell elapsed time, so the merged
/// goodput is a per-cell mean.)
double city_goodput_kbps(const sim::CityConfig& cfg, const sim::CityResult& r) {
  const double city_s = static_cast<double>(cfg.epochs) * cfg.epoch_us / 1e6;
  return static_cast<double>(r.merged.bits() - r.merged.bit_errors()) /
         city_s / 1e3;
}

/// Host time of one interference barrier over the deployment's cells.
double barrier_us(const sim::CityConfig& city, const sim::CityResult& r) {
  const core::SessionConfig radio = city_cell_config(city, 0);
  const sim::CouplingMatrix coupling(
      sim::cell_grid(city.n_cells, util::Meters{city.cell_spacing_m}),
      radio.radio.carrier_hz, util::to_watts(radio.radio.tx_power_dbm),
      city.coupling_scale);
  // Every cell at the deployment's mean airtime load.
  const double load = r.merged.elapsed_us().value() /
                      (static_cast<double>(city.n_cells * city.epochs) *
                       city.epoch_us);
  const std::vector<double> loads(city.n_cells, std::min(load, 1.0));
  std::vector<double> us;
  double sink = 0.0;
  for (int i = 0; i < 31; ++i) {
    const double t0 = now_s();
    sink += sim::ambient_noise(coupling, loads)[0];
    us.push_back((now_s() - t0) * 1e6);
  }
  return sink >= 0.0 ? quantile(us, 0.5) : 0.0;
}

void run_city_short(const Options& opt, Report& report) {
  const sim::CityConfig cfg = city_config(opt.seed, opt.tiny);
  const std::size_t jobs = city_jobs();

  // Shard/worker independence at a reduced size: one worker and the
  // workload's worker count must give identical simulated results.
  {
    sim::CityConfig small = cfg;
    small.n_cells = opt.tiny ? 12 : 48;
    std::vector<double> serial;
    std::vector<double> parallel;
    attempt(report, "run_city (1 worker)", [&] {
      serial = city_outcome(sim::run_city(small, 1));
    });
    attempt(report, "run_city (workers)", [&] {
      parallel = city_outcome(sim::run_city(small, jobs));
    });
    report.check(!serial.empty() && serial == parallel,
                 "city_short: identical results at 1 and " +
                     std::to_string(jobs) + " workers");
  }

  // Each call builds the deployment's sessions afresh; run_city times
  // its own epoch loop, and the rest of the call is set-up and merge.
  HostSpeed host(opt);
  CallLog calls;
  std::vector<SetupSample> setup_s;
  std::vector<double> first;
  sim::CityResult first_result;
  bool repeats = true;
  bool pool_ok = true;
  const double t_end = now_s() + (opt.trace ? 0.0 : opt.seconds);
  while (calls.size() == 0 || now_s() < t_end) {
    host.sample();
    sim::CityResult r;
    const double t0 = now_s();
    const bool ok = attempt(report, "run_city",
                            [&] { r = sim::run_city(cfg, kTimedJobs); });
    const double t1 = now_s();
    if (!ok) continue;
    calls.add(t0, t1, r.wall_ms / 1e3, r.serial_estimate_ms / 1e3,
              static_cast<double>(r.merged.rounds()));
    setup_s.push_back({t0, t1, t1 - t0 - r.wall_ms / 1e3});
    pool_ok = pool_ok && r.events == r.pool_reuses;
    const std::vector<double> outcome = city_outcome(r);
    if (first.empty()) {
      first = outcome;
      first_result = r;
    } else {
      repeats = repeats && outcome == first;
    }
  }
  host.sample();
  report.check(repeats, "city_short: same-seed runs repeat exactly");
  report.check(pool_ok, "city_short: events == pool_reuses");
  const sim::CityResult& r = first_result;
  report.check(r.merged.ber() >= 0.0 && r.merged.ber() <= 0.5,
               "city_short: 0 <= tag_ber <= 0.5");

  if (!opt.trace) {
    calls.report(report, host);
    report_setup(report, setup_s, host);
    return;
  }
  report.set("witag.tag_goodput_kbps", city_goodput_kbps(cfg, r));
  report.set("witag.tag_ber", r.merged.ber());
  report.set("witag.round_loss_frac",
             static_cast<double>(r.merged.rounds_lost()) /
                 static_cast<double>(r.merged.rounds()));
  report.set("witag.sim_latency_us_p99", r.latency_us.p99);
  report.set("sim.events", static_cast<double>(r.events));
  report.set("sim.barrier_us", barrier_us(cfg, r));
  // The full deployment once more, on the parallel workers.
  sim::CityResult par;
  if (attempt(report, "run_city (workers)",
              [&] { par = sim::run_city(cfg, jobs); })) {
    report.check(city_outcome(par) == first,
                 "city_short: identical results at 1 and " +
                     std::to_string(jobs) + " workers, full size");
  }
  report.set("runner.parallel_efficiency",
             par.wall_ms > 0.0
                 ? par.serial_estimate_ms /
                       (par.wall_ms * static_cast<double>(par.jobs))
                 : 0.0);
  // One cell's link, at the deployment's mean ambient floor.
  const core::SessionConfig cell = city_cell_config(cfg, 0);
  replay_against(cell, r.mean_ambient_w,
                 untraced_round_us(cell, r.mean_ambient_w, 0.15 * opt.seconds,
                                   opt.tiny ? 3 : 100),
                 0.4 * opt.seconds, opt.tiny ? 2 : 50, opt, report);
  set_idle_layers(report, false, true);
}

// --- hostile_supervised ----------------------------------------------

core::SessionConfig hostile_config(std::uint64_t seed) {
  core::SessionConfig cfg =
      core::los_testbed_config(util::Meters{kTagToClientM}, seed);
  cfg.faults = faults::hostile_plan(0.5, 0x1F);
  cfg.trigger_mode = core::TriggerMode::kEnvelope;
  cfg.security.mode = mac::Security::kCcmp;
  return cfg;
}

/// A supervised link: the session, its reader and the supervisor.
struct SupervisedLink {
  explicit SupervisedLink(std::uint64_t seed)
      : session(hostile_config(seed)),
        reader(session, reader_config()),
        supervisor(reader, supervisor_config()) {}

  static core::ReaderConfig reader_config() {
    core::ReaderConfig r;
    r.fec = core::TagFec::kRateless;
    r.max_rounds_per_frame = 16;
    return r;
  }
  static core::SupervisorConfig supervisor_config() {
    core::SupervisorConfig s;
    s.payload_bytes = 8;
    s.predictive = true;
    return s;
  }
  /// Exchanges run so far by the reader's polls (skipped rounds excluded).
  std::size_t exchanges() const {
    return reader.stats().rounds - reader.stats().rounds_skipped;
  }

  core::Session session;
  core::Reader reader;
  core::LinkSupervisor supervisor;
};

/// Simulated outcome of a run of deliveries.
struct DeliveryTally {
  std::size_t deliveries = 0;
  std::size_t failed = 0;
  std::size_t rounds = 0;
  std::size_t skipped = 0;
  std::size_t retries = 0;
  std::vector<double> latency_us;  ///< Airtime + backoff per delivery.

  /// Records `r`, whose call moved the supervisor's backoff total by
  /// `backoff_us`.
  void add(const core::LinkSupervisor::DeliveryResult& r, double backoff_us) {
    ++deliveries;
    failed += r.ok ? 0 : 1;
    rounds += r.rounds;
    skipped += r.rounds_skipped;
    retries += r.retries;
    latency_us.push_back(r.airtime_us.value() + backoff_us);
  }
};

void run_hostile(const Options& opt, Report& report) {
  const std::size_t sim_deliveries = opt.tiny ? 3 : 40;

  // Set-up: the link built and warmed by three exchanges (decoder
  // scratch, first CFR build), twice before the loop and again during
  // it; the warm-up rounds double as the same-seed repeat check.
  HostSpeed host(opt);
  std::vector<SetupSample> setup_s;
  std::vector<std::uint64_t> digests;
  const auto set_up = [&] {
    host.sample();
    const double t0 = now_s();
    auto l = std::make_unique<SupervisedLink>(opt.seed);
    Digest d;
    for (int i = 0; i < 3; ++i) digest_round(d, l->session.run_round());
    const double t1 = now_s();
    setup_s.push_back({t0, t1, t1 - t0});
    digests.push_back(d.value());
    return l;
  };
  const std::unique_ptr<SupervisedLink> link = set_up();
  (void)set_up();
  {
    // The supervised path repeats too: one delivery on two fresh links.
    std::vector<std::uint64_t> deliveries;
    for (int k = 0; k < 2; ++k) {
      SupervisedLink fresh(opt.seed);
      Digest d;
      attempt(report, "deliver", [&] {
        digest_delivery(d, fresh.supervisor.deliver(0));
      });
      deliveries.push_back(d.value());
    }
    report.check(all_equal(deliveries),
                 "hostile_supervised: same-seed deliveries repeat exactly");
  }

  DeliveryTally sim;
  CallLog calls;
  std::vector<double> delivery_ms;
  const core::LinkSupervisor::Stats stats0 = link->supervisor.stats();
  core::LinkSupervisor::Stats stats_n = stats0;
  SetupSchedule setups = setup_schedule(opt);
  const double t_end = now_s() + (opt.trace ? 0.0 : opt.seconds);
  while (calls.size() < sim_deliveries || now_s() < t_end) {
    if (setups.due()) (void)set_up();
    host.sample();
    const double backoff0 = link->supervisor.stats().backoff_us.value();
    const std::size_t exchanges0 = link->exchanges();
    core::LinkSupervisor::DeliveryResult r;
    const double t0 = now_s();
    const bool ok =
        attempt(report, "deliver", [&] { r = link->supervisor.deliver(0); });
    const double t1 = now_s();
    calls.add(t0, t1, t1 - t0, t1 - t0,
              static_cast<double>(link->exchanges() - exchanges0));
    delivery_ms.push_back((t1 - t0) * 1e3);
    if (!ok || calls.size() > sim_deliveries) continue;
    sim.add(r, link->supervisor.stats().backoff_us.value() - backoff0);
    stats_n = link->supervisor.stats();
  }
  host.sample();
  report.check(all_equal(digests),
               "hostile_supervised: same-seed links repeat their rounds "
               "exactly");

  if (!opt.trace) {
    calls.report(report, host);
    report_setup(report, setup_s, host);
    return;
  }
  const double n = static_cast<double>(sim.deliveries);
  // Goodput over the simulated deliveries: application bits delivered
  // per second of airtime plus backoff.
  const double link_us = (stats_n.airtime_us - stats0.airtime_us).value() +
                         (stats_n.backoff_us - stats0.backoff_us).value();
  report.set("witag.tag_goodput_kbps",
             8.0 * static_cast<double>(stats_n.payload_bytes_ok -
                                       stats0.payload_bytes_ok) /
                 link_us * 1e3);
  report.set("witag.delivery_ms_p50", quantile(delivery_ms, 0.5));
  report.set("witag.delivery_ms_p90", quantile(delivery_ms, 0.9));
  report.set("faults.events_per_exchange",
             static_cast<double>(link->session.fault_counts().total()) /
                 static_cast<double>(std::max<std::size_t>(1, link->exchanges())));
  report.set("witag.rounds_per_delivery", static_cast<double>(sim.rounds) / n);
  report.set("witag.skip_frac", static_cast<double>(sim.skipped) /
                                    static_cast<double>(sim.rounds));
  report.set("witag.retries_per_delivery",
             static_cast<double>(sim.retries) / n);
  report.set("witag.droplet_overhead", link->supervisor.overhead_ratio());
  report.set("witag.delivery_fail_frac", static_cast<double>(sim.failed) / n);
  report.set("witag.sim_latency_us_p99", quantile(sim.latency_us, 0.99));

  // The replay and its reference run the link's configuration with the
  // faults off (the replay does not inject them).
  core::SessionConfig clean = hostile_config(opt.seed);
  clean.faults = {};
  replay_against(clean, 0.0,
                 untraced_round_us(clean, 0.0, 0.1 * opt.seconds,
                                   opt.tiny ? 3 : 100),
                 0.3 * opt.seconds, opt.tiny ? 2 : 20, opt, report);
  set_idle_layers(report, true, false);
}

}  // namespace

Report run_workload(const Options& opt) {
  Report report;
  if (opt.workload == "link_long") {
    run_link_long(opt, report);
  } else if (opt.workload == "city_short") {
    run_city_short(opt, report);
  } else if (opt.workload == "hostile_supervised") {
    run_hostile(opt, report);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  return report;
}

}  // namespace perfbench
