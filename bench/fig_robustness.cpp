// Robustness: frame goodput vs fault intensity, with and without the
// adaptive LinkSupervisor (graceful degradation under hostile channels).
//
// The paper measures WiTAG in a benign lab. This bench drives the same
// testbed through the src/faults/ hostile-channel preset — bursty
// Gilbert-Elliott interference, trigger misses/false wakeups, tag clock
// drift + jitter, lost/truncated block acks, aborted A-MPDUs and
// harvester brownouts — at increasing intensity, and compares a plain
// Reader (fixed MCS 5, repetition-3 FEC, no retries) against the
// LinkSupervisor's closed loop (MCS fallback -> FEC escalation -> frame
// shrink, retry with capped exponential backoff, probe-based recovery).
//
// Every (intensity, mode, run) is an independent task on the parallel
// sweep engine's generic fan-out; stdout is bit-identical for any
// --jobs. Both modes move the same deterministic payload sequence so
// their goodput is directly comparable; supervised goodput charges the
// backoff idle time as well, so waiting is never free.
//
// Options: --polls N (deliveries per run), --runs N (per cell),
//          --rounds N (budget per poll attempt), --pos METERS, --seed S,
//          --faults MASK (bit per injector: 1 interference, 2 trigger,
//          4 clock, 8 mac, 16 brownout; default 31 = all),
//          --csv PATH, --jobs N
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.hpp"
#include "obs/report.hpp"
#include "runner/parallel_sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"
#include "witag/supervisor.hpp"

namespace {

using namespace witag;

constexpr double kIntensities[] = {0.0, 0.25, 0.5, 0.75, 1.0};
constexpr std::size_t kModes = 2;  // 0 = unsupervised, 1 = supervised
constexpr std::size_t kPayloadBytes = 8;

struct TaskOutcome {
  double goodput_kbps = 0.0;
  std::size_t deliveries_ok = 0;
  std::size_t deliveries = 0;
  std::size_t rounds = 0;
  std::size_t escalations = 0;
  std::size_t recoveries = 0;
  std::size_t retries = 0;
  std::uint64_t fault_events = 0;
  unsigned final_mcs = 0;
  double task_ms = 0.0;
};

/// The unsupervised baseline delivers the same payload sequence the
/// supervisor would: one load + one poll per delivery, no retries, no
/// adaptation (mirrors LinkSupervisor::next_payload for address 0).
util::ByteVec sequenced_payload(std::uint64_t sequence) {
  util::Rng rng(util::Rng::derive_seed(0x70AD'0000ull, sequence));
  return rng.bytes(kPayloadBytes);
}

}  // namespace

int bench_main(const util::Args& args) {
  const std::size_t polls = args.get_u64("polls", 16);
  const std::size_t runs = args.get_u64("runs", 1);
  const std::size_t budget = args.get_u64("rounds", 16);
  const double pos = args.get_double("pos", 3.0);
  const std::uint64_t seed = args.get_u64("seed", 4242);
  const std::uint64_t fault_bits =
      args.get_u64("faults", faults::kAllInjectors);
  const std::string csv_path = args.get_string("csv", "");
  std::size_t jobs = runner::jobs_from_args(args);
  if (jobs == 0) jobs = runner::default_jobs();
  obs::RunScope obs_run("fig_robustness", args);
  obs_run.config("polls", static_cast<double>(polls));
  obs_run.config("runs", static_cast<double>(runs));
  obs_run.config("rounds", static_cast<double>(budget));
  obs_run.config("pos", pos);
  obs_run.config("seed", static_cast<double>(seed));
  obs_run.config("faults", static_cast<double>(fault_bits));
  args.check();
  if (!(pos > 0.0 && pos < 8.0)) {
    throw std::invalid_argument("--pos: " + core::Table::num(pos, 2) +
                                " m is not strictly between 0 and 8 m");
  }
  if ((fault_bits & ~std::uint64_t{faults::kAllInjectors}) != 0) {
    throw std::invalid_argument("--faults: " + std::to_string(fault_bits) +
                                " sets a bit outside the injector mask " +
                                std::to_string(faults::kAllInjectors));
  }
  const auto fault_mask = static_cast<unsigned>(fault_bits);

  std::cout << "=== Robustness: goodput vs fault intensity ===\n"
            << "Tag " << pos << " m from the client; " << polls
            << " deliveries of an " << kPayloadBytes
            << "-byte frame per run, " << runs << " runs per cell, "
            << budget << " query rounds per poll attempt, fault mask 0x"
            << std::hex << fault_mask << std::dec << ".\n\n";

  const std::size_t n_intensities = std::size(kIntensities);
  const std::size_t n_tasks = n_intensities * kModes * runs;

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto outcomes = runner::parallel_map(
      n_tasks, jobs, [&](std::size_t task) -> TaskOutcome {
        const auto start = std::chrono::steady_clock::now();
        const std::size_t cell = task / runs;
        const std::size_t intensity_idx = cell / kModes;
        const bool supervised = cell % kModes == 1;

        auto cfg = core::los_testbed_config(
            util::Meters{pos}, util::Rng::derive_seed(seed, task));
        cfg.faults =
            faults::hostile_plan(kIntensities[intensity_idx], fault_mask);
        core::Session session(cfg);
        core::ReaderConfig rcfg;
        rcfg.fec = core::TagFec::kRepetition3;
        rcfg.max_rounds_per_frame = budget;
        core::Reader reader(session, rcfg);

        TaskOutcome out;
        out.deliveries = polls;
        if (supervised) {
          core::SupervisorConfig scfg;
          scfg.payload_bytes = kPayloadBytes;
          core::LinkSupervisor supervisor(reader, scfg);
          for (std::size_t p = 0; p < polls; ++p) supervisor.deliver(0);
          const auto& stats = supervisor.stats();
          out.goodput_kbps = stats.goodput_kbps();
          out.deliveries_ok = stats.deliveries_ok;
          out.escalations = stats.mcs_fallbacks + stats.fec_escalations +
                            stats.frame_shrinks;
          out.recoveries = stats.recoveries;
          out.retries = stats.retries;
        } else {
          std::size_t bytes_ok = 0;
          for (std::size_t p = 0; p < polls; ++p) {
            const util::ByteVec expected = sequenced_payload(p);
            reader.load_tag(0, expected);
            const auto poll = reader.poll_frame(0);
            // Audit the content like the supervisor does: a CRC-8 false
            // accept must not count as goodput in either mode.
            if (poll.ok && poll.payload == expected) {
              ++out.deliveries_ok;
              bytes_ok += poll.payload.size();
            }
          }
          const auto& stats = reader.stats();
          if (stats.airtime_us > util::Micros{0.0}) {
            out.goodput_kbps = static_cast<double>(bytes_ok * 8) /
                               (stats.airtime_us.value() / 1e6) / 1e3;
          }
        }
        out.rounds = reader.stats().rounds;
        out.fault_events = session.fault_counts().total();
        out.final_mcs = session.current_mcs();
        out.task_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        return out;
      });

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count();

  core::Table table({"intensity", "mode", "goodput [Kbps]", "delivered",
                     "rounds", "escalations", "recoveries", "retries",
                     "fault events"});
  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<util::CsvWriter>(csv_path);
    csv->header({"intensity", "mode", "goodput_kbps", "deliveries_ok",
                 "deliveries", "rounds", "escalations", "recoveries",
                 "retries", "fault_events"});
  }

  double serial_estimate_ms = 0.0;
  for (const TaskOutcome& out : outcomes) serial_estimate_ms += out.task_ms;

  for (std::size_t cell = 0; cell < n_intensities * kModes; ++cell) {
    const std::size_t intensity_idx = cell / kModes;
    const bool supervised = cell % kModes == 1;
    util::Running goodput;
    std::size_t ok = 0, total = 0, rounds = 0, escalations = 0;
    std::size_t recoveries = 0, retries = 0;
    std::uint64_t fault_events = 0;
    for (std::size_t run = 0; run < runs; ++run) {
      const TaskOutcome& out = outcomes[cell * runs + run];
      goodput.add(out.goodput_kbps);
      ok += out.deliveries_ok;
      total += out.deliveries;
      rounds += out.rounds;
      escalations += out.escalations;
      recoveries += out.recoveries;
      retries += out.retries;
      fault_events += out.fault_events;
    }
    const char* mode = supervised ? "supervised" : "unsupervised";
    const std::string delivered =
        std::to_string(ok) + "/" + std::to_string(total);
    table.add_row({core::Table::num(kIntensities[intensity_idx], 2), mode,
                   core::Table::num(goodput.mean(), 2), delivered,
                   std::to_string(rounds), std::to_string(escalations),
                   std::to_string(recoveries), std::to_string(retries),
                   std::to_string(fault_events)});
    if (csv) {
      csv->row({util::CsvWriter::num(kIntensities[intensity_idx]), mode,
                util::CsvWriter::num(goodput.mean()), std::to_string(ok),
                std::to_string(total), std::to_string(rounds),
                std::to_string(escalations), std::to_string(recoveries),
                std::to_string(retries), std::to_string(fault_events)});
    }
  }
  obs_run.parallelism(jobs, serial_estimate_ms, wall_ms);
  table.print(std::cout);

  // Timing goes to stderr so stdout stays byte-identical across --jobs.
  std::cerr << "[runner] " << jobs << " jobs, " << n_tasks
            << " tasks, wall " << core::Table::num(wall_ms, 0)
            << " ms, serial estimate "
            << core::Table::num(serial_estimate_ms, 0) << " ms\n";
  std::cout << "\nReading: at intensity 0 both modes match the benign "
               "testbed and the supervisor stays at the top of its "
               "ladder (no escalations); its retries and stronger FEC "
               "cost airtime, so its per-airtime goodput sits below the "
               "plain reader's. Under faults the plain reader burns its "
               "round budget on polls that never decode, while the "
               "supervisor escalates FEC, shrinks frames, and waits out "
               "bursts. Pooled over seeds, the supervisor delivers more "
               "frames at intensities 0.5 and 0.75, has the higher mean "
               "goodput over 48 seeds at 0.75, and at 0.5 has the higher "
               "goodput in most seeds (at least 12 of 32 are asserted) "
               "but not in all: one small table like this one can still "
               "show the plain reader ahead in a cell.\n";
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main("fig_robustness", argc, argv, bench_main);
}
