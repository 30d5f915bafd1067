// Rateless data plane: goodput vs fault intensity across FEC modes.
//
// fig_robustness pins the supervisor's ladder against a plain reader;
// this bench pins the *code* choice. Four supervised modes move the
// same deterministic payload sequence through the same hostile testbed
// (bursty Gilbert-Elliott interference, trigger misses, clock drift,
// lost/truncated block acks, brownouts) at increasing intensity:
//
//   rep5       repetition-5, the strongest fixed-rate rung
//   hamming74  Hamming(7,4), the cheap single-error corrector
//   lt         the LT fountain layer (systematic robust-soliton
//              droplets; lost rounds are erasures, not resyncs)
//   lt+pred    LT plus the traffic-predictive round scheduler (EWMA
//              burst persistence; skipped airtime still charged)
//
// The acceptance bar for the rateless layer: lt+pred strictly beats
// rep5 goodput at every non-zero intensity, with a clean CRC-8
// false-accept audit — the "false" column (collisions the audit caught
// and refused to deliver) must be zero for both rateless modes, whose
// droplets are CRC-checked twice (salted frame CRC, then payload CRC).
//
// Every (intensity, mode, run) is an independent task on the parallel
// sweep engine's generic fan-out; stdout is bit-identical for any
// --jobs.
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
constexpr std::size_t kPayloadBytes = 8;

struct Mode {
  const char* name;
  core::TagFec fec;
  bool predictive;
};

constexpr Mode kModes[] = {
    {"rep5", core::TagFec::kRepetition5, false},
    {"hamming74", core::TagFec::kHamming74, false},
    {"lt", core::TagFec::kRateless, false},
    {"lt+pred", core::TagFec::kRateless, true},
};

struct TaskOutcome {
  double goodput_kbps = 0.0;
  std::size_t deliveries_ok = 0;
  std::size_t deliveries = 0;
  std::size_t rounds = 0;
  std::size_t rounds_skipped = 0;
  std::size_t droplets = 0;
  double overhead = 0.0;
  std::size_t retries = 0;
  std::size_t false_frames = 0;
  double task_ms = 0.0;
};

}  // namespace

int bench_main(const util::Args& args) {
  const std::size_t polls = args.get_u64("polls", 12);
  const std::size_t runs = args.get_u64("runs", 1);
  const std::size_t budget = args.get_u64("rounds", 16);
  const double pos = args.get_double("pos", 3.0);
  const std::uint64_t seed = args.get_u64("seed", 4242);
  const std::uint64_t fault_bits =
      args.get_u64("faults", faults::kAllInjectors);
  const std::string csv_path = args.get_string("csv", "");
  std::size_t jobs = runner::jobs_from_args(args);
  if (jobs == 0) jobs = runner::default_jobs();
  obs::RunScope obs_run("fig_rateless", args);
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

  std::cout << "=== Rateless: goodput vs fault intensity by FEC mode ===\n"
            << "Tag " << pos << " m from the client; " << polls
            << " deliveries of an " << kPayloadBytes
            << "-byte frame per run, " << runs << " runs per cell, "
            << budget << " query rounds per poll attempt, fault mask 0x"
            << std::hex << fault_mask << std::dec << ".\n\n";

  const std::size_t n_intensities = std::size(kIntensities);
  const std::size_t n_modes = std::size(kModes);
  const std::size_t n_tasks = n_intensities * n_modes * runs;

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto outcomes = runner::parallel_map(
      n_tasks, jobs, [&](std::size_t task) -> TaskOutcome {
        const auto start = std::chrono::steady_clock::now();
        const std::size_t cell = task / runs;
        const std::size_t intensity_idx = cell / n_modes;
        const Mode& mode = kModes[cell % n_modes];

        auto cfg = core::los_testbed_config(
            util::Meters{pos}, util::Rng::derive_seed(seed, task));
        cfg.faults =
            faults::hostile_plan(kIntensities[intensity_idx], fault_mask);
        core::Session session(cfg);
        core::ReaderConfig rcfg;
        rcfg.fec = mode.fec;
        rcfg.max_rounds_per_frame = budget;
        core::Reader reader(session, rcfg);
        core::SupervisorConfig scfg;
        scfg.payload_bytes = kPayloadBytes;
        scfg.predictive = mode.predictive;
        core::LinkSupervisor supervisor(reader, scfg);

        TaskOutcome out;
        out.deliveries = polls;
        for (std::size_t p = 0; p < polls; ++p) supervisor.deliver(0);
        const auto& stats = supervisor.stats();
        out.goodput_kbps = stats.goodput_kbps();
        out.deliveries_ok = stats.deliveries_ok;
        out.rounds = reader.stats().rounds;
        out.rounds_skipped = stats.rounds_skipped;
        out.droplets = stats.droplets_used;
        out.overhead =
            mode.fec == core::TagFec::kRateless ? supervisor.overhead_ratio()
                                                : 0.0;
        out.retries = stats.retries;
        out.false_frames = stats.false_frames;
        out.task_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        return out;
      });

  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count();

  core::Table table({"intensity", "mode", "goodput [Kbps]", "delivered",
                     "rounds", "skipped", "droplets", "overhead", "retries",
                     "false"});
  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<util::CsvWriter>(csv_path);
    csv->header({"intensity", "mode", "goodput_kbps", "deliveries_ok",
                 "deliveries", "rounds", "rounds_skipped", "droplets",
                 "overhead", "retries", "false_frames"});
  }

  double serial_estimate_ms = 0.0;
  for (const TaskOutcome& out : outcomes) serial_estimate_ms += out.task_ms;

  for (std::size_t cell = 0; cell < n_intensities * n_modes; ++cell) {
    const std::size_t intensity_idx = cell / n_modes;
    const Mode& mode = kModes[cell % n_modes];
    util::Running goodput;
    util::Running overhead;
    std::size_t ok = 0, total = 0, rounds = 0, skipped = 0;
    std::size_t droplets = 0, retries = 0, false_frames = 0;
    for (std::size_t run = 0; run < runs; ++run) {
      const TaskOutcome& out = outcomes[cell * runs + run];
      goodput.add(out.goodput_kbps);
      overhead.add(out.overhead);
      ok += out.deliveries_ok;
      total += out.deliveries;
      rounds += out.rounds;
      skipped += out.rounds_skipped;
      droplets += out.droplets;
      retries += out.retries;
      false_frames += out.false_frames;
    }
    const std::string delivered =
        std::to_string(ok) + "/" + std::to_string(total);
    table.add_row(
        {core::Table::num(kIntensities[intensity_idx], 2), mode.name,
         core::Table::num(goodput.mean(), 2), delivered,
         std::to_string(rounds), std::to_string(skipped),
         std::to_string(droplets),
         mode.fec == core::TagFec::kRateless
             ? core::Table::num(overhead.mean(), 2)
             : "-",
         std::to_string(retries), std::to_string(false_frames)});
    if (csv) {
      csv->row({util::CsvWriter::num(kIntensities[intensity_idx]), mode.name,
                util::CsvWriter::num(goodput.mean()), std::to_string(ok),
                std::to_string(total), std::to_string(rounds),
                std::to_string(skipped), std::to_string(droplets),
                util::CsvWriter::num(overhead.mean()),
                std::to_string(retries), std::to_string(false_frames)});
    }
  }
  obs_run.parallelism(jobs, serial_estimate_ms, wall_ms);
  table.print(std::cout);

  // Timing goes to stderr so stdout stays byte-identical across --jobs.
  std::cerr << "[runner] " << jobs << " jobs, " << n_tasks
            << " tasks, wall " << core::Table::num(wall_ms, 0)
            << " ms, serial estimate "
            << core::Table::num(serial_estimate_ms, 0) << " ms\n";
  std::cout << "\nReading: at intensity 0 every mode delivers everything "
               "and the fountain's learned overhead settles near 1.0 "
               "(systematic droplets close the decode with ~zero coded "
               "headroom), so lt matches the fixed-rate modes while "
               "sending a fraction of their bits. As intensity rises the "
               "fixed-rate modes pay their expansion on every frame and "
               "still lose whole frames to bursts that exceed the code, "
               "while lt just keeps collecting droplets across the gaps "
               "— goodput degrades smoothly instead of cliff-dropping. "
               "lt+pred additionally sits out rounds predicted inside a "
               "burst: the skipped airtime is charged, so its edge over "
               "lt appears only where bursts are sticky enough to "
               "predict. The false column counts CRC-8 collisions the "
               "content audit caught and refused to deliver; the "
               "fixed-rate modes' single CRC-8 collides occasionally on "
               "hostile streams, while the rateless modes' double CRC "
               "(salted frame CRC, then payload CRC) must keep it at "
               "zero.\n";
  return 0;
}

int main(int argc, char** argv) {
  return util::run_main("fig_rateless", argc, argv, bench_main);
}
