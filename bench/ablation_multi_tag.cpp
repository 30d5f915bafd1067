// Extension bench: multiple tags on one link, addressed through the
// trigger-code pattern (second LOW trigger region stretched to 1 + code
// subframes). Measures per-tag delivery, aggregate goodput and the cost
// of addressing (longer trigger preambles for higher codes).
//
// Each tag's polling run is one task on the parallel sweep engine: every
// task owns a full multi-tag Session (so the *resting* reflections of
// the other tags still stack into per-subcarrier fades) and polls only
// its own tag. Tasks are independent, so the table is bit-identical for
// any --jobs; unlike the original round-robin loop, tag t's channel no
// longer starts where tag t-1's polling left off.
//
// Options: --tags N (1..4), --polls N, --seed S, --csv PATH, --jobs N
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "obs/report.hpp"
#include "runner/parallel_sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "witag/reader.hpp"

namespace {

struct TagOutcome {
  std::size_t frames_ok = 0;
  std::size_t rounds = 0;
  std::size_t intact = 0;
  witag::util::Micros airtime_us{};
  double task_ms = 0.0;
};

}  // namespace

int bench_main(const witag::util::Args& args) {
  using namespace witag;
  const auto n_tags =
      static_cast<unsigned>(std::clamp<long>(args.get_int("tags", 4), 1, 4));
  const auto polls = static_cast<std::size_t>(args.get_int("polls", 12));
  const std::uint64_t seed = args.get_u64("seed", 515);
  const std::string csv_path = args.get_string("csv", "");
  std::size_t jobs = runner::jobs_from_args(args);
  if (jobs == 0) jobs = runner::default_jobs();
  obs::RunScope obs_run("ablation_multi_tag", args);
  obs_run.config("tags", static_cast<double>(n_tags));
  obs_run.config("polls", static_cast<double>(polls));
  obs_run.config("seed", static_cast<double>(seed));
  args.check();

  std::cout << "=== Extension: multi-tag polling by trigger code ===\n"
            << static_cast<int>(n_tags) << " tags on the 8 m LOS link, "
            << "polled in parallel sessions, " << polls
            << " frames per tag.\n\n";

  // Shared deployment: tag 0 near the client, remaining tags near the
  // AP, spaced ~0.3 m apart. Placement matters twice over: each tag
  // needs a small Ds*Dr product for its own corruption margin, and the
  // *resting* reflections of the other tags stack into per-subcarrier
  // fades that erode everyone's margin — a real multi-tag deployment
  // concern this bench surfaces (expect some retry-heavy polls as the
  // fading state drifts).
  auto make_config = [&] {
    auto cfg = core::los_testbed_config(util::Meters{1.0}, seed);
    const double xs[3] = {16.8, 16.5, 16.2};
    for (unsigned t = 1; t < n_tags; ++t) {
      cfg.extra_tags.push_back({{xs[t - 1], 3.5}, t, 7.1});
    }
    return cfg;
  };

  const auto sweep_start = std::chrono::steady_clock::now();
  const auto outcomes = runner::parallel_map(
      n_tags, jobs, [&](std::size_t t) -> TagOutcome {
        const auto start = std::chrono::steady_clock::now();
        auto cfg = make_config();
        core::Session session(cfg);
        core::ReaderConfig rcfg;
        rcfg.fec = core::TagFec::kNone;
        core::Reader reader(session, rcfg);
        for (unsigned u = 0; u < n_tags; ++u) {
          const util::ByteVec payload{static_cast<std::uint8_t>(0xC0 + u),
                                      static_cast<std::uint8_t>(u)};
          reader.load_tag(u, payload);
        }

        TagOutcome out;
        for (std::size_t p = 0; p < polls; ++p) {
          const auto result = reader.poll_frame(static_cast<unsigned>(t));
          out.rounds += result.rounds;
          out.airtime_us += result.airtime_us;
          if (result.ok) {
            ++out.frames_ok;
            if (result.payload.size() == 2 &&
                result.payload[0] == 0xC0 + t && result.payload[1] == t) {
              ++out.intact;
            }
          }
        }
        out.task_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        return out;
      });
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - sweep_start)
                             .count();

  std::unique_ptr<util::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<util::CsvWriter>(csv_path);
    csv->header({"tag", "frames_ok", "rounds", "airtime_ms", "payload_ok"});
  }

  core::Table table({"tag (address)", "frames ok / polls", "rounds",
                     "airtime [ms]", "payload intact"});
  double total_airtime_us = 0.0;
  std::size_t total_frames = 0;
  double serial_estimate_ms = 0.0;
  for (unsigned t = 0; t < n_tags; ++t) {
    const TagOutcome& out = outcomes[t];
    serial_estimate_ms += out.task_ms;
    total_airtime_us += out.airtime_us.value();
    total_frames += out.frames_ok;
    table.add_row({"tag " + std::to_string(t),
                   std::to_string(out.frames_ok) + " / " +
                       std::to_string(polls),
                   std::to_string(out.rounds),
                   core::Table::num(out.airtime_us.value() / 1000.0, 2),
                   std::to_string(out.intact) + " / " +
                       std::to_string(out.frames_ok)});
    if (csv) {
      csv->row({std::to_string(t), std::to_string(out.frames_ok),
                std::to_string(out.rounds),
                util::CsvWriter::num(out.airtime_us.value() / 1000.0),
                std::to_string(out.intact)});
    }
  }
  obs_run.parallelism(jobs, serial_estimate_ms, wall_ms);
  table.print(std::cout);

  const double agg_kbps =
      total_airtime_us > 0.0
          ? static_cast<double>(total_frames * 16) / (total_airtime_us / 1e6) /
                1e3
          : 0.0;
  std::cout << "\nAggregate frame payload goodput: "
            << core::Table::num(agg_kbps, 2) << " Kbps across "
            << static_cast<int>(n_tags)
            << " tags (polling shares one channel's airtime budget; higher "
               "addresses pay slightly longer trigger preambles).\n"
            << "The paper's system is single-tag; this bench exercises "
               "the addressing extension end to end, including the "
               "intact-payload check that proves tags never answer "
               "queries addressed to others.\n";
  return 0;
}

int main(int argc, char** argv) {
  return witag::util::run_main("ablation_multi_tag", argc, argv, bench_main);
}
