// City deployment setup, epoch orchestration and result merge. The
// per-event hot path lives in city_run.cpp; the determinism argument
// for the whole arrangement is in city.hpp and DESIGN.md section 17.
#include "sim/city.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "mac/ampdu.hpp"
#include "obs/obs.hpp"
#include "phy/mcs.hpp"
#include "runner/parallel_sweep.hpp"
#include "runner/thread_pool.hpp"
#include "sim/interference.hpp"
#include "sim/shard.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "witag/config.hpp"

namespace witag::sim {
namespace {

/// Per-cell session config: the paper's LOS lab triple, re-seeded per
/// cell with the O(1) derive_seed fan-out. Every cell shares the same
/// intra-cell geometry — individuality comes from the seed (fading,
/// noise draws) and from the grid position's interference exposure.
core::SessionConfig cell_config(const CityConfig& city, std::size_t cell) {
  core::SessionConfig cfg = core::los_testbed_config(
      util::Meters{city.tag_pos_m}, util::Rng::derive_seed(city.seed, cell));
  cfg.query.mcs_index = city.mcs;
  cfg.query.n_subframes = city.n_subframes;
  return cfg;
}

/// `v` as an ostream prints it ("-5", "nan"), for validate()'s messages.
std::string num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string CityConfig::validate() const {
  if (n_cells == 0) return "a deployment needs at least one cell";
  if (epochs == 0) return "epochs must be at least 1";
  if (!(epoch_us > 0.0 && std::isfinite(epoch_us))) {
    return "epoch length must be a positive number of us, not " +
           num(epoch_us);
  }
  if (mcs >= phy::kNumMcs) {
    return "MCS " + std::to_string(mcs) + " is not one of 0-" +
           std::to_string(phy::kNumMcs - 1);
  }
  // los_testbed_config's range, which cell_config then calls.
  if (!(tag_pos_m > 0.0 && tag_pos_m < 8.0)) {
    return "tag position must be between 0 and 8 m (exclusive), not " +
           num(tag_pos_m);
  }
  // The query plan needs the trigger subframes plus one data subframe.
  const unsigned min_subframes = cell_config(*this, 0).query.n_trigger + 1;
  if (n_subframes < min_subframes || n_subframes > mac::kMaxSubframes) {
    return "subframes per query must be " + std::to_string(min_subframes) +
           "-" + std::to_string(mac::kMaxSubframes) + ", not " +
           std::to_string(n_subframes);
  }
  if (!(cell_spacing_m > 0.0 && std::isfinite(cell_spacing_m))) {
    return "cell spacing must be a positive number of m, not " +
           num(cell_spacing_m);
  }
  if (!(coupling_scale >= 0.0 && std::isfinite(coupling_scale))) {
    return "coupling scale must be 0 or more, not " + num(coupling_scale);
  }
  return {};
}

CityResult run_city(const CityConfig& cfg, std::size_t jobs) {
  WITAG_REQUIRE(cfg.n_cells > 0);
  WITAG_REQUIRE(cfg.epochs > 0);
  WITAG_REQUIRE(cfg.epoch_us > 0.0);
  WITAG_SPAN_CAT("sim.run_city", "sim");

  CityResult result;
  result.jobs = jobs == 0 ? runner::default_jobs() : jobs;
  // Default to 2x the worker count so uneven shard costs can balance;
  // an explicit n_shards is honoured exactly (capped at one cell per
  // shard) — results are identical either way, only wall time moves.
  std::size_t n_shards = cfg.n_shards == 0
                             ? std::max<std::size_t>(1, 2 * result.jobs)
                             : cfg.n_shards;
  n_shards = std::min(n_shards, cfg.n_cells);
  result.shards = n_shards;

  // --- Setup (allocation-heavy, outside the timed epoch loop). -------
  std::vector<std::unique_ptr<Cell>> cells;
  cells.reserve(cfg.n_cells);
  for (std::size_t c = 0; c < cfg.n_cells; ++c) {
    auto cell = std::make_unique<Cell>();
    cell->session = std::make_unique<core::Session>(cell_config(cfg, c));
    if (cfg.supervised) {
      cell->reader = std::make_unique<core::Reader>(*cell->session,
                                                    core::ReaderConfig{});
      cell->supervisor = std::make_unique<core::LinkSupervisor>(
          *cell->reader, core::SupervisorConfig{});
    }
    cells.push_back(std::move(cell));
  }

  const core::SessionConfig& radio_ref = cells.front()->session->config();
  const CouplingMatrix coupling(
      cell_grid(cfg.n_cells, util::Meters{cfg.cell_spacing_m}),
      radio_ref.radio.carrier_hz, util::to_watts(radio_ref.radio.tx_power_dbm),
      cfg.coupling_scale);

  // Round-robin partition: shard s owns cells {c : c mod n_shards == s}
  // — a pure function of (n_cells, n_shards), balanced to within one
  // cell. First events seeded in cell order so calendar seq numbers are
  // deterministic too.
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards.push_back(std::make_unique<Shard>());
  }
  for (std::size_t c = 0; c < cfg.n_cells; ++c) {
    shards[c % n_shards]->cells.push_back(static_cast<std::uint32_t>(c));
  }
  for (auto& shard : shards) {
    // One pending event per cell at any time (an exchange schedules
    // its successor), so the pool high-water mark is the cell count.
    shard->calendar.reserve(shard->cells.size() + 1);
    for (const std::uint32_t c : shard->cells) {
      shard->calendar.push(0.0, c);
    }
  }

  // --- Epoch loop with interference barriers. ------------------------
  std::vector<double> loads(cfg.n_cells, 0.0);
  const double t0_ms = runner::steady_ms();
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    const double epoch_end_us =
        static_cast<double>(epoch + 1) * cfg.epoch_us;
    runner::parallel_map(n_shards, result.jobs, [&](std::size_t s) -> int {
      // Thread CPU time, not wall: on an oversubscribed machine a
      // descheduled shard accrues nothing, so the summed busy time
      // stays an honest serial-cost estimate.
      const double start_ms = runner::thread_cpu_ms();
      run_shard_epoch(*shards[s], cells, epoch_end_us, cfg.supervised);
      shards[s]->busy_ms += runner::thread_cpu_ms() - start_ms;
      return 0;
    });
    // Barrier: gather loads in cell order, recompute every cell's
    // ambient floor for the next epoch (pure function of all loads).
    for (std::size_t c = 0; c < cfg.n_cells; ++c) {
      loads[c] = cells[c]->epoch_airtime_us / cfg.epoch_us;
      cells[c]->epoch_airtime_us = 0.0;
    }
    if (cfg.coupling_scale > 0.0) {
      const std::vector<double> ambient = ambient_noise(coupling, loads);
      double acc = 0.0;
      for (std::size_t c = 0; c < cfg.n_cells; ++c) {
        cells[c]->session->channel().set_ambient_noise(
            util::Watts{ambient[c]});
        acc += ambient[c];
      }
      result.mean_ambient_w = acc / static_cast<double>(cfg.n_cells);
    }
    WITAG_COUNT("sim.epochs", 1);
  }
  result.wall_ms = runner::steady_ms() - t0_ms;

  // --- Merge in cell-index order (associative + commutative folds, so
  // the totals are independent of shard layout by construction). ------
  obs::HdrHistogram latency;
  for (std::size_t c = 0; c < cfg.n_cells; ++c) {
    result.merged.merge(cells[c]->metrics);
    latency.merge(cells[c]->latency);
    result.deliveries_ok += cells[c]->deliveries_ok;
    result.deliveries_failed += cells[c]->deliveries_failed;
  }
  result.latency_us = obs::hdr_quantiles(latency);
  result.latency_count = latency.count();
  for (const auto& shard : shards) {
    result.events += shard->events;
    result.pool_reuses += shard->calendar.pool_reuses();
    result.pool_peak = std::max(result.pool_peak, shard->calendar.pool_size());
    result.serial_estimate_ms += shard->busy_ms;
  }
  WITAG_COUNT("sim.cells", cfg.n_cells);
  WITAG_COUNT("sim.events", result.events);
  obs::gauge("sim.pool.reuses").set(static_cast<double>(result.pool_reuses));
  obs::gauge("sim.pool.peak").set(static_cast<double>(result.pool_peak));
  return result;
}

}  // namespace witag::sim
