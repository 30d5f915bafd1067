// The city simulator's hot event loop. Split from city.cpp (setup,
// barriers, merge — where allocation is fine) so the per-event path
// stays under the hot-alloc lint: pooled calendar nodes, no container
// construction, metric handles hoisted by the WITAG_* macros.
#include "sim/shard.hpp"

#include <memory>
#include <vector>

#include "obs/obs.hpp"

namespace witag::sim {
namespace {

/// One raw exchange in `cell` starting at `now_us`; returns the
/// simulated time its airtime ends.
double run_exchange(Cell& cell, double now_us) {
  const core::Session::RoundResult r = cell.session->run_round();
  cell.metrics.record_round(r.sent, r.received, r.lost, r.airtime_us);
  const double end_us = now_us + r.airtime_us.value();
  cell.epoch_airtime_us += r.airtime_us.value();
  if (!r.lost) {
    if (cell.delivered_once) {
      cell.latency.record(end_us - cell.last_delivery_us);
    }
    cell.last_delivery_us = end_us;
    cell.delivered_once = true;
  }
  return end_us;
}

/// One supervised payload delivery (Reader + LinkSupervisor ladder).
double run_delivery(Cell& cell, double now_us) {
  const core::LinkSupervisor::DeliveryResult r =
      cell.supervisor->deliver(0);
  const double end_us = now_us + r.airtime_us.value();
  cell.epoch_airtime_us += r.airtime_us.value();
  if (r.ok) {
    ++cell.deliveries_ok;
    if (cell.delivered_once) {
      cell.latency.record(end_us - cell.last_delivery_us);
    }
    cell.last_delivery_us = end_us;
    cell.delivered_once = true;
  } else {
    ++cell.deliveries_failed;
  }
  return end_us;
}

}  // namespace

void run_shard_epoch(Shard& shard,
                     const std::vector<std::unique_ptr<Cell>>& cells,
                     double epoch_end_us, bool supervised) {
  while (!shard.calendar.empty() &&
         shard.calendar.top().time_us < epoch_end_us) {
    const Event ev = shard.calendar.pop();
    Cell& cell = *cells[ev.cell];
    const double end_us = supervised ? run_delivery(cell, ev.time_us)
                                     : run_exchange(cell, ev.time_us);
    const double gap_us =
        cell.session->config().inter_query_gap_us.value();
    shard.calendar.push(end_us + gap_us, ev.cell);
    ++shard.events;
    WITAG_COUNT("sim.events.processed", 1);
  }
}

}  // namespace witag::sim
