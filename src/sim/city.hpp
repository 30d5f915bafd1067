// City-scale sharded discrete-event simulator: thousands of APs, tags
// and clients in one deterministic process.
//
// A deployment is a grid of cells; each cell is one WiTAG triple
// (AP + client + tag) owning a full core::Session — its own channel,
// MAC, PHY and RNG, seeded with util::Rng::derive_seed(seed, cell).
// Cells are partitioned round-robin into shards; a shard owns an event
// calendar (sim/event_queue.hpp) whose entries are exchanges in its
// cells, and shards execute in parallel (one worker per shard via
// runner::parallel_map).
//
// Determinism contract (tested in tests/test_sim.cpp; DESIGN.md
// section 17):
//  * Within an epoch, cells are fully independent — no shared mutable
//    state, no cross-cell reads. A shard is therefore a pure execution
//    partition: the events of one cell always process in time order
//    relative to each other, and interleaving with OTHER cells' events
//    (which depends on the shard layout) cannot affect any cell's
//    results.
//  * Cross-cell coupling happens only at epoch barriers: every shard
//    finishes the epoch, the per-cell airtime loads are gathered in
//    cell order, and sim/interference.hpp computes each cell's ambient
//    noise floor for the next epoch as a pure function of ALL loads.
//  * Results merge in cell-index order (LinkMetrics and HdrHistogram
//    merges are associative and commutative).
// Net: run_city output is byte-identical across --jobs AND shard
// counts; only stderr timing differs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/hdr.hpp"
#include "witag/metrics.hpp"

namespace witag::sim {

struct CityConfig {
  /// Cells in the deployment; each cell is 3 nodes (AP, client, tag).
  std::size_t n_cells = 16;
  /// Shard count; 0 = auto (2x the worker count, so the scheduler can
  /// balance uneven shards, capped at n_cells).
  std::size_t n_shards = 0;
  /// Epoch barriers: interference recomputes this many times.
  std::size_t epochs = 4;
  /// Simulated epoch length [us of city time].
  double epoch_us = 2'000.0;
  /// Fixed query MCS for every cell. Keep this high: WiTAG reads bits
  /// through subframes the tag *corrupts*, and a robust low-MCS frame
  /// shrugs the perturbation off (missed corruptions push BER toward
  /// 0.5 — the paper's figure 5 reads MCS the same way).
  unsigned mcs = 5;
  /// Subframes per query A-MPDU (small keeps exchanges cheap; the city
  /// bench cares about scale, not per-link throughput).
  unsigned n_subframes = 16;
  /// Wrap each cell's session in a Reader + LinkSupervisor and make
  /// events whole payload deliveries instead of raw exchanges
  /// (escalation ladders and retry backoff then run per cell).
  bool supervised = false;
  /// Tag-to-client distance inside every cell [m]. 2 m keeps the tag
  /// perturbation comfortably above threshold (paper figure 5); push
  /// toward 4+ m to study the weak-tag regime at scale.
  double tag_pos_m = 2.0;
  /// Grid pitch between neighbouring cell centers [m].
  double cell_spacing_m = 25.0;
  /// Multiplier on the pairwise interference coupling. 1.0 is the raw
  /// co-channel physics — every cell on the same channel, which at
  /// 25 m pitch puts neighbour power at parity with a ~12 m AP link
  /// and drowns the deployment. The default models a channel-planned
  /// city (1-in-3 reuse plus adjacent-channel leakage, roughly
  /// -17 dB): scale it up to study the congested regime, 0 disables
  /// cross-cell interference entirely.
  double coupling_scale = 0.02;
  std::uint64_t seed = 1;

  /// Why run_city cannot run this config, as one readable line, or an
  /// empty string when it can. Covers every field a command line can
  /// break; run_city's own WITAG_REQUIREs stay as the backstop.
  std::string validate() const;
};

struct CityResult {
  /// All cells' link metrics folded in cell-index order.
  core::LinkMetrics merged;
  /// Delivery-latency distribution [simulated us]: time between
  /// consecutive successful exchanges (raw) or deliveries (supervised)
  /// per cell, merged across cells.
  obs::HdrQuantiles latency_us;
  std::uint64_t latency_count = 0;
  /// Calendar events processed across all shards and epochs.
  std::uint64_t events = 0;
  /// Event-pool nodes recycled (EventQueue::pool_reuses summed): in
  /// steady state every scheduled event reuses a node, so this
  /// approaches `events` minus the pool high-water mark.
  std::uint64_t pool_reuses = 0;
  /// Peak pooled nodes across shards (allocation high-water mark).
  std::size_t pool_peak = 0;
  /// Supervised mode only.
  std::size_t deliveries_ok = 0;
  std::size_t deliveries_failed = 0;
  /// Mean ambient interference floor over cells at the last barrier [W].
  double mean_ambient_w = 0.0;
  std::size_t shards = 0;
  std::size_t jobs = 1;
  /// Wall time of the sharded run and the sum of per-shard busy time
  /// (what a serial run would cost); their ratio is the realized
  /// speedup. Observability only — report to stderr, never stdout.
  double wall_ms = 0.0;
  double serial_estimate_ms = 0.0;
};

/// Runs the deployment: builds n_cells sessions, partitions them into
/// shards, and advances epochs with interference barriers between
/// them. `jobs` follows the repo convention (0 = hardware concurrency,
/// 1 = fully serial on the calling thread).
CityResult run_city(const CityConfig& cfg, std::size_t jobs);

}  // namespace witag::sim
