// The exchange ledger: where a query/block-ack exchange's time goes,
// read from the session's own spans.
//
// Each `session.round` or `session.probe` span is one exchange. Inside
// it, one span per pipeline stage (kLedgerStages) covers the work: the
// query build, the PHY transmit, the tag's trigger and response, the
// channel's CFR rebuild and application, the receiver's front end and
// Viterbi decodes, and the MAC receive. A stage's self time is its
// duration minus the stage spans nested in it, so the stages partition
// the time they cover and their sum over the exchange duration is the
// share of the exchange the ledger explains. Any other span inside a
// stage (`phy.channel_est`, `tag.detect_trigger`) counts toward that
// stage. RunScope's `--ledger` flag prints the ledger on stderr and
// exports it as `ledger.*` gauges (report.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace witag::obs {

/// The stages of one exchange, in pipeline order. `phy.viterbi` fires
/// once per decoded field (SIG and data); the others at most once per
/// exchange.
inline constexpr std::array<std::string_view, 9> kLedgerStages = {
    "witag.build_query", "phy.transmit",    "tag.trigger",
    "tag.respond",       "channel.cfr_rebuild", "channel.apply",
    "phy.rx_front",      "phy.viterbi",     "mac.receive_psdu"};

/// One stage's row, totalled over the exchanges.
struct LedgerRow {
  std::string_view stage;
  std::size_t spans = 0;             ///< Spans inside exchanges.
  std::size_t min_per_exchange = 0;  ///< Fewest spans in one exchange.
  std::size_t max_per_exchange = 0;  ///< Most spans in one exchange.
  double self_us = 0.0;              ///< Self time over all exchanges.
};

struct Ledger {
  std::size_t exchanges = 0;
  double exchange_us = 0.0;     ///< Summed duration of the exchanges.
  std::vector<LedgerRow> rows;  ///< One per kLedgerStages entry, in order.

  /// Summed stage self time over summed exchange time (0 with no
  /// exchange): the share of the exchanges the stages explain.
  double covered_frac() const;
};

/// Builds the ledger from complete ('X') events; events of every thread
/// are read, nesting is resolved per thread. Stage spans outside any
/// exchange are left out.
Ledger build_ledger(std::span<const TraceEvent> events);

/// Prints µs per exchange and each stage's µs per exchange and share.
void print_ledger(const Ledger& ledger, std::ostream& os);

/// Sets the gauges `ledger.exchanges`, `ledger.exchange_us` (µs per
/// exchange), `ledger.<stage>_us` (self µs per exchange) and
/// `ledger.covered_frac`.
void export_ledger(const Ledger& ledger);

}  // namespace witag::obs
