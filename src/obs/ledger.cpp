#include "obs/ledger.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <ostream>
#include <string>

#include "obs/metrics.hpp"

namespace witag::obs {
namespace {

constexpr int kNoStage = -1;

int stage_index(std::string_view name) {
  for (std::size_t i = 0; i < kLedgerStages.size(); ++i) {
    if (kLedgerStages[i] == name) return static_cast<int>(i);
  }
  return kNoStage;
}

bool is_exchange(std::string_view name) {
  return name == "session.round" || name == "session.probe";
}

// One span still open while the events of a thread are walked in start
// order.
struct Open {
  double end_us = 0.0;
  double dur_us = 0.0;
  int stage = kNoStage;       ///< Counted stage, or kNoStage.
  bool exchange = false;
  double stage_child_us = 0.0;  ///< Nested stage spans' duration.
};

class Walker {
 public:
  explicit Walker(Ledger& ledger)
      : ledger_(ledger), counts_(kLedgerStages.size(), 0) {}

  void push(const TraceEvent& ev) {
    pop_until(ev.ts_us);
    const std::string_view name = ev.name;
    Open open;
    open.end_us = ev.ts_us + ev.dur_us;
    open.dur_us = ev.dur_us;
    if (is_exchange(name) && open_exchanges_ == 0) {
      open.exchange = true;
      ++open_exchanges_;
      std::fill(counts_.begin(), counts_.end(), std::size_t{0});
    } else if (const int stage = stage_index(name);
               stage != kNoStage && open_exchanges_ > 0) {
      open.stage = stage;
      ++counts_[static_cast<std::size_t>(stage)];
      ++ledger_.rows[static_cast<std::size_t>(stage)].spans;
      for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
        if (it->stage != kNoStage) {
          it->stage_child_us += ev.dur_us;
          break;
        }
      }
    }
    stack_.push_back(open);
  }

  /// Closes every span that ends before `t_us` (all of them at +inf).
  void pop_until(double t_us) {
    while (!stack_.empty() && stack_.back().end_us <= t_us) {
      close(stack_.back());
      stack_.pop_back();
    }
  }

 private:
  void close(const Open& open) {
    if (open.stage != kNoStage) {
      ledger_.rows[static_cast<std::size_t>(open.stage)].self_us +=
          open.dur_us - open.stage_child_us;
    }
    if (!open.exchange) return;
    --open_exchanges_;
    ++ledger_.exchanges;
    ledger_.exchange_us += open.dur_us;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      LedgerRow& row = ledger_.rows[i];
      row.min_per_exchange = ledger_.exchanges == 1
                                 ? counts_[i]
                                 : std::min(row.min_per_exchange, counts_[i]);
      row.max_per_exchange = std::max(row.max_per_exchange, counts_[i]);
    }
  }

  Ledger& ledger_;
  std::vector<std::size_t> counts_;  ///< Stage spans in the open exchange.
  std::vector<Open> stack_;
  int open_exchanges_ = 0;
};

}  // namespace

double Ledger::covered_frac() const {
  if (!(exchange_us > 0.0)) return 0.0;
  double covered = 0.0;
  for (const LedgerRow& row : rows) covered += row.self_us;
  return covered / exchange_us;
}

Ledger build_ledger(std::span<const TraceEvent> events) {
  Ledger ledger;
  for (const std::string_view stage : kLedgerStages) {
    ledger.rows.push_back(LedgerRow{stage});
  }
  // Per thread, parents before their children: by start time, and the
  // longer span first when two start together.
  std::vector<const TraceEvent*> spans;
  for (const TraceEvent& ev : events) {
    if (ev.ph == 'X') spans.push_back(&ev);
  }
  std::sort(spans.begin(), spans.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->dur_us > b->dur_us;
            });
  constexpr double kEnd = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < spans.size();) {
    Walker walker(ledger);
    const std::uint32_t tid = spans[i]->tid;
    for (; i < spans.size() && spans[i]->tid == tid; ++i) {
      walker.push(*spans[i]);
    }
    walker.pop_until(kEnd);
  }
  return ledger;
}

void print_ledger(const Ledger& ledger, std::ostream& os) {
  const double n =
      static_cast<double>(std::max<std::size_t>(ledger.exchanges, 1));
  char line[160];
  std::snprintf(line, sizeof line,
                "[ledger] %zu exchanges, %.1f us per exchange\n",
                ledger.exchanges, ledger.exchange_us / n);
  os << line;
  for (const LedgerRow& row : ledger.rows) {
    const double share =
        ledger.exchange_us > 0.0 ? row.self_us / ledger.exchange_us : 0.0;
    std::snprintf(line, sizeof line, "[ledger]   %-20s %9.1f us %6.1f%%\n",
                  std::string(row.stage).c_str(), row.self_us / n,
                  100.0 * share);
    os << line;
  }
  std::snprintf(line, sizeof line,
                "[ledger]   stages cover %.1f%% of the exchange time\n",
                100.0 * ledger.covered_frac());
  os << line;
}

void export_ledger(const Ledger& ledger) {
  const double n =
      static_cast<double>(std::max<std::size_t>(ledger.exchanges, 1));
  gauge("ledger.exchanges").set(static_cast<double>(ledger.exchanges));
  gauge("ledger.exchange_us").set(ledger.exchange_us / n);
  for (const LedgerRow& row : ledger.rows) {
    gauge("ledger." + std::string(row.stage) + "_us").set(row.self_us / n);
  }
  gauge("ledger.covered_frac").set(ledger.covered_frac());
}

}  // namespace witag::obs
