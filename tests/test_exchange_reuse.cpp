// Exchange-buffer reuse: a Session keeps no PPDU-sized buffer of its
// own; every exchange on a thread goes through that thread's one
// workspace (query and received timelines, decode scratch, envelope
// render). These tests run sessions of different shapes through shared
// workspaces and require each session's rounds to equal what the same
// session produces alone on a fresh thread, so no buffer carries state
// from one exchange into the next.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <thread>
#include <vector>

#include "faults/fault_plan.hpp"
#include "runner/parallel_sweep.hpp"
#include "witag/config.hpp"
#include "witag/session.hpp"

namespace witag::core {
namespace {

constexpr std::size_t kRounds = 12;

struct Shape {
  unsigned subframes;
  unsigned mcs;
  TriggerMode trigger;
  mac::Security security;
  bool hostile;
  unsigned address;  ///< The tag's address, carried by its queries.
};

// Every axis the workspace's buffer sizes and contents depend on: 8 and
// 64 subframes, MCS 3 and 5, both trigger modes, open and CCMP, a
// hostile plan whose aborted A-MPDUs zero whole symbol slots, and
// envelope sessions whose trigger patterns differ, so a stale render
// would send a tag to the wrong query.
constexpr Shape kShapes[] = {
    {64, 5, TriggerMode::kIdeal, mac::Security::kOpen, false, 0},
    {8, 5, TriggerMode::kEnvelope, mac::Security::kCcmp, false, 0},
    {64, 3, TriggerMode::kEnvelope, mac::Security::kOpen, false, 1},
    {8, 3, TriggerMode::kIdeal, mac::Security::kCcmp, false, 0},
    {64, 5, TriggerMode::kIdeal, mac::Security::kOpen, true, 0},
    {64, 5, TriggerMode::kEnvelope, mac::Security::kCcmp, false, 2},
};
constexpr std::size_t kSessions = std::size(kShapes);
constexpr std::size_t kHostile = 4;

SessionConfig config_for(std::size_t i) {
  const Shape& shape = kShapes[i];
  SessionConfig cfg = los_testbed_config(util::Meters{2.0}, 4100 + i);
  cfg.query.n_subframes = shape.subframes;
  cfg.query.mcs_index = shape.mcs;
  cfg.trigger_mode = shape.trigger;
  cfg.security.mode = shape.security;
  if (shape.hostile) cfg.faults = faults::hostile_plan(0.75);
  cfg.tag_address = shape.address;
  cfg.query.trigger_code = shape.address;
  cfg.query.n_trigger = 5 + shape.address;
  return cfg;
}

using Rounds = std::vector<Session::RoundResult>;

/// Session `i` run alone for kRounds rounds on a thread of its own, so
/// its exchanges start from a cold workspace.
Rounds run_alone(std::size_t i) {
  Rounds out;
  std::thread([&] {
    Session session(config_for(i));
    for (std::size_t r = 0; r < kRounds; ++r) {
      out.push_back(session.run_round());
    }
  }).join();
  return out;
}

/// Sessions `which` run round-robin on the calling thread: one round of
/// each in turn, kRounds times. Returns each session's rounds in the
/// order of `which`, plus its A-MPDU abort count.
struct RoundRobin {
  std::vector<Rounds> rounds;
  std::vector<std::uint64_t> aborted;
};
RoundRobin run_round_robin(const std::vector<std::size_t>& which) {
  std::vector<Session> sessions;
  sessions.reserve(which.size());
  for (const std::size_t i : which) sessions.emplace_back(config_for(i));
  RoundRobin out;
  out.rounds.resize(which.size());
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t k = 0; k < sessions.size(); ++k) {
      out.rounds[k].push_back(sessions[k].run_round());
    }
  }
  for (const Session& s : sessions) {
    out.aborted.push_back(s.fault_counts().ampdu_aborted);
  }
  return out;
}

void expect_same_rounds(const Rounds& got, const Rounds& alone,
                        std::size_t session) {
  ASSERT_EQ(got.size(), alone.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    SCOPED_TRACE(testing::Message()
                 << "session " << session << " round " << r);
    EXPECT_EQ(got[r].sent, alone[r].sent);
    EXPECT_EQ(got[r].received, alone[r].received);
    EXPECT_EQ(got[r].lost, alone[r].lost);
    EXPECT_EQ(got[r].trigger_detected, alone[r].trigger_detected);
    EXPECT_EQ(got[r].airtime_us.value(), alone[r].airtime_us.value());
    EXPECT_EQ(got[r].subframes_valid, alone[r].subframes_valid);
  }
}

std::vector<Rounds> every_session_alone() {
  std::vector<Rounds> alone;
  for (std::size_t i = 0; i < kSessions; ++i) alone.push_back(run_alone(i));
  return alone;
}

TEST(ExchangeReuse, RoundRobinOnOneThreadMatchesEachSessionAlone) {
  const std::vector<Rounds> alone = every_session_alone();
  std::vector<std::size_t> all(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) all[i] = i;
  const RoundRobin shared = run_round_robin(all);
  // The hostile session must really cut A-MPDUs short, or the zeroed
  // slots this test exists for never pass through the workspace; and
  // every session must deliver, or an envelope render is never used.
  EXPECT_GT(shared.aborted[kHostile], 0u);
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(std::any_of(alone[i].begin(), alone[i].end(),
                            [](const Session::RoundResult& r) {
                              return r.trigger_detected && !r.lost;
                            }))
        << "session " << i;
    expect_same_rounds(shared.rounds[i], alone[i], i);
  }
}

TEST(ExchangeReuse, FourWorkersRoundRobinMatchEachSessionAlone) {
  constexpr std::size_t kWorkers = 4;
  const std::vector<Rounds> alone = every_session_alone();
  // Worker w round-robins sessions w, w + 4, ...: each worker's
  // workspace serves several shapes while the others run concurrently.
  const auto groups = runner::parallel_map(
      kWorkers, kWorkers, [](std::size_t w) {
        std::vector<std::size_t> which;
        for (std::size_t i = w; i < kSessions; i += kWorkers) {
          which.push_back(i);
        }
        return run_round_robin(which).rounds;
      });
  for (std::size_t w = 0; w < kWorkers; ++w) {
    for (std::size_t k = 0; k < groups[w].size(); ++k) {
      const std::size_t i = w + k * kWorkers;
      expect_same_rounds(groups[w][k], alone[i], i);
    }
  }
}

}  // namespace
}  // namespace witag::core
