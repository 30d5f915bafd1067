// Memory footprint of a Session. Its PPDU-sized exchange buffers live in
// one workspace per thread, so the heap a session holds does not grow
// with the A-MPDU, and a warm exchange makes no large allocation. This
// executable replaces the global operator new/delete to count both.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <new>
#include <vector>

#include "mac/station.hpp"
#include "witag/config.hpp"
#include "witag/query.hpp"
#include "witag/session.hpp"

namespace {

/// An allocation of this many bytes or more counts as large.
constexpr std::size_t kLargeBytes = 16 * 1024;

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_large_allocs{0};
std::atomic<std::uint64_t> g_allocs{0};

// Each block records its size in the word just before the pointer handed
// out. The header is one alignment unit long, so the pointer keeps the
// alignment asked for.
std::size_t header_for(std::size_t align) {
  return std::max(align, alignof(std::max_align_t));
}

void* counted_new(std::size_t size, std::size_t align, bool nothrow) {
  const std::size_t header = header_for(align);
  const std::size_t body = (size + header - 1) / header * header;
  auto* base = static_cast<char*>(std::aligned_alloc(header, header + body));
  if (base == nullptr) {
    if (nothrow) return nullptr;
    throw std::bad_alloc();
  }
  std::memcpy(base + header - sizeof size, &size, sizeof size);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size));
  g_allocs.fetch_add(1);
  if (size >= kLargeBytes) g_large_allocs.fetch_add(1);
  return base + header;
}

void counted_delete(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  char* const base = static_cast<char*>(p) - header_for(align);
  std::size_t size = 0;
  std::memcpy(&size, static_cast<char*>(p) - sizeof size, sizeof size);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size));
  std::free(base);
}

std::size_t align_of(std::align_val_t a) { return static_cast<std::size_t>(a); }

}  // namespace

void* operator new(std::size_t n) { return counted_new(n, 0, false); }
void* operator new[](std::size_t n) { return counted_new(n, 0, false); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new(n, 0, true);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_new(n, 0, true);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_new(n, align_of(a), false);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_new(n, align_of(a), false);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_new(n, align_of(a), true);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_new(n, align_of(a), true);
}
void operator delete(void* p) noexcept { counted_delete(p, 0); }
void operator delete[](void* p) noexcept { counted_delete(p, 0); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p, 0); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p, 0); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_delete(p, 0);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_delete(p, 0);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  counted_delete(p, align_of(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  counted_delete(p, align_of(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  counted_delete(p, align_of(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  counted_delete(p, align_of(a));
}
void operator delete(void* p, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  counted_delete(p, align_of(a));
}
void operator delete[](void* p, std::align_val_t a,
                       const std::nothrow_t&) noexcept {
  counted_delete(p, align_of(a));
}

namespace witag::core {
namespace {

SessionConfig link_config(unsigned subframes, std::uint64_t seed) {
  SessionConfig cfg = los_testbed_config(util::Meters{2.0}, seed);
  cfg.query.n_subframes = subframes;
  cfg.query.mcs_index = 5;
  return cfg;
}

/// Heap held per session after one exchange, over `n` sessions built and
/// run once each on a thread whose workspace a session of the same shape
/// has already grown (the transmit tables, FFT plans and metric handles
/// are warm too, so only what the sessions themselves keep is counted).
std::int64_t held_per_session(unsigned subframes, std::size_t n) {
  {
    Session warm(link_config(subframes, 1));
    warm.run_round();
  }
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(n);
  const std::int64_t before = g_live_bytes.load();
  for (std::size_t i = 0; i < n; ++i) {
    sessions.push_back(
        std::make_unique<Session>(link_config(subframes, 100 + i)));
    sessions.back()->run_round();
  }
  return (g_live_bytes.load() - before) / static_cast<std::int64_t>(n);
}

/// Large allocations over `rounds` exchanges of a session already run
/// twice, so its thread's workspace is grown.
std::uint64_t large_allocs_when_warm(const SessionConfig& cfg,
                                     std::size_t rounds) {
  Session session(cfg);
  session.run_round();
  session.run_round();
  const std::uint64_t before = g_large_allocs.load();
  for (std::size_t r = 0; r < rounds; ++r) session.run_round();
  return g_large_allocs.load() - before;
}

TEST(Footprint, SessionHoldsAtMost16KBAfterOneExchange) {
  for (const unsigned subframes : {8u, 64u}) {
    const std::int64_t held = held_per_session(subframes, 8);
    std::cout << "[footprint] heap held per session after one " << subframes
              << "-subframe MCS5 exchange: " << held << " B\n";
    EXPECT_LE(held, std::int64_t{16 * 1024}) << subframes << " subframes";
  }
}

TEST(Footprint, SteadyStateExchangeMakesNoLargeAllocation) {
  const SessionConfig ideal_open = link_config(64, 7);
  EXPECT_EQ(large_allocs_when_warm(ideal_open, 4), 0u)
      << "ideal trigger, open network";

  SessionConfig envelope_ccmp = link_config(64, 8);
  envelope_ccmp.trigger_mode = TriggerMode::kEnvelope;
  envelope_ccmp.security.mode = mac::Security::kCcmp;
  EXPECT_EQ(large_allocs_when_warm(envelope_ccmp, 4), 0u)
      << "envelope trigger, CCMP";
}

TEST(Footprint, WarmQueryBuildAllocatesNoMoreThanTheAmpdu) {
  // A reused frame keeps its filler payloads, so once warm the query
  // build allocates only what Client::build_ampdu does on the same
  // payloads (its returned PSDU, and CCMP's per-subframe buffers).
  for (const mac::Security mode : {mac::Security::kOpen,
                                   mac::Security::kCcmp}) {
    SessionConfig cfg = link_config(64, 9);
    cfg.security.mode = mode;
    const Session session(cfg);
    const QueryLayout& layout = session.layout();
    mac::Client client(mac::make_address(0x01), mac::make_address(0x02),
                       cfg.security);
    QueryFrame frame;
    for (int i = 0; i < 2; ++i) {
      build_query_into(layout, client, cfg.query.trigger_low_scale, frame);
    }
    const std::uint64_t before_query = g_allocs.load();
    build_query_into(layout, client, cfg.query.trigger_low_scale, frame);
    const std::uint64_t query_allocs = g_allocs.load() - before_query;
    const std::uint64_t before_ampdu = g_allocs.load();
    const util::ByteVec psdu = client.build_ampdu(frame.payloads);
    const std::uint64_t ampdu_allocs = g_allocs.load() - before_ampdu;
    std::cout << "[footprint] warm 64-subframe query build: " << query_allocs
              << " allocations, build_ampdu alone: " << ampdu_allocs << "\n";
    EXPECT_LE(query_allocs, ampdu_allocs)
        << (mode == mac::Security::kOpen ? "open" : "CCMP");
    EXPECT_FALSE(psdu.empty());
  }
}

TEST(Footprint, WarmQueryBuildAllocatesNothing) {
  // The A-MPDU is written into the frame's own PSDU and CCMP seals each
  // body in place, so once warm a 64-subframe query build allocates
  // nothing at all, on an open network and under CCMP.
  for (const mac::Security mode : {mac::Security::kOpen,
                                   mac::Security::kCcmp}) {
    SessionConfig cfg = link_config(64, 10);
    cfg.security.mode = mode;
    const Session session(cfg);
    mac::Client client(mac::make_address(0x01), mac::make_address(0x02),
                       cfg.security);
    QueryFrame frame;
    for (int i = 0; i < 2; ++i) {
      build_query_into(session.layout(), client,
                       cfg.query.trigger_low_scale, frame);
    }
    const std::uint64_t before = g_allocs.load();
    build_query_into(session.layout(), client, cfg.query.trigger_low_scale,
                     frame);
    EXPECT_EQ(g_allocs.load() - before, 0u)
        << (mode == mac::Security::kOpen ? "open" : "CCMP");
  }
}

}  // namespace
}  // namespace witag::core
