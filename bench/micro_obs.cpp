// Micro-benchmark for the metrics hot path: what does one counter bump
// cost when every worker hits the same name?
//
// Variants, each T threads x N increments of one shared counter:
//   mutex+map  the naive registry: lock a std::mutex, look the name up
//              in a std::map<std::string, uint64>, increment — what
//              every bump would cost without a cached handle. This is
//              the headline baseline.
//   mutex      lock around a bare uint64 (map cost stripped out)
//   counter    obs::Counter through a handle resolved once — what
//              WITAG_COUNT costs: one relaxed atomic add whose cache
//              line every worker shares
//
// Prints ns/op per variant and the counter-vs-naive speedup.
// --assert-speedup X exits 1 when the counter fails to beat mutex+map
// by X (CI uses 5). Numbers go to stdout; this bench has no golden
// output.
//
// Options: --threads N (default 8), --iters N (per thread, default
//          2000000), --repeats N (best-of, default 3),
//          --assert-speedup X (default 0 = report only). A malformed
//          value prints "micro_obs: <reason>" and exits 2
//          (util::run_main).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/cli.hpp"
#include "witag/metrics.hpp"

namespace {

using namespace witag;

/// Runs `body(thread_index)` on `threads` threads and returns the
/// elapsed wall time in nanoseconds (all threads started together).
template <typename Body>
double timed_ns(std::size_t threads, Body&& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      body(t);
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : pool) th.join();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

template <typename Body>
double best_ns_per_op(std::size_t repeats, std::size_t threads,
                      std::size_t iters, Body&& body) {
  double best = 0.0;
  for (std::size_t r = 0; r < repeats; ++r) {
    const double ns = timed_ns(threads, body) /
                      static_cast<double>(threads * iters);
    if (r == 0 || ns < best) best = ns;
  }
  return best;
}

int bench_main(const util::Args& args) {
  const std::size_t threads = args.get_u64("threads", 8);
  const std::size_t iters = args.get_u64("iters", 2'000'000);
  const std::size_t repeats = args.get_u64("repeats", 3);
  const double assert_speedup = args.get_double("assert-speedup", 0.0);
  args.check();

  std::mutex map_mu;
  std::map<std::string, std::uint64_t> named_counts;
  const double naive_ns = best_ns_per_op(
      repeats, threads, iters, [&](std::size_t) {
        for (std::size_t i = 0; i < iters; ++i) {
          const std::lock_guard<std::mutex> lock(map_mu);
          ++named_counts["session.exchanges.naive"];
        }
      });

  std::mutex mu;
  std::uint64_t locked_count = 0;
  const double mutex_ns = best_ns_per_op(
      repeats, threads, iters, [&](std::size_t) {
        for (std::size_t i = 0; i < iters; ++i) {
          const std::lock_guard<std::mutex> lock(mu);
          ++locked_count;
        }
      });

  obs::Counter& counter = obs::counter("micro_obs.counter");
  const double counter_ns = best_ns_per_op(
      repeats, threads, iters, [&](std::size_t) {
        for (std::size_t i = 0; i < iters; ++i) counter.add(1);
      });

  // Keep the compiler honest about the accumulated totals.
  if (named_counts["session.exchanges.naive"] == 0 || locked_count == 0 ||
      counter.value() == 0) {
    std::cerr << "[micro_obs] impossible: zero counts\n";
    return 2;
  }

  const double speedup = counter_ns > 0.0 ? naive_ns / counter_ns : 0.0;
  core::Table table({"variant", "ns/op", "vs mutex+map"});
  table.add_row({"mutex+map", core::Table::num(naive_ns, 2),
                 core::Table::num(1.0, 2)});
  table.add_row({"mutex", core::Table::num(mutex_ns, 2),
                 core::Table::num(naive_ns / mutex_ns, 2)});
  table.add_row({"counter", core::Table::num(counter_ns, 2),
                 core::Table::num(speedup, 2)});
  table.print(std::cout);
  std::cout << "\n" << threads << " threads x " << iters
            << " increments, best of " << repeats << "\n";

  if (assert_speedup > 0.0 && speedup < assert_speedup) {
    std::cerr << "[micro_obs] FAIL: obs::Counter is only "
              << core::Table::num(speedup, 2) << "x the naive "
              << "mutex+map registry (need " << assert_speedup << "x)\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return witag::util::run_main("micro_obs", argc, argv, bench_main);
}
