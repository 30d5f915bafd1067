// Umbrella header for the observability subsystem, plus the
// instrumentation macros used at hot-path call sites.
//
// One gate, at run time: Tracer::set_enabled() gates span/event
// recording; when off a span site costs one relaxed atomic load.
// Counters, gauges and HDR histograms always accumulate (relaxed
// atomics) — they are the metrics export and are cheap enough to stay
// on (<2% on the tightest PHY microbenchmarks).
//
// Name arguments to WITAG_SPAN / WITAG_EVENT* must be string literals.
#pragma once

#include "obs/metrics.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"    // IWYU pragma: export
#include <cstdint>

#define WITAG_OBS_CONCAT_INNER(a, b) a##b
#define WITAG_OBS_CONCAT(a, b) WITAG_OBS_CONCAT_INNER(a, b)

/// RAII span covering the rest of the enclosing scope.
#define WITAG_SPAN(name) \
  ::witag::obs::ScopedSpan WITAG_OBS_CONCAT(witag_obs_span_, __LINE__)((name))
#define WITAG_SPAN_CAT(name, cat)                                       \
  ::witag::obs::ScopedSpan WITAG_OBS_CONCAT(witag_obs_span_, __LINE__)( \
      (name), (cat))

/// Instant (zero-duration) trace events. Forward to obs::instant /
/// instant_arg / instant_arg2: (name [, cat]), (name, k0, v0 [, cat]),
/// (name, k0, v0, k1, v1 [, cat]). Numeric args must already be double.
#define WITAG_EVENT(...) ::witag::obs::instant(__VA_ARGS__)
#define WITAG_EVENT1(...) ::witag::obs::instant_arg(__VA_ARGS__)
#define WITAG_EVENT2(...) ::witag::obs::instant_arg2(__VA_ARGS__)

/// Bumps a named counter by `n`. The registry lookup happens once per
/// call site (function-local static); afterwards it is one relaxed add.
#define WITAG_COUNT(name, n)                                             \
  do {                                                                   \
    static ::witag::obs::Counter& WITAG_OBS_CONCAT(witag_obs_counter_,   \
                                                   __LINE__) =           \
        ::witag::obs::counter((name));                                   \
    WITAG_OBS_CONCAT(witag_obs_counter_, __LINE__)                       \
        .add(static_cast<std::uint64_t>(n));                             \
  } while (0)

/// Records `x` into a named HDR (log-bucketed) histogram with the
/// default config — snapshots export <name>.p50/.p90/.p99/.p999/.max
/// quantile gauges.
#define WITAG_HDR(name, x)                                               \
  do {                                                                   \
    static ::witag::obs::HdrHistogram& WITAG_OBS_CONCAT(witag_obs_hdr_,  \
                                                        __LINE__) =      \
        ::witag::obs::hdr((name));                                       \
    WITAG_OBS_CONCAT(witag_obs_hdr_, __LINE__)                           \
        .record(static_cast<double>(x));                                 \
  } while (0)
