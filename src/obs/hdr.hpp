// HDR-style log-bucketed histogram: bounded memory, configurable
// relative precision, mergeable across shards.
//
// Values are bucketed by octave (power-of-two range above `lowest`)
// and, within each octave, into 2^sub_bucket_bits linear sub-buckets —
// the classic HdrHistogram layout. A recorded value lands in the bucket
// whose [lower, upper) edge pair brackets it, so any quantile read from
// bucket upper edges is an overestimate by at most a factor of
// (1 + 2^-sub_bucket_bits): ~3.1% relative error at the default 5 bits,
// independent of the dynamic range.
//
// An HdrHistogram covers `octaves` powers of two out of the box, which
// is what latency distributions need: microseconds to minutes in one
// fixed-size array, with no edges chosen per call site. Updates are
// relaxed atomic adds (thread-safe, no locks); `merge()` folds another
// histogram with the same config in bucket-wise, so per-shard
// instances aggregate exactly.
//
// Determinism: bucket indexing is a pure function of the value, and
// quantiles are pure functions of the bucket counts — two runs that
// record the same multiset of values report identical quantiles
// regardless of thread interleaving.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>
#include <cstddef>

namespace witag::obs {

struct HdrConfig {
  /// Resolution floor; must be > 0. Bucket 0 covers everything up to
  /// lowest * (1 + 2^-sub_bucket_bits), so values below `lowest` are
  /// reported as that edge (standard HDR behavior below resolution).
  double lowest = 1.0;
  /// Sub-buckets per octave = 2^sub_bucket_bits; relative quantile
  /// error <= 2^-sub_bucket_bits. Range [1, 12].
  int sub_bucket_bits = 5;
  /// Octaves covered above `lowest`; values past lowest * 2^octaves
  /// fall into one overflow bucket. Range [1, 64].
  int octaves = 40;

  bool operator==(const HdrConfig&) const = default;
};

class HdrHistogram {
 public:
  /// Throws std::invalid_argument on an out-of-range config.
  explicit HdrHistogram(HdrConfig cfg = {});

  /// Records one value (relaxed atomics; safe from any thread).
  void record(double x);

  /// Bucket index for `x` — exposed so tests can pin edge behavior.
  std::size_t bucket_index(double x) const;
  /// Inclusive upper edge of bucket `i` (the value quantiles report).
  /// The overflow bucket reports the maximum recorded value.
  double bucket_upper(std::size_t i) const;
  /// Exclusive lower edge of bucket `i` (0 for bucket 0).
  double bucket_lower(std::size_t i) const;
  /// Total buckets including the overflow bucket.
  std::size_t bucket_count() const { return n_buckets_; }

  const HdrConfig& config() const { return cfg_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Largest recorded value; 0 when empty.
  double max() const { return max_.load(std::memory_order_relaxed); }
  /// Count in the overflow (out-of-range) bucket.
  std::uint64_t overflow() const;

  /// Value at quantile q in [0, 1]: the upper edge of the bucket
  /// holding the ceil(q * count)-th smallest recorded value (q = 0 maps
  /// to rank 1). Returns 0 when empty. Quantiles never underestimate
  /// and overestimate by at most (1 + 2^-sub_bucket_bits)x.
  double quantile(double q) const;

  /// Bucket-wise addition. Throws std::invalid_argument when the
  /// configs differ. Associative and commutative: any merge tree over
  /// the same histograms yields identical counts and quantiles.
  void merge(const HdrHistogram& other);

  /// Non-zero buckets as (upper_edge, count) pairs in ascending edge
  /// order.
  std::vector<std::pair<double, std::uint64_t>> nonzero_buckets() const;

  void reset();

 private:
  HdrConfig cfg_;
  std::size_t sub_count_ = 0;  ///< 2^sub_bucket_bits
  std::size_t n_buckets_ = 0;  ///< octaves * sub_count_ + 1 overflow
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// The five standard quantile gauges exported per HDR histogram
/// (suffix, quantile); "max" is keyed off the recorded maximum.
struct HdrQuantiles {
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};
HdrQuantiles hdr_quantiles(const HdrHistogram& h);

}  // namespace witag::obs
