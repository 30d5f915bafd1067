// HDR histogram: bucket-edge behavior, quantile math against a
// sorted-vector oracle, merge algebra, and the registry's quantile-
// gauge export.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/hdr.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace witag::obs {
namespace {

class HdrTest : public ::testing::Test {
 protected:
  void SetUp() override { MetricsRegistry::instance().reset(); }
  void TearDown() override { MetricsRegistry::instance().reset(); }
};

using HdrBuckets = HdrTest;
using HdrQuantile = HdrTest;
using HdrMerge = HdrTest;
using HdrRegistry = HdrTest;

TEST_F(HdrBuckets, ConfigValidation) {
  EXPECT_THROW(HdrHistogram({/*lowest=*/0.0}), std::invalid_argument);
  EXPECT_THROW(HdrHistogram({/*lowest=*/-1.0}), std::invalid_argument);
  EXPECT_THROW(HdrHistogram({1.0, /*sub_bucket_bits=*/0}),
               std::invalid_argument);
  EXPECT_THROW(HdrHistogram({1.0, /*sub_bucket_bits=*/13}),
               std::invalid_argument);
  EXPECT_THROW(HdrHistogram({1.0, 5, /*octaves=*/0}), std::invalid_argument);
  EXPECT_THROW(HdrHistogram({1.0, 5, /*octaves=*/65}), std::invalid_argument);
  const HdrHistogram ok({0.5, 3, 20});
  EXPECT_EQ(ok.bucket_count(), 20u * 8u + 1u);
}

TEST_F(HdrBuckets, EdgeAssignment) {
  // lowest=1, 2 bits -> 4 sub-buckets per octave. Octave 0 covers
  // (1, 2] with edges at 1.25, 1.5, 1.75, 2.0.
  const HdrConfig cfg{1.0, 2, 8};
  const HdrHistogram h(cfg);

  // At or below `lowest` (and junk) lands in bucket 0.
  EXPECT_EQ(h.bucket_index(1.0), 0u);
  EXPECT_EQ(h.bucket_index(0.25), 0u);
  EXPECT_EQ(h.bucket_index(-3.0), 0u);
  EXPECT_EQ(h.bucket_index(std::numeric_limits<double>::quiet_NaN()), 0u);

  // Within octave 0 the sub-bucket edges are linear; buckets bracket
  // [lower, upper), so an exact edge value lands in the next bucket.
  EXPECT_EQ(h.bucket_index(1.1), 0u);    // [1, 1.25)
  EXPECT_EQ(h.bucket_index(1.25), 1u);   // exact edge -> next bucket
  EXPECT_EQ(h.bucket_index(1.26), 1u);   // [1.25, 1.5)
  EXPECT_EQ(h.bucket_index(1.9), 3u);    // [1.75, 2)
  EXPECT_EQ(h.bucket_index(2.0), 4u);    // first bucket of octave 1
  EXPECT_EQ(h.bucket_index(2.2), 4u);    // [2, 2.5)

  // Edges are consistent: lower <= value < upper... the overestimate
  // contract only needs upper >= value, which quantile() relies on.
  for (const double v : {1.01, 1.3, 2.2, 3.7, 100.0, 200.0}) {
    const std::size_t i = h.bucket_index(v);
    EXPECT_LE(h.bucket_lower(i), v) << v;
    EXPECT_GE(h.bucket_upper(i), v) << v;
  }

  // Beyond lowest * 2^octaves is the overflow bucket.
  EXPECT_EQ(h.bucket_index(257.0), h.bucket_count() - 1);
}

TEST_F(HdrBuckets, TopBucketOverflow) {
  HdrHistogram h({1.0, 2, 4});  // covers (1, 16]
  h.record(10.0);
  h.record(1e9);
  h.record(5e9);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 5e9);
  // The overflow bucket reports the true maximum, not an edge.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5e9);
}

TEST_F(HdrQuantile, MatchesSortedOracleWithinPrecision) {
  const HdrConfig cfg{1.0, 5, 40};  // 2^-5 ~ 3.1% relative error
  HdrHistogram h(cfg);
  std::vector<double> values;
  util::Rng gen(0x4D125EEDull);
  for (int i = 0; i < 20000; ++i) {
    // Spread over ~5 decades, all above `lowest`.
    const double v = std::exp(gen.uniform(0.0, std::log(1e5)));
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());

  const double rel = 1.0 + std::ldexp(1.0, -cfg.sub_bucket_bits);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const std::size_t rank =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(
                                     q * static_cast<double>(values.size()))));
    const double oracle = values[rank - 1];
    const double got = h.quantile(q);
    EXPECT_GE(got, oracle) << "q=" << q;
    EXPECT_LE(got, oracle * rel) << "q=" << q;
  }
}

TEST_F(HdrQuantile, EmptyAndSingleValue) {
  HdrHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.record(42.0);
  const double rel = 1.0 + std::ldexp(1.0, -h.config().sub_bucket_bits);
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(h.quantile(q), 42.0);
    EXPECT_LE(h.quantile(q), 42.0 * rel);
  }
}

TEST_F(HdrMerge, AssociativeAndCommutative) {
  const HdrConfig cfg{1.0, 4, 30};
  HdrHistogram a(cfg), b(cfg), c(cfg);
  util::Rng gen(0xAB1DE5ull);
  for (int i = 0; i < 500; ++i) a.record(std::exp(gen.uniform(0.0, 8.0)));
  for (int i = 0; i < 300; ++i) b.record(std::exp(gen.uniform(2.0, 10.0)));
  for (int i = 0; i < 200; ++i) c.record(std::exp(gen.uniform(0.0, 30.0)));

  // (a + b) + c
  HdrHistogram left(cfg);
  left.merge(a);
  left.merge(b);
  left.merge(c);
  // c + (b + a)
  HdrHistogram right(cfg);
  right.merge(c);
  right.merge(b);
  right.merge(a);

  EXPECT_EQ(left.count(), 1000u);
  EXPECT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.sum(), right.sum());
  EXPECT_DOUBLE_EQ(left.max(), right.max());
  EXPECT_EQ(left.overflow(), right.overflow());
  EXPECT_EQ(left.nonzero_buckets(), right.nonzero_buckets());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(left.quantile(q), right.quantile(q)) << q;
  }
}

TEST_F(HdrMerge, MergeEqualsBulkRecord) {
  const HdrConfig cfg{1.0, 5, 40};
  HdrHistogram shard1(cfg), shard2(cfg), whole(cfg);
  util::Rng gen(0x5EED5ull);
  for (int i = 0; i < 1000; ++i) {
    const double v = std::exp(gen.uniform(0.0, 12.0));
    (i % 2 == 0 ? shard1 : shard2).record(v);
    whole.record(v);
  }
  HdrHistogram merged(cfg);
  merged.merge(shard1);
  merged.merge(shard2);
  EXPECT_EQ(merged.nonzero_buckets(), whole.nonzero_buckets());
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.quantile(0.99), whole.quantile(0.99));
}

TEST_F(HdrMerge, ConfigMismatchThrows) {
  HdrHistogram a({1.0, 5, 40});
  const HdrHistogram b({1.0, 4, 40});
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST_F(HdrRegistry, SnapshotExportsQuantileGauges) {
  HdrHistogram& h = MetricsRegistry::instance().hdr("test.latency");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();

  ASSERT_EQ(snap.hdrs.count("test.latency"), 1u);
  const auto& out = snap.hdrs.at("test.latency");
  EXPECT_EQ(out.count, 100u);
  EXPECT_DOUBLE_EQ(out.quantiles.max, 100.0);
  ASSERT_EQ(snap.gauges.count("test.latency.p50"), 1u);
  ASSERT_EQ(snap.gauges.count("test.latency.p90"), 1u);
  ASSERT_EQ(snap.gauges.count("test.latency.p99"), 1u);
  ASSERT_EQ(snap.gauges.count("test.latency.p999"), 1u);
  ASSERT_EQ(snap.gauges.count("test.latency.max"), 1u);
  const double rel = 1.0 + std::ldexp(1.0, -h.config().sub_bucket_bits);
  EXPECT_GE(snap.gauges.at("test.latency.p50"), 50.0);
  EXPECT_LE(snap.gauges.at("test.latency.p50"), 50.0 * rel);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.latency.max"), 100.0);
}

TEST_F(HdrRegistry, SameNameSameObjectDifferentConfigThrows) {
  HdrHistogram& a = MetricsRegistry::instance().hdr("test.same");
  HdrHistogram& b = MetricsRegistry::instance().hdr("test.same");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(MetricsRegistry::instance().hdr("test.same", {2.0, 5, 40}),
               std::invalid_argument);
}

TEST_F(HdrRegistry, ResetZeroesButKeepsRegistration) {
  HdrHistogram& h = MetricsRegistry::instance().hdr("test.reset");
  h.record(10.0);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_EQ(&h, &MetricsRegistry::instance().hdr("test.reset"));
}

}  // namespace
}  // namespace witag::obs
