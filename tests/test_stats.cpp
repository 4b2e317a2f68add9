#include "common/stats.h"

#include <gtest/gtest.h>

namespace ritas {
namespace {

TEST(Sample, Empty) {
  Sample s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Sample, SingleValue) {
  Sample s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(Sample, KnownMoments) {
  Sample s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: 32/7.
  EXPECT_NEAR(s.stddev() * s.stddev(), 32.0 / 7.0, 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(Sample, NegativeValues) {
  Sample s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev() * s.stddev(), 18.0);
  EXPECT_EQ(s.min(), -3.0);
}

TEST(Sample, MeanAndStddev) {
  Sample s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.2909944487, 1e-9);
}

TEST(Sample, Percentiles) {
  Sample s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_EQ(s.percentile(50), 50.0);
  EXPECT_EQ(s.percentile(90), 90.0);
  EXPECT_EQ(s.percentile(100), 100.0);
  EXPECT_EQ(s.percentile(0), 1.0);
  EXPECT_EQ(s.median(), 50.0);
}

TEST(Sample, PercentileAfterLateAdd) {
  Sample s;
  s.add(10.0);
  EXPECT_EQ(s.median(), 10.0);
  s.add(20.0);
  s.add(0.0);
  EXPECT_EQ(s.median(), 10.0);  // sorted cache must invalidate
  EXPECT_EQ(s.max(), 20.0);
}

TEST(Sample, EmptyPercentileThrows) {
  Sample s;
  EXPECT_THROW(s.percentile(50), std::logic_error);
}

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, PowerOfTwoBucketing) {
  Histogram h;
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull}) h.add(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.total(), 1010u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.buckets()[0], 1u);  // {0}
  EXPECT_EQ(h.buckets()[1], 1u);  // {1}
  EXPECT_EQ(h.buckets()[2], 2u);  // {2,3}
  EXPECT_EQ(h.buckets()[3], 1u);  // {4..7}
  EXPECT_EQ(h.buckets()[10], 1u); // {512..1023}
  EXPECT_EQ(Histogram::bucket_floor(0), 0u);
  EXPECT_EQ(Histogram::bucket_floor(1), 1u);
  EXPECT_EQ(Histogram::bucket_floor(10), 512u);
}

TEST(Histogram, PercentileBounds) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.add(10);    // bucket 4 (8..15)
  for (int i = 0; i < 10; ++i) h.add(5000);  // bucket 13 (4096..8191)
  // Sparse buckets (one distinct value) are exact, not rounded to the
  // power-of-two bucket ceiling.
  EXPECT_EQ(h.percentile_bound(50), 10u);
  EXPECT_EQ(h.percentile_bound(100), 5000u);
  EXPECT_EQ(h.p50(), 10u);
  EXPECT_EQ(h.p99(), 5000u);
  Histogram empty;
  EXPECT_EQ(empty.percentile_bound(99), 0u);
  EXPECT_EQ(empty.p999(), 0u);
}

TEST(Histogram, SparseTailIsExactNeverBelowMax) {
  // 998 fast ops plus one slow outlier (rank 999 of 999 = p99.9): the tail
  // percentile must report the outlier exactly, never a value interpolated
  // below the observed max.
  Histogram h;
  for (int i = 0; i < 998; ++i) h.add(100);
  h.add(777'777);
  EXPECT_EQ(h.p50(), 100u);
  EXPECT_EQ(h.p99(), 100u);
  EXPECT_EQ(h.p999(), 777'777u);
  EXPECT_EQ(h.p999(), h.max());
}

TEST(Histogram, MixedBucketRoundsUpWithinBucket) {
  // Two distinct values share bucket 4 (8..15); the p50 rank lands on the
  // smaller one but the bound may only round UP within the bucket.
  Histogram h;
  h.add(9);
  h.add(9);
  h.add(14);
  EXPECT_EQ(h.percentile_bound(50), 14u);  // bucket max, >= true rank value 9
  EXPECT_LE(h.percentile_bound(50), h.max());
}

TEST(Histogram, PercentileSurvivesMerge) {
  Histogram a, b;
  for (int i = 0; i < 500; ++i) a.add(40);
  for (int i = 0; i < 498; ++i) b.add(50);
  b.add(1'000'000);
  a += b;
  EXPECT_EQ(a.count(), 999u);
  EXPECT_EQ(a.p50(), 50u);   // rank 500 falls in bucket 6 whose max is 50
  EXPECT_EQ(a.p999(), 1'000'000u);  // rank 999 of 999 is the outlier
  // Merging an empty histogram is a no-op for percentiles.
  Histogram empty;
  a += empty;
  EXPECT_EQ(a.p50(), 50u);
  EXPECT_EQ(a.p999(), 1'000'000u);
}

TEST(Histogram, MergePreservesMoments) {
  Histogram a, b;
  a.add(3);
  a.add(100);
  b.add(7);
  a += b;
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.total(), 110u);
  EXPECT_EQ(a.min(), 3u);
  EXPECT_EQ(a.max(), 100u);
  EXPECT_EQ(a.buckets()[2] + a.buckets()[3], 2u);  // 3 and 7
}

}  // namespace
}  // namespace ritas
