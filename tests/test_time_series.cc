/**
 * @file
 * TimeSeriesBuffer tests: bucket aggregation, ring wrap, old-sample
 * drops and clear().
 */

#include <gtest/gtest.h>

#include "obs/telemetry/time_series.h"

namespace agsim::obs::telemetry {
namespace {

TEST(TimeBucket, AggregatesCountSumMinMaxLast)
{
    TimeBucket bucket;
    bucket.add(3.0);
    bucket.add(-1.0);
    bucket.add(2.0);
    EXPECT_EQ(bucket.count, 4u - 1u);
    EXPECT_DOUBLE_EQ(bucket.sum, 4.0);
    EXPECT_DOUBLE_EQ(bucket.min, -1.0);
    EXPECT_DOUBLE_EQ(bucket.max, 3.0);
    EXPECT_DOUBLE_EQ(bucket.last, 2.0);
    EXPECT_NEAR(bucket.mean(), 4.0 / 3.0, 1e-12);
}

TEST(TimeSeriesBuffer, SamplesLandInFixedIntervals)
{
    TimeSeriesBuffer buffer(Seconds{0.01}, 16);
    buffer.record(Seconds{0.000}, 1.0);
    buffer.record(Seconds{0.009}, 3.0);
    buffer.record(Seconds{0.010}, 5.0);
    EXPECT_EQ(buffer.firstBucket(), 0);
    EXPECT_EQ(buffer.lastBucket(), 1);
    EXPECT_EQ(buffer.bucket(0).count, 2u);
    EXPECT_DOUBLE_EQ(buffer.bucket(0).sum, 4.0);
    EXPECT_EQ(buffer.bucket(1).count, 1u);
    EXPECT_DOUBLE_EQ(buffer.bucket(1).last, 5.0);
}

TEST(TimeSeriesBuffer, SkippedBucketsReadEmpty)
{
    TimeSeriesBuffer buffer(Seconds{0.01}, 32);
    buffer.record(Seconds{0.005}, 1.0);
    // A fleet block can span many bucket widths; the gap must read as
    // empty buckets, not as stale data from an earlier ring lap.
    buffer.record(Seconds{0.095}, 2.0);
    EXPECT_EQ(buffer.lastBucket(), 9);
    for (int64_t b = 1; b <= 8; ++b)
        EXPECT_EQ(buffer.bucket(b).count, 0u) << "bucket " << b;
    EXPECT_EQ(buffer.bucket(9).count, 1u);
}

TEST(TimeSeriesBuffer, RingWrapEvictsOldestAndDropsStale)
{
    TimeSeriesBuffer buffer(Seconds{1.0}, 4);
    for (int i = 0; i < 8; ++i)
        buffer.record(Seconds{double(i) + 0.5}, double(i));
    // Only the newest 4 buckets [4, 7] are retained.
    EXPECT_EQ(buffer.firstBucket(), 4);
    EXPECT_EQ(buffer.lastBucket(), 7);
    EXPECT_EQ(buffer.bucket(3).count, 0u);
    EXPECT_DOUBLE_EQ(buffer.bucket(4).last, 4.0);

    // A sample older than the retained window is dropped and counted.
    const uint64_t before = buffer.droppedOld();
    buffer.record(Seconds{1.5}, 99.0);
    EXPECT_EQ(buffer.droppedOld(), before + 1);
    EXPECT_EQ(buffer.bucket(1).count, 0u);
}

TEST(TimeSeriesBuffer, StaleLapSlotNeverLeaksAfterWrap)
{
    TimeSeriesBuffer buffer(Seconds{1.0}, 4);
    buffer.record(Seconds{0.5}, 1.0);
    // Jump far ahead: bucket 8 reuses bucket 0's ring slot; buckets
    // 5..7 were never written. All of them must read empty except 8.
    buffer.record(Seconds{8.5}, 2.0);
    EXPECT_EQ(buffer.firstBucket(), 5);
    for (int64_t b = 5; b <= 7; ++b)
        EXPECT_EQ(buffer.bucket(b).count, 0u) << "bucket " << b;
    EXPECT_EQ(buffer.bucket(8).count, 1u);
    EXPECT_DOUBLE_EQ(buffer.bucket(8).last, 2.0);
}

TEST(TimeSeriesBuffer, TimeMayMoveBackwardWithinWindow)
{
    TimeSeriesBuffer buffer(Seconds{1.0}, 8);
    buffer.record(Seconds{0.5}, 0.0);
    buffer.record(Seconds{5.5}, 1.0);
    // A chip reactivated after an outage resumes behind the fleet;
    // writes behind the head but inside the retained window land
    // normally.
    buffer.record(Seconds{3.5}, 2.0);
    EXPECT_EQ(buffer.bucket(3).count, 1u);
    EXPECT_EQ(buffer.lastBucket(), 5);
}

TEST(TimeSeriesBuffer, ClearForgetsEverything)
{
    TimeSeriesBuffer buffer(Seconds{0.5}, 8);
    buffer.record(Seconds{1.0}, 7.0);
    buffer.clear();
    EXPECT_TRUE(buffer.empty());
    buffer.record(Seconds{0.1}, 1.0);
    EXPECT_EQ(buffer.firstBucket(), 0);
    EXPECT_EQ(buffer.bucket(2).count, 0u);
}

} // namespace
} // namespace agsim::obs::telemetry
