/**
 * @file
 * Percentile tests: exact tracker semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "stats/percentile.h"

namespace agsim::stats {
namespace {

TEST(PercentileTracker, EmptyReturnsZero)
{
    PercentileTracker tracker;
    EXPECT_TRUE(tracker.empty());
    EXPECT_DOUBLE_EQ(tracker.percentile(90.0), 0.0);
}

TEST(PercentileTracker, SingleSample)
{
    PercentileTracker tracker;
    tracker.add(7.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(50.0), 7.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(100.0), 7.0);
}

TEST(PercentileTracker, InterpolatesBetweenOrderStatistics)
{
    PercentileTracker tracker;
    for (double x : {10.0, 20.0, 30.0, 40.0, 50.0})
        tracker.add(x);
    EXPECT_DOUBLE_EQ(tracker.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(100.0), 50.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(50.0), 30.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(25.0), 20.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(90.0), 46.0);
}

TEST(PercentileTracker, UnsortedInsertionOrderIrrelevant)
{
    PercentileTracker a, b;
    std::vector<double> values{5, 1, 9, 3, 7, 2, 8, 4, 6};
    for (double v : values)
        a.add(v);
    std::sort(values.begin(), values.end());
    for (double v : values)
        b.add(v);
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0})
        EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p));
}

TEST(PercentileTracker, QueriesInterleavedWithInserts)
{
    PercentileTracker tracker;
    tracker.add(1.0);
    tracker.add(2.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(100.0), 2.0);
    tracker.add(10.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(100.0), 10.0);
}

TEST(PercentileTracker, OutOfRangePercentileThrows)
{
    PercentileTracker tracker;
    tracker.add(1.0);
    EXPECT_THROW(tracker.percentile(-1.0), ConfigError);
    EXPECT_THROW(tracker.percentile(101.0), ConfigError);
}

TEST(PercentileTracker, ClearEmpties)
{
    PercentileTracker tracker;
    tracker.add(1.0);
    tracker.clear();
    EXPECT_TRUE(tracker.empty());
}

} // namespace
} // namespace agsim::stats
