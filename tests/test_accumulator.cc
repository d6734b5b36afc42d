/**
 * @file
 * Accumulator tests: Welford statistics, weights, merge.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "stats/accumulator.h"

namespace agsim::stats {
namespace {

TEST(Accumulator, EmptyDefaults)
{
    Accumulator acc;
    EXPECT_TRUE(acc.empty());
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.count(), 0.0);
}

TEST(Accumulator, BasicStatistics)
{
    Accumulator acc;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(x);
    EXPECT_DOUBLE_EQ(acc.count(), 8.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
    EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, SingleSampleHasZeroVariance)
{
    Accumulator acc;
    acc.add(3.0);
    EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
}

TEST(Accumulator, WeightedEqualsRepeated)
{
    Accumulator weighted;
    weighted.addWeighted(2.0, 3.0);
    weighted.addWeighted(6.0, 1.0);

    Accumulator repeated;
    repeated.add(2.0);
    repeated.add(2.0);
    repeated.add(2.0);
    repeated.add(6.0);

    EXPECT_NEAR(weighted.mean(), repeated.mean(), 1e-12);
    EXPECT_NEAR(weighted.variance(), repeated.variance(), 1e-12);
}

TEST(Accumulator, ZeroWeightIgnored)
{
    Accumulator acc;
    acc.addWeighted(5.0, 0.0);
    EXPECT_TRUE(acc.empty());
}

TEST(Accumulator, ResetClearsEverything)
{
    Accumulator acc;
    acc.add(9.0);
    acc.reset();
    EXPECT_TRUE(acc.empty());
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(Accumulator, NumericalStabilityLargeOffset)
{
    // Welford must not lose the small variance riding a huge mean.
    Accumulator acc;
    const double offset = 1e9;
    for (double x : {offset + 1.0, offset + 2.0, offset + 3.0})
        acc.add(x);
    EXPECT_NEAR(acc.mean(), offset + 2.0, 1e-3);
    EXPECT_NEAR(acc.variance(), 2.0 / 3.0, 1e-6);
}

} // namespace
} // namespace agsim::stats
