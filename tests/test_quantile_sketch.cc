/**
 * @file
 * QuantileSketch tests: the relative-error bound, the negative/zero
 * paths, and copy semantics (the hot-bucket cache must never follow a
 * copy into the source's buckets).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "stats/quantile_sketch.h"

namespace agsim::stats {
namespace {

/** Exact type-7-free reference: value at rank floor(q * (n-1)). */
double
exactQuantile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    const size_t rank = size_t(q * double(xs.size() - 1));
    return xs[rank];
}

TEST(QuantileSketch, EmptyAndSingle)
{
    QuantileSketch sketch;
    EXPECT_EQ(sketch.count(), 0u);
    EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
    sketch.add(42.0);
    EXPECT_EQ(sketch.count(), 1u);
    EXPECT_NEAR(sketch.quantile(0.0), 42.0, 42.0 * 0.01);
    EXPECT_NEAR(sketch.quantile(1.0), 42.0, 42.0 * 0.01);
    EXPECT_DOUBLE_EQ(sketch.min(), 42.0);
    EXPECT_DOUBLE_EQ(sketch.max(), 42.0);
    EXPECT_DOUBLE_EQ(sketch.mean(), 42.0);
}

TEST(QuantileSketch, RelativeErrorBoundHolds)
{
    const double alpha = 0.01;
    QuantileSketch sketch(alpha);
    Rng rng(0xABCDEFull);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i) {
        // Latency-like long-tailed positives across three decades.
        const double x = std::exp(rng.uniform(0.0, 7.0)) * 1e-3;
        xs.push_back(x);
        sketch.add(x);
    }
    for (double q : {0.1, 0.5, 0.9, 0.99, 0.999}) {
        const double exact = exactQuantile(xs, q);
        const double est = sketch.quantile(q);
        EXPECT_NEAR(est, exact, exact * 2.0 * alpha)
            << "quantile " << q;
    }
}

TEST(QuantileSketch, NegativeAndZeroValues)
{
    QuantileSketch sketch;
    // Voltage margins go negative under droop; the mirrored map must
    // keep ordering across the sign boundary.
    for (int i = 0; i < 100; ++i)
        sketch.add(-1.0);
    for (int i = 0; i < 100; ++i)
        sketch.add(0.0);
    for (int i = 0; i < 100; ++i)
        sketch.add(1.0);
    EXPECT_NEAR(sketch.quantile(0.1), -1.0, 0.03);
    EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
    EXPECT_NEAR(sketch.quantile(0.9), 1.0, 0.03);
    EXPECT_DOUBLE_EQ(sketch.min(), -1.0);
    EXPECT_DOUBLE_EQ(sketch.max(), 1.0);
}

TEST(QuantileSketch, CopyIsIndependentOfSource)
{
    QuantileSketch source;
    // Prime the hot-bucket cache so a buggy copy would alias it.
    for (int i = 0; i < 10; ++i)
        source.add(5.0);
    QuantileSketch copy(source);
    // Writes through the copy must not touch the source (and vice
    // versa) even though both cached the same bucket value.
    for (int i = 0; i < 10; ++i)
        copy.add(5.0);
    EXPECT_EQ(source.count(), 10u);
    EXPECT_EQ(copy.count(), 20u);

    QuantileSketch assigned;
    assigned = source;
    for (int i = 0; i < 5; ++i)
        assigned.add(5.0);
    EXPECT_EQ(source.count(), 10u);
    EXPECT_EQ(assigned.count(), 15u);
    EXPECT_NEAR(assigned.quantile(0.5), 5.0, 5.0 * 0.03);
}

TEST(QuantileSketch, ClearDropsObservationsKeepsAccuracy)
{
    QuantileSketch sketch(0.05);
    sketch.add(1.0);
    sketch.add(100.0);
    sketch.clear();
    EXPECT_EQ(sketch.count(), 0u);
    EXPECT_EQ(sketch.bucketCount(), 0u);
    EXPECT_DOUBLE_EQ(sketch.relativeAccuracy(), 0.05);
    sketch.add(2.0);
    EXPECT_NEAR(sketch.quantile(0.5), 2.0, 2.0 * 0.1);
}

} // namespace
} // namespace agsim::stats
