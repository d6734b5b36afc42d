/**
 * @file
 * Unit test of the benchmark's own helpers (bench_stats.h): the
 * percentile and tail-sample rule, the expected arrival count of every
 * traffic shape, and the conservation identity. Exits non-zero on the
 * first failed expectation. Run by run.py after each build, or with
 * ctest from the benchmark's build directory.
 */

#include <cmath>
#include <cstdio>
#include <numbers>
#include <vector>

#include "bench_stats.h"

using namespace agbench;

namespace {

int failures = 0;

void
expect(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "test_bench_stats:%d: %s\n", line, what);
        ++failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b, double tol = 1e-9)
{
    return std::abs(a - b) <= tol * std::max(1.0, std::abs(b));
}

/** Midpoint-rule integral of a rate function over [0, T). */
template <typename Rate>
double
integrate(Rate rate, double T, int steps = 200000)
{
    const double h = T / steps;
    double sum = 0.0;
    for (int i = 0; i < steps; ++i)
        sum += rate((i + 0.5) * h) * h;
    return sum;
}

void
testPercentile()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(double(i));
    EXPECT(percentile(v, 0.50) == 50.0);
    EXPECT(percentile(v, 0.95) == 95.0);
    EXPECT(percentile(v, 1.00) == 100.0);
    EXPECT(percentile(v, 0.001) == 1.0);
    EXPECT(percentile({}, 0.5) == 0.0);
    EXPECT(percentile({7.0}, 0.95) == 7.0);
    EXPECT(percentile({1.0, 2.0, 3.0}, 0.5) == 2.0);
    EXPECT(countAbove(v, percentile(v, 0.95)) == 5);
}

void
testTailRule()
{
    EXPECT(tailSamples(100, 0.95) == 5);
    EXPECT(tailSamples(200, 0.95) == 10);
    EXPECT(tailSamples(199, 0.95) == 9);
    EXPECT(tailSamples(10, 1.0) == 0);
    EXPECT(minSamplesForTail(0.95, 10) == 200);
    EXPECT(minSamplesForTail(0.99, 10) == 1000);
    // The rule agrees with counting on distinct samples.
    for (size_t n : {40u, 200u, 250u, 1000u}) {
        std::vector<double> v;
        for (size_t i = 0; i < n; ++i)
            v.push_back(double(i));
        EXPECT(countAbove(v, percentile(v, 0.95)) ==
               tailSamples(n, 0.95));
    }
}

void
testArrivals()
{
    RateShape steady;
    steady.shape = Shape::Steady;
    steady.base = 1000.0;
    EXPECT(near(expectedArrivals(steady, 2.5).lo, 2500.0));
    EXPECT(near(expectedArrivals(steady, 2.5).hi, 2500.0));

    RateShape diurnal;
    diurnal.shape = Shape::Diurnal;
    diurnal.base = 1000.0;
    diurnal.period = 1.0;
    diurnal.amplitude = 0.6;
    // Whole periods integrate to base * T; part periods follow the
    // raised cosine (trough at t = 0).
    EXPECT(near(expectedArrivals(diurnal, 2.0).lo, 2000.0));
    for (double T : {0.25, 0.5, 0.8, 1.3}) {
        const double ref = integrate(
            [&](double t) {
                const double w = 2.0 * std::numbers::pi;
                return 1000.0 * (1.0 - 0.6 * std::cos(w * t));
            },
            T);
        EXPECT(near(expectedArrivals(diurnal, T).lo, ref, 1e-6));
    }

    RateShape flash;
    flash.shape = Shape::Flash;
    flash.base = 100.0;
    flash.flashStart = 0.4;
    flash.flashRise = 0.2;
    flash.flashHold = 0.5;
    flash.flashDecay = 0.2;
    flash.flashPeak = 5.0;
    auto flashRate = [&](double t) {
        double m = 1.0;
        if (t >= 0.4 && t < 0.6)
            m = 1.0 + 4.0 * (t - 0.4) / 0.2;
        else if (t >= 0.6 && t < 1.1)
            m = 5.0;
        else if (t >= 1.1 && t < 1.3)
            m = 5.0 - 4.0 * (t - 1.1) / 0.2;
        return 100.0 * m;
    };
    for (double T : {0.3, 0.5, 0.6, 0.9, 1.2, 1.3, 2.5})
        EXPECT(near(expectedArrivals(flash, T).lo,
                    integrate(flashRate, T), 1e-6));
    // Whole crowd: base * T plus (peak - 1) * (rise/2 + hold + decay/2).
    EXPECT(near(expectedArrivals(flash, 2.5).lo,
                100.0 * (2.5 + 4.0 * (0.1 + 0.5 + 0.1))));

    RateShape mmpp;
    mmpp.shape = Shape::Mmpp;
    mmpp.base = 200.0;
    mmpp.burst = 3.0;
    const MeanRange range = expectedArrivals(mmpp, 2.0);
    EXPECT(near(range.lo, 400.0));
    EXPECT(near(range.hi, 1200.0));

    // The 4-sigma window around a mean.
    EXPECT(withinPoisson(2500.0 + 4.0 * 50.0 - 1.0, {2500.0, 2500.0},
                         4.0));
    EXPECT(!withinPoisson(2500.0 + 4.0 * 50.0 + 1.0, {2500.0, 2500.0},
                          4.0));
    EXPECT(!withinPoisson(2500.0 - 4.0 * 50.0 - 1.0, {2500.0, 2500.0},
                          4.0));
    EXPECT(withinPoisson(1000.0, range, 4.0));
}

void
testConservation()
{
    EXPECT(conserved({1000, 900, 60, 40}));
    EXPECT(conserved({0, 0, 0, 0}));
    EXPECT(!conserved({1000, 900, 60, 39}));
    EXPECT(!conserved({1000, 901, 60, 40}));
    EXPECT(relativeDiff(101.0, 100.0) > 0.0099);
    EXPECT(relativeDiff(100.0, 100.0) == 0.0);
}

} // namespace

int
main()
{
    testPercentile();
    testTailRule();
    testArrivals();
    testConservation();
    if (failures == 0)
        std::fprintf(stderr, "test_bench_stats: all passed\n");
    return failures == 0 ? 0 : 1;
}
