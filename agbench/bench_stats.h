/**
 * @file
 * Pure helpers of the benchmark: percentiles and the tail-sample rule,
 * the expected arrival count of each traffic shape, and the query
 * conservation identity. Everything here is computed from first
 * principles (closed-form integrals, counting), never by calling the
 * code under test, so the checks built on it are independent of the
 * simulator. Covered by test_bench_stats.cc.
 */

#ifndef AGBENCH_BENCH_STATS_H
#define AGBENCH_BENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace agbench {

/**
 * Nearest-rank percentile: the smallest sample with at least q of the
 * samples at or below it. q in (0, 1]; an empty input yields 0.
 */
inline double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = double(samples.size());
    size_t rank = size_t(std::ceil(q * n));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

/** Samples strictly above `threshold`. */
inline size_t
countAbove(const std::vector<double> &samples, double threshold)
{
    return size_t(std::count_if(samples.begin(), samples.end(),
                                [&](double s) { return s > threshold; }));
}

/**
 * Samples that lie beyond the nearest-rank q-th percentile of n
 * distinct samples: n - ceil(q n).
 */
inline size_t
tailSamples(size_t n, double q)
{
    const size_t rank = size_t(std::ceil(q * double(n)));
    return n > rank ? n - rank : 0;
}

/**
 * Fewest samples for which at least `tail` lie beyond the q-th
 * percentile (the sizing rule for a reported tail percentile).
 */
inline size_t
minSamplesForTail(double q, size_t tail)
{
    size_t n = tail;
    while (tailSamples(n, q) < tail)
        ++n;
    return n;
}

/** Traffic shape, mirrored from the service's arrival configuration. */
enum class Shape
{
    Steady,
    Diurnal,
    Mmpp,
    Flash,
};

/** The parameters the expected-count integral needs. */
struct RateShape
{
    Shape shape = Shape::Steady;
    double base = 0.0;
    /** Diurnal raised cosine: trough at t = 0, peak mid-period. */
    double period = 1.0;
    double amplitude = 0.0;
    /** MMPP: burst-state multiplier. */
    double burst = 1.0;
    /** Flash crowd: linear rise, hold, linear decay back to base. */
    double flashStart = 0.0;
    double flashRise = 0.0;
    double flashHold = 0.0;
    double flashDecay = 0.0;
    double flashPeak = 1.0;
};

/** Lower and upper Poisson mean of the arrivals over [0, T). */
struct MeanRange
{
    double lo = 0.0;
    double hi = 0.0;
};

/** Integral of the flash-crowd multiplier's excess over base on [0,T). */
inline double
flashExcess(const RateShape &s, double T)
{
    // Piecewise-linear excess e(t) = (peak - 1) * ramp(t); integrate
    // each piece over its overlap with [0, T).
    const double h = s.flashPeak - 1.0;
    const double a = s.flashStart;
    const double b = a + s.flashRise;
    const double c = b + s.flashHold;
    const double d = c + s.flashDecay;
    double total = 0.0;
    if (T > a && s.flashRise > 0.0) {
        const double x = std::min(T, b) - a;
        total += h * x * x / (2.0 * s.flashRise);
    }
    if (T > b)
        total += h * (std::min(T, c) - b);
    if (T > c && s.flashDecay > 0.0) {
        const double x = std::min(T, d) - c;
        total += h * (x - x * x / (2.0 * s.flashDecay));
    }
    return total;
}

/**
 * Expected arrivals over [0, T): the integral of the rate. Every shape
 * but MMPP has one exact mean (lo == hi); MMPP's modulation is random,
 * so its mean lies between all-calm and all-burst.
 */
inline MeanRange
expectedArrivals(const RateShape &s, double T)
{
    switch (s.shape) {
    case Shape::Steady:
        return {s.base * T, s.base * T};
    case Shape::Diurnal: {
        const double w = 2.0 * std::numbers::pi / s.period;
        const double m = s.base * (T - s.amplitude * std::sin(w * T) / w);
        return {m, m};
    }
    case Shape::Mmpp:
        return {s.base * T, s.base * s.burst * T};
    case Shape::Flash: {
        const double m = s.base * (T + flashExcess(s, T));
        return {m, m};
    }
    }
    return {};
}

/**
 * Whether an observed Poisson count lies within `sigmas` standard
 * deviations of the mean range.
 */
inline bool
withinPoisson(double observed, const MeanRange &mean, double sigmas)
{
    return observed >= mean.lo - sigmas * std::sqrt(mean.lo) &&
           observed <= mean.hi + sigmas * std::sqrt(mean.hi);
}

/** The service's query ledger at one instant. */
struct QueryLedger
{
    uint64_t arrived = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t queued = 0;
};

/** Conservation: every arrival is completed, shed or still queued. */
inline bool
conserved(const QueryLedger &l)
{
    return l.arrived == l.completed + l.shed + l.queued;
}

/** Relative difference |a - b| / max(|b|, floor). */
inline double
relativeDiff(double a, double b, double floor = 1e-12)
{
    return std::abs(a - b) / std::max(std::abs(b), floor);
}

} // namespace agbench

#endif // AGBENCH_BENCH_STATS_H
