/**
 * @file
 * Mergeable streaming quantile sketch (DDSketch-style).
 *
 * The telemetry plane needs tail quantiles (QoS p99 latency, voltage
 * margin floors, per-chip throughput distributions) over streams that
 * are (a) unbounded, (b) produced concurrently by independent fleet
 * shards, and (c) queried live mid-run. PercentileTracker stores every
 * sample, so its memory grows with the stream; this sketch holds a
 * bounded set of buckets and merges across shards.
 *
 * Design: logarithmic buckets with relative accuracy alpha — bucket i
 * covers (gamma^(i-1), gamma^i] with gamma = (1+alpha)/(1-alpha), so
 * any quantile estimate is within a factor (1±alpha) of the true
 * value. Negative values get a mirrored bucket map (voltage margins go
 * negative under droop), and near-zero values collapse into a zero
 * bucket. Merging two sketches with the same alpha is exact bucket
 * addition: merge(a, b) holds every quantile guarantee the combined
 * stream would, and is associative and commutative — the property the
 * per-shard telemetry path relies on (tests/test_quantile_sketch.cc).
 *
 * Memory is O(log(max/min)/alpha) buckets: ~1 KB for microvolt-to-volt
 * ranges at alpha = 0.01. Adds are one map upsert — cheap enough for
 * the sampled telemetry cadence (not intended for per-tick hot paths).
 */

#ifndef AGSIM_STATS_QUANTILE_SKETCH_H
#define AGSIM_STATS_QUANTILE_SKETCH_H

#include <cstddef>
#include <cstdint>
#include <map>

namespace agsim::stats {

/** Mergeable log-bucket quantile sketch with relative-error bounds. */
class QuantileSketch
{
  public:
    /**
     * @param relativeAccuracy Relative error bound alpha in (0, 1);
     *        quantile estimates are within a (1±alpha) factor of the
     *        true order statistic. Default 1%.
     */
    explicit QuantileSketch(double relativeAccuracy = 0.01);

    /** Copies drop the hot-bucket cache (it points into the source). */
    QuantileSketch(const QuantileSketch &other);
    QuantileSketch &operator=(const QuantileSketch &other);

    /** Add `weight` observations of value x. */
    void add(double x, uint64_t weight = 1);

    /**
     * Fold another sketch into this one. Both must share the same
     * relative accuracy (enforced); the result is identical to having
     * added both streams to one sketch.
     */
    void merge(const QuantileSketch &other);

    /**
     * Estimated value of quantile q in [0, 1] (0.99 = p99).
     * Returns 0 when empty.
     */
    double quantile(double q) const;

    /** Total observations (including merged ones). */
    uint64_t count() const { return count_; }

    /** Exact minimum observed value (0 when empty). */
    double min() const { return count_ > 0 ? min_ : 0.0; }

    /** Exact maximum observed value (0 when empty). */
    double max() const { return count_ > 0 ? max_ : 0.0; }

    /** Sum of observed values (exact, for mean computation). */
    double sum() const { return sum_; }

    /** Mean of observed values (0 when empty). */
    double mean() const
    {
        return count_ > 0 ? sum_ / double(count_) : 0.0;
    }

    /** The configured relative accuracy alpha. */
    double relativeAccuracy() const { return alpha_; }

    /** Distinct buckets allocated (memory telemetry / tests). */
    size_t bucketCount() const
    {
        return positive_.size() + negative_.size() + (zero_ > 0 ? 1 : 0);
    }

    /** Drop every observation (accuracy configuration is kept). */
    void clear();

  private:
    /** Bucket index for a magnitude (> minMagnitude_). */
    int32_t indexFor(double magnitude) const;

    /** Representative value of bucket i (midpoint, relative sense). */
    double valueFor(int32_t index) const;

    double alpha_;
    double gamma_;
    double logGamma_;
    /** Magnitudes at or below this collapse into the zero bucket. */
    double minMagnitude_;

    std::map<int32_t, uint64_t> positive_;
    std::map<int32_t, uint64_t> negative_;
    /**
     * Hot-bucket cache: telemetry streams are usually near-stationary,
     * so consecutive adds land in the same bucket. Caching the last
     * bucket's magnitude range and count slot turns those adds into a
     * range check + increment (no log(), no map walk). Map node
     * pointers are stable under insertion, so the slots stay valid.
     */
    double cacheLoPos_ = 0.0;
    double cacheHiPos_ = -1.0;
    uint64_t *cachePos_ = nullptr;
    double cacheLoNeg_ = 0.0;
    double cacheHiNeg_ = -1.0;
    uint64_t *cacheNeg_ = nullptr;
    uint64_t zero_ = 0;
    uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

} // namespace agsim::stats

#endif // AGSIM_STATS_QUANTILE_SKETCH_H
